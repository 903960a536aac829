#include "e2ebench/src/layers.h"

namespace dcws::e2e {

std::string Key(const std::string& name, const obs::Labels& labels) {
  std::string key = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ",";
    key += labels[i].first + "=" + labels[i].second;
  }
  return key + "}";
}

Reading Read(const core::Server& server) {
  Reading reading;
  for (const obs::MetricSnapshot& m : server.metrics().Snapshot()) {
    std::string key = Key(m.name, m.labels);
    if (m.type == obs::MetricType::kHistogram) {
      reading.histograms[key] = m.hist;
    } else {
      reading.values[key] = m.value;
    }
  }
  return reading;
}

std::vector<Reading> ReadAll(const std::vector<const core::Server*>& group) {
  std::vector<Reading> out;
  for (const core::Server* server : group) out.push_back(Read(*server));
  return out;
}

namespace {

// The dcws_requests_total outcome family (one outcome per client
// connection) and the dcws_phase_latency_us phases (Server::InitMetrics).
const char* const kOutcomes[] = {"served_local", "served_coop", "redirect",
                                 "not_found",    "overloaded",  "dropped"};
const char* const kPhases[] = {
    "queue_wait", "parse",      "local",           "migrated",
    "revoke",     "ldg_lookup", "rewrite",         "render_transfer",
    "coop_fetch", "other"};

double ValueOf(const Reading& reading, const std::string& key) {
  auto it = reading.values.find(key);
  return it == reading.values.end() ? 0 : it->second;
}

const obs::Histogram::Snapshot* HistOf(const Reading& reading,
                                       const std::string& key) {
  auto it = reading.histograms.find(key);
  return it == reading.histograms.end() ? nullptr : &it->second;
}

}  // namespace

double Window::Delta(size_t server, const std::string& key) const {
  return ValueOf(end_[server], key) - ValueOf(start_[server], key);
}

double Window::Delta(const std::string& key) const {
  double total = 0;
  for (size_t i = 0; i < end_.size(); ++i) total += Delta(i, key);
  return total;
}

double Window::HistSum(const std::string& key) const {
  double total = 0;
  for (size_t i = 0; i < end_.size(); ++i) {
    const auto* end = HistOf(end_[i], key);
    const auto* start = HistOf(start_[i], key);
    if (end != nullptr) total += static_cast<double>(end->sum);
    if (start != nullptr) total -= static_cast<double>(start->sum);
  }
  return total;
}

double Window::HistCount(const std::string& key) const {
  double total = 0;
  for (size_t i = 0; i < end_.size(); ++i) {
    const auto* end = HistOf(end_[i], key);
    const auto* start = HistOf(start_[i], key);
    if (end != nullptr) total += static_cast<double>(end->count);
    if (start != nullptr) total -= static_cast<double>(start->count);
  }
  return total;
}

double Window::EndValue(const std::string& key) const {
  double total = 0;
  for (const Reading& reading : end_) total += ValueOf(reading, key);
  return total;
}

double Window::Outcomes(size_t server) const {
  double total = 0;
  for (const char* outcome : kOutcomes) {
    total += Delta(server, Key("dcws_requests_total", {{"outcome", outcome}}));
  }
  return total;
}

double Window::Outcomes() const {
  double total = 0;
  for (size_t i = 0; i < end_.size(); ++i) total += Outcomes(i);
  return total;
}

double Window::PhaseSum() const {
  double total = 0;
  for (const char* phase : kPhases) {
    total += HistSum(Key("dcws_phase_latency_us", {{"phase", phase}}));
  }
  return total;
}

double Window::LatencySum() const {
  return HistSum(Key("dcws_request_latency_us", {{"kind", "client"}})) +
         HistSum(Key("dcws_request_latency_us", {{"kind", "internal"}}));
}

std::vector<Metric> LayerMetrics(const Window& w, double connections) {
  std::vector<Metric> out;
  uint64_t n = static_cast<uint64_t>(connections);
  auto per_conn = [&](double total) {
    return connections > 0 ? total / connections : 0;
  };
  auto phase = [&](const char* name) {
    return w.HistSum(Key("dcws_phase_latency_us", {{"phase", name}}));
  };
  auto counter = [&](const char* name, const obs::Labels& labels = {}) {
    return w.Delta(Key(name, labels));
  };
  auto add = [&](std::string name, double value, std::string unit,
                 uint64_t samples) {
    out.push_back({std::move(name), value, std::move(unit), samples});
  };
  auto outcome = [&](const char* o) {
    return counter("dcws_requests_total", {{"outcome", o}});
  };

  // net: TcpServerHost hand-off, request read + parse, response write.
  add("net.queue_wait_us", per_conn(phase("queue_wait")), "us", n);
  add("net.read_parse_us", per_conn(phase("parse")), "us", n);
  add("net.write_us", per_conn(w.HistSum(Key("dcws_net_write_us"))), "us",
      static_cast<uint64_t>(w.HistCount(Key("dcws_net_write_us"))));
  add("net.queue_drops", outcome("dropped"), "count", n);
  add("net.peer_requests", counter("dcws_internal_requests_total"),
      "count", n);

  // core: the request handler and its outcomes.
  add("core.handler_us",
      per_conn(phase("local") + phase("migrated") + phase("revoke") +
               phase("other")),
      "us", n);
  std::string client = Key("dcws_request_latency_us", {{"kind", "client"}});
  double client_count = w.HistCount(client);
  add("core.server_latency_us",
      client_count > 0 ? w.HistSum(client) / client_count : 0, "us",
      static_cast<uint64_t>(client_count));
  double outcomes = w.Outcomes();
  add("core.redirect_share",
      outcomes > 0 ? outcome("redirect") / outcomes : 0, "share",
      static_cast<uint64_t>(outcomes));
  add("core.served_local", outcome("served_local"), "count", n);
  add("core.served_coop", outcome("served_coop"), "count", n);
  add("core.redirects", outcome("redirect"), "count", n);
  add("core.not_found", outcome("not_found"), "count", n);
  add("core.overloaded", outcome("overloaded"), "count", n);

  // graph: LDG lookups and the documents' state at window end.
  add("graph.ldg_lookup_us", per_conn(phase("ldg_lookup")), "us", n);
  add("graph.dirty_documents", w.EndValue(Key("dcws_dirty_documents")),
      "count", 1);
  add("graph.migrated_documents",
      w.EndValue(Key("dcws_migrated_documents")), "count", 1);

  // html: regeneration of dirty pages.
  add("html.regenerations", counter("dcws_regenerations_total"), "count",
      n);
  add("html.parse_us", per_conn(w.HistSum(Key("dcws_html_parse_us"))),
      "us", static_cast<uint64_t>(w.HistCount(Key("dcws_html_parse_us"))));
  add("html.reconstruct_us",
      per_conn(w.HistSum(Key("dcws_html_reconstruct_us"))), "us",
      static_cast<uint64_t>(w.HistCount(Key("dcws_html_reconstruct_us"))));
  add("html.rewrite_us", per_conn(phase("rewrite")), "us", n);

  // migrate: placement changes, co-op traffic.
  add("migrate.migrations_window",
      counter("dcws_migrations_total", {{"direction", "out"}}), "count", n);
  add("migrate.revocations", counter("dcws_revocations_total"), "count", n);
  add("migrate.coop_fetches", counter("dcws_coop_fetches_total"), "count",
      n);
  add("migrate.not_modified", counter("dcws_not_modified_total"), "count",
      n);
  add("migrate.stale_serves", counter("dcws_stale_serves_total"), "count",
      n);
  add("migrate.coop_fetch_us", per_conn(phase("coop_fetch")), "us", n);
  add("migrate.render_transfer_us", per_conn(phase("render_transfer")),
      "us", n);
  add("migrate.coop_hosted_documents",
      w.EndValue(Key("dcws_coop_hosted_documents")), "count", 1);

  // load: gossip.
  add("load.piggyback_absorbs", counter("dcws_piggyback_absorbs_total"),
      "count", n);
  add("load.pings", counter("dcws_pings_total"), "count", n);

  // obs: journal volume and loss.
  double events = 0;
  for (const char* type :
       {"migration_decided", "migration_applied", "recall", "revalidation",
        "peer_up", "peer_down", "queue_drop"}) {
    events += counter("dcws_events", {{"type", type}});
  }
  add("obs.events", events, "count", n);
  add("obs.journal_dropped", counter("dcws_event_journal_dropped"),
      "count", n);
  return out;
}

}  // namespace dcws::e2e
