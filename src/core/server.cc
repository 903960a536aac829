#include "src/core/server.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "src/html/rewriter.h"
#include "src/http/url.h"
#include "src/load/piggyback.h"
#include "src/obs/attribution.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace dcws::core {

namespace {

constexpr std::string_view kPingTarget = "/~ping";
constexpr std::string_view kStatusTarget = "/~status";
constexpr std::string_view kRevokePrefix = "/~revoke/";
constexpr std::string_view kDcwsStatusTarget = "/.dcws/status";
constexpr std::string_view kDcwsTracesTarget = "/.dcws/traces";
constexpr std::string_view kDcwsEventsTarget = "/.dcws/events";
constexpr std::string_view kDcwsHistoryTarget = "/.dcws/history";
constexpr std::string_view kDcwsProfileTarget = "/.dcws/profile";

http::Response MakeBadRequestResponse(std::string reason) {
  http::Response r;
  r.status_code = 400;
  r.body = std::move(reason);
  r.headers.Set(std::string(http::kHeaderContentType), "text/plain");
  return r;
}

// Value of `key` in a raw query string ("format=json&x=1"), or "".
std::string QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return "";
}

// Rebuilds the ~migrate form of a /~revoke/... target so both paths share
// one decoder.
std::string RevokeToMigrateTarget(std::string_view revoke_target) {
  std::string out(migrate::kMigratePrefix);
  out.append(revoke_target.substr(kRevokePrefix.size()));
  return out;
}

// Content fingerprint used as the ETag for conditional revalidation.
std::string ContentEtag(std::string_view content) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : content) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buf[19];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string MigrateToRevokeTarget(std::string_view migrate_target) {
  std::string out(kRevokePrefix);
  out.append(migrate_target.substr(migrate::kMigratePrefix.size()));
  return out;
}

// A 200 whose entity is a document version's bytes, shared with the
// store rather than copied (the response keeps the version alive).
http::Response ServeDocument(const storage::DocumentPtr& doc) {
  http::Response r = http::MakeOkResponse(std::string(), doc->content_type);
  r.shared_body = std::shared_ptr<const std::string>(doc, &doc->content);
  return r;
}

}  // namespace

Server::Server(http::ServerAddress self, ServerParams params,
               const Clock* clock)
    : self_(std::move(self)),
      params_(params),
      clock_(clock),
      coop_table_(
          migrate::CoopHostTable::Config{params.validation_interval}),
      pinger_(load::PingerPolicy::Config{params.pinger_interval,
                                         params.pinger_max_failures}),
      home_policy_(self_,
                   migrate::HomeMigrationPolicy::Config{
                       params.stats_interval, params.coop_accept_interval,
                       params.remigrate_interval, params.selection,
                       params.imbalance_factor, params.min_load_cps,
                       params.revoke_imbalance_factor}),
      rate_window_(params.load_window),
      trace_ids_(obs::SeedFromName(self_.ToString())),
      recent_traces_(static_cast<size_t>(params.trace_ring_capacity)),
      slow_traces_(static_cast<size_t>(params.trace_ring_capacity)),
      journal_(self_.ToString(), clock,
               static_cast<size_t>(params.event_journal_capacity)),
      history_(static_cast<size_t>(params.history_ring_capacity)) {
  glt_.RegisterPeer(self_);  // before set_journal: no self PeerUp event
  glt_.set_journal(&journal_);
  pinger_.set_journal(&journal_);
  {
    MutexLock duty_lock(duty_mutex_);  // satisfies the TSA annotation
    home_policy_.set_journal(&journal_);
  }
  InitMetrics();
}

void Server::InitMetrics() {
  auto outcome = [this](const char* o) {
    return registry_.GetCounter("dcws_requests_total", {{"outcome", o}});
  };
  // Request outcomes as the CLIENT sees them: every connection a client
  // opened lands in exactly one outcome, so the family sums to offered
  // load (queue drops are fed in by the transport via CountQueueDrop).
  ctr_served_local_ = outcome("served_local");
  ctr_served_coop_ = outcome("served_coop");
  ctr_redirects_ = outcome("redirect");
  ctr_not_found_ = outcome("not_found");
  ctr_overloaded_ = outcome("overloaded");
  ctr_queue_drops_ = outcome("dropped");
  ctr_client_requests_ =
      registry_.GetCounter("dcws_client_requests_total");
  ctr_internal_requests_ =
      registry_.GetCounter("dcws_internal_requests_total");
  ctr_stale_serves_ = registry_.GetCounter("dcws_stale_serves_total");
  ctr_not_modified_ = registry_.GetCounter("dcws_not_modified_total");
  ctr_regenerations_ = registry_.GetCounter("dcws_regenerations_total");
  ctr_coop_fetches_ = registry_.GetCounter("dcws_coop_fetches_total");
  ctr_migrations_out_ = registry_.GetCounter("dcws_migrations_total",
                                             {{"direction", "out"}});
  ctr_migrations_in_ = registry_.GetCounter("dcws_migrations_total",
                                            {{"direction", "in"}});
  ctr_revocations_ = registry_.GetCounter("dcws_revocations_total");
  ctr_pings_sent_ = registry_.GetCounter("dcws_pings_total");
  ctr_piggyback_absorbs_ =
      registry_.GetCounter("dcws_piggyback_absorbs_total");
  hist_latency_client_ = registry_.GetHistogram(
      "dcws_request_latency_us", {{"kind", "client"}});
  hist_latency_internal_ = registry_.GetHistogram(
      "dcws_request_latency_us", {{"kind", "internal"}});
  hist_html_parse_ = registry_.GetHistogram("dcws_html_parse_us");
  hist_html_reconstruct_ =
      registry_.GetHistogram("dcws_html_reconstruct_us");
  hist_net_write_ = registry_.GetHistogram("dcws_net_write_us");

  // Per-phase latency attribution (obs::AttributeTrace): every phase a
  // request can spend time in, pre-registered so a fresh scrape lists
  // the whole family and the fold never takes the registry lock.
  static constexpr const char* kPhases[] = {
      "queue_wait", "parse",           "local",
      "migrated",   "revoke",          "ldg_lookup",
      "rewrite",    "render_transfer", "coop_fetch",
      "other",
  };
  for (const char* phase : kPhases) {
    hist_phases_[phase] =
        registry_.GetHistogram("dcws_phase_latency_us", {{"phase", phase}});
  }

  // Table sizes and load read live at scrape time; the callbacks run on
  // the exporting thread against internally-synchronized structures.
  registry_.AddCallbackGauge("dcws_documents", {}, [this] {
    return static_cast<double>(ldg_.GetStats().documents);
  });
  registry_.AddCallbackGauge("dcws_migrated_documents", {}, [this] {
    return static_cast<double>(ldg_.GetStats().migrated);
  });
  registry_.AddCallbackGauge("dcws_dirty_documents", {}, [this] {
    return static_cast<double>(ldg_.GetStats().dirty);
  });
  registry_.AddCallbackGauge("dcws_coop_hosted_documents", {}, [this] {
    return static_cast<double>(coop_table_.size());
  });
  registry_.AddCallbackGauge("dcws_glt_peers", {}, [this] {
    return static_cast<double>(glt_.Snapshot().size());
  });
  registry_.AddCallbackGauge("dcws_load_cps", {},
                             [this] { return LoadMetric(); });
  registry_.AddCallbackGauge("dcws_load_bps", {},
                             [this] { return BytesMetric(); });

  // Event-journal visibility: ring depth and evictions (overflow must
  // be observable, never silent) plus one per-type emission count, so
  // /.dcws/status, Prometheus scrapes and the simulator's merged bench
  // snapshots all report decision volume.
  registry_.AddCallbackGauge("dcws_event_journal_depth", {}, [this] {
    return static_cast<double>(journal_.depth());
  });
  registry_.AddCallbackGauge("dcws_event_journal_dropped", {}, [this] {
    return static_cast<double>(journal_.dropped());
  });
  static constexpr obs::EventType kEventTypes[] = {
      obs::EventType::kMigrationDecided,
      obs::EventType::kMigrationApplied,
      obs::EventType::kRecall,
      obs::EventType::kRevalidation,
      obs::EventType::kPeerUp,
      obs::EventType::kPeerDown,
      obs::EventType::kQueueDrop,
  };
  for (obs::EventType type : kEventTypes) {
    registry_.AddCallbackGauge(
        "dcws_events", {{"type", std::string(obs::EventTypeName(type))}},
        [this, type] {
          return static_cast<double>(journal_.CountFor(type));
        });
  }
}

Status Server::LoadSite(const std::vector<storage::Document>& documents,
                        const std::vector<std::string>& entry_points) {
  for (const storage::Document& doc : documents) {
    storage::Document copy = doc;
    if (copy.content_type.empty()) {
      copy.content_type = storage::GuessContentType(copy.path);
    }
    store_.Put(std::move(copy));
  }
  return ldg_.Build(store_, self_, entry_points);
}

void Server::RegisterPeer(const http::ServerAddress& peer) {
  glt_.RegisterPeer(peer);
}

void Server::SetAccessLogSink(
    std::function<void(const std::string&)> sink) {
  MutexLock lock(log_mutex_);
  access_log_ = std::move(sink);
}

Status Server::PutDocument(storage::Document doc, bool entry_point) {
  if (doc.content_type.empty()) {
    doc.content_type = storage::GuessContentType(doc.path);
  }
  bool existing = ldg_.Contains(doc.path);
  store_.Put(doc);
  if (existing) {
    return ldg_.UpdateContent(doc.path, doc);
  }
  return ldg_.AddDocument(doc, self_, entry_point);
}

// ---------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------

http::Response Server::HandleRequest(const http::Request& request,
                                     PeerClient* peers,
                                     RequestTrace* trace) {
  RequestTrace local_trace;
  if (trace == nullptr) trace = &local_trace;

  AbsorbPiggyback(request.headers);
  bool from_peer = request.headers.Has(http::kHeaderDcwsServer) ||
                   request.headers.Has(http::kHeaderDcwsInternal);
  bool internal = request.headers.Has(http::kHeaderDcwsInternal);
  trace->internal = internal;

  // Trace identity: adopt a peer's id from X-DCWS-Trace so both halves
  // of a cooperative request share one span tree; mint one otherwise.
  bool propagated = false;
  if (auto header = request.headers.Get(http::kHeaderDcwsTrace)) {
    if (auto parsed = obs::ParseTraceId(*header)) {
      trace->trace_id = *parsed;
      propagated = true;
    }
  }
  if (trace->trace_id == 0) trace->trace_id = trace_ids_.Next();

  // Root the trace where the transport first saw the request, not where
  // a worker picked it up.
  MicroTime handle_start = clock_->Now();
  MicroTime root_start =
      handle_start - trace->queue_wait - trace->parse_micros;
  obs::TraceBuilder builder(trace->trace_id,
                            request.method + " " + request.target,
                            self_.ToString(), root_start);
  builder.set_internal(internal);
  builder.set_propagated(propagated);
  if (trace->queue_wait > 0) {
    builder.AddCompletedSpan("accept_wait", root_start,
                             root_start + trace->queue_wait);
  }
  if (trace->parse_micros > 0) {
    builder.AddCompletedSpan("parse", root_start + trace->queue_wait,
                             handle_start);
  }
  trace->spans = &builder;

  // Split any query string off before path normalization; only the
  // introspection endpoints interpret it.
  std::string raw_target = request.target;
  std::string query;
  if (size_t mark = raw_target.find('?'); mark != std::string::npos) {
    query = raw_target.substr(mark + 1);
    raw_target.resize(mark);
  }
  std::string target = http::NormalizePath(raw_target);

  bool is_head = request.method == "HEAD";
  bool admin = target == kPingTarget || target == kStatusTarget ||
               target == kDcwsStatusTarget ||
               target == kDcwsTracesTarget ||
               target == kDcwsEventsTarget ||
               target == kDcwsHistoryTarget ||
               target == kDcwsProfileTarget;

  http::Response response;
  if (target == kPingTarget) {
    response = HandlePing();
  } else if (target == kStatusTarget) {
    response = HandleStatus();
  } else if (target == kDcwsStatusTarget) {
    response = HandleDcwsStatus(query);
  } else if (target == kDcwsTracesTarget) {
    response = HandleDcwsTraces(query);
  } else if (target == kDcwsEventsTarget) {
    response = HandleDcwsEvents(query);
  } else if (target == kDcwsHistoryTarget) {
    response = HandleDcwsHistory(query);
  } else if (target == kDcwsProfileTarget) {
    response = HandleDcwsProfile(query);
  } else if (StartsWith(target, kRevokePrefix)) {
    obs::ScopedSpan span(&builder, clock_, "revoke");
    response = HandleRevoke(target);
  } else if (migrate::IsMigratedTarget(target)) {
    obs::ScopedSpan span(&builder, clock_, "migrated");
    response = HandleMigratedRequest(request, target, peers, trace);
  } else {
    obs::ScopedSpan span(&builder, clock_, "local");
    response = HandleLocalRequest(request, target, internal, trace);
  }

  if (is_head && response.status_code == 200) {
    // HEAD: headers only.  Content-Length still advertises the entity
    // size the matching GET would carry.
    response.headers.Set(std::string(http::kHeaderContentLength),
                         std::to_string(response.entity().size()));
    response.body.clear();
    response.shared_body.reset();
  }
  if (from_peer) {
    AttachPiggyback(response.headers);
  }
  if (!internal) {
    ctr_client_requests_->Increment();
    MutexLock log_lock(log_mutex_);
    if (access_log_) {
      // Common Log Format; the transport knows the remote address, this
      // layer logs the Host header (or "-").
      std::string client = "-";
      if (auto host = request.headers.Get(http::kHeaderHost)) {
        client = std::string(*host);
      }
      std::ostringstream line;
      line << client << " - - [-] \"" << request.method << " "
           << request.target << " " << request.version << "\" "
           << response.status_code << " "
           << (response.entity().empty()
                   ? std::string("-")
                   : std::to_string(response.entity().size()));
      access_log_(std::move(line).str());
    }
  }

  // Close the span tree and account latency.  Introspection/admin hits
  // are excluded so the rings and histograms reflect site traffic.
  trace->spans = nullptr;
  MicroTime end = clock_->Now();
  DCWS_LOG(kDebug) << self_.ToString() << " " << request.method << " "
                   << request.target << " -> " << response.status_code
                   << " (" << (end - root_start) << "us, trace "
                   << obs::FormatTraceId(builder.id()) << ")";
  if (!admin) {
    obs::Trace done = builder.Finish(end, response.status_code);
    uint64_t latency = static_cast<uint64_t>(end - root_start);
    (internal ? hist_latency_internal_ : hist_latency_client_)
        ->Observe(latency);
    // Per-phase attribution observes the same requests the end-to-end
    // histograms do, so the family's sums add up to theirs.
    ObservePhases(done);
    if (end - root_start >= params_.slow_trace_threshold) {
      slow_traces_.Add(done);
    }
    recent_traces_.Add(std::move(done));
  }
  return response;
}

void Server::ObserveNetWrite(MicroTime micros) {
  if (micros < 0) return;
  hist_net_write_->Observe(static_cast<uint64_t>(micros));
}

void Server::CountQueueDrop(const http::Request* request) {
  ctr_queue_drops_->Increment();
  obs::Event event;
  event.type = obs::EventType::kQueueDrop;
  event.detail = "socket queue full (L_sq=" +
                 std::to_string(params_.socket_queue_length) + ")";
  if (request != nullptr) {
    event.doc = request->target;
    if (auto header = request->headers.Get(http::kHeaderDcwsTrace)) {
      if (auto parsed = obs::ParseTraceId(*header)) event.trace = *parsed;
    }
  }
  journal_.Emit(std::move(event));
}

http::Response Server::HandlePing() {
  ctr_internal_requests_->Increment();
  http::Response r;
  r.status_code = 200;
  return r;
}

http::Response Server::HandleStatus() {
  std::ostringstream out;
  out << "dcws server " << self_.ToString() << "\n";
  graph::LocalDocumentGraph::Stats graph_stats = ldg_.GetStats();
  out << "documents: " << graph_stats.documents << " ("
      << graph_stats.html_documents << " html, "
      << graph_stats.entry_points << " entry points)\n"
      << "links: " << graph_stats.links << "\n"
      << "migrated away: " << graph_stats.migrated
      << ", dirty: " << graph_stats.dirty << "\n"
      << "hosted as co-op: " << coop_table_.size() << "\n"
      << "load: " << LoadMetric() << " cps, " << BytesMetric()
      << " bps\n";
  Counters c = counters();
  out << "requests: " << c.requests << " (local " << c.served_local
      << ", coop " << c.served_coop << ", redirects " << c.redirects
      << ", 404 " << c.not_found << ")\n"
      << "migrations: " << c.migrations << ", revocations: "
      << c.revocations << "\n"
      << "regenerations: " << c.regenerations << ", fetches: "
      << c.coop_fetches << ", pings: " << c.pings_sent << "\n";
  out << "global load table:\n";
  for (const load::LoadEntry& entry : glt_.Snapshot()) {
    out << "  " << entry.server.ToString() << " = "
        << entry.load_metric;
    if (entry.updated_at < 0) {
      out << " (never heard)";
    } else {
      out << " (age "
          << ToSeconds(clock_->Now() - entry.updated_at) << "s)";
    }
    out << "\n";
  }
  return http::MakeOkResponse(std::move(out).str(), "text/plain");
}

http::Response Server::HandleDcwsStatus(const std::string& query) {
  std::string format = QueryParam(query, "format");
  std::vector<obs::MetricSnapshot> snapshot = registry_.Snapshot();
  if (format == "json") {
    return http::MakeOkResponse(obs::ExportJson(snapshot),
                                "application/json");
  }
  if (format == "prometheus") {
    // The server label distinguishes series when one scraper collects
    // the whole cluster.
    return http::MakeOkResponse(
        obs::ExportPrometheus(snapshot, {{"server", self_.ToString()}}),
        "text/plain");
  }
  return http::MakeOkResponse(obs::ExportText(snapshot), "text/plain");
}

http::Response Server::HandleDcwsTraces(const std::string& query) {
  std::string format = QueryParam(query, "format");
  std::vector<obs::Trace> recent = recent_traces_.Snapshot();
  std::vector<obs::Trace> slow = slow_traces_.Snapshot();
  if (format == "json") {
    return http::MakeOkResponse(obs::FormatTracesJson(recent, slow),
                                "application/json");
  }
  std::string out = "recent traces (" + std::to_string(recent.size()) +
                    " of " + std::to_string(recent_traces_.total_added()) +
                    "):\n";
  for (const obs::Trace& trace : recent) {
    out += obs::FormatTraceText(trace);
  }
  out += "slow traces (>= " +
         std::to_string(params_.slow_trace_threshold) + "us):\n";
  for (const obs::Trace& trace : slow) {
    out += obs::FormatTraceText(trace);
  }
  if (!slow.empty()) {
    // Aggregate critical path over the slow ring: which phase the tail
    // actually spends its time in.
    out += "slow-trace phase breakdown (" + std::to_string(slow.size()) +
           " traces):\n";
    out += obs::FormatPhaseBreakdown(slow);
  }
  return http::MakeOkResponse(std::move(out), "text/plain");
}

http::Response Server::HandleDcwsEvents(const std::string& query) {
  std::string format = QueryParam(query, "format");
  uint64_t since = 0;
  if (std::string s = QueryParam(query, "since"); !s.empty()) {
    // Strict cursor parse: a malformed cursor must not degrade into
    // since=0 (a full replay) for the poller that sent it.
    std::optional<uint64_t> parsed = ParseUint64(s);
    if (!parsed.has_value()) {
      return MakeBadRequestResponse(
          "since must be a non-negative integer sequence number\n");
    }
    since = *parsed;
  }
  // A cursor past the last emitted event (e.g. the server restarted and
  // its journal reset) yields an empty set under the current envelope —
  // the poller sees last_seq < its cursor and can resynchronize.
  std::vector<obs::Event> events = journal_.Snapshot(since);
  if (format == "json") {
    return http::MakeOkResponse(
        obs::FormatEventsJson(self_.ToString(), events, journal_.total(),
                              journal_.depth(), journal_.dropped(),
                              journal_.capacity()),
        "application/json");
  }
  std::string out = "events for " + self_.ToString() + " (" +
                    std::to_string(events.size()) + " of " +
                    std::to_string(journal_.total()) + " emitted, " +
                    std::to_string(journal_.dropped()) +
                    " evicted by ring wrap):\n";
  for (const obs::Event& event : events) {
    out += obs::FormatEventText(event);
  }
  return http::MakeOkResponse(std::move(out), "text/plain");
}

http::Response Server::HandleDcwsHistory(const std::string& query) {
  std::string format = QueryParam(query, "format");
  std::string metric = QueryParam(query, "metric");
  MicroTime since = 0;
  if (std::string w = QueryParam(query, "window"); !w.empty()) {
    std::optional<uint64_t> seconds = ParseUint64(w);
    if (!seconds.has_value()) {
      return MakeBadRequestResponse(
          "window must be a non-negative integer (seconds)\n");
    }
    since = clock_->Now() - Seconds(static_cast<double>(*seconds));
    if (since < 0) since = 0;
  }
  std::vector<obs::HistorySeries> series =
      history_.Snapshot(metric, since);
  if (format == "json") {
    return http::MakeOkResponse(
        obs::FormatHistoryJson(self_.ToString(), clock_->Now(), series),
        "application/json");
  }
  std::string out = "history for " + self_.ToString() + " (" +
                    std::to_string(series.size()) + " series, ring " +
                    std::to_string(history_.capacity()) + "):\n";
  out += obs::FormatHistoryText(series);
  return http::MakeOkResponse(std::move(out), "text/plain");
}

http::Response Server::HandleDcwsProfile(const std::string& query) {
  if (!obs::Profiler::Enabled()) {
    http::Response r;
    r.status_code = 503;
    r.body = "profiler disabled; set DCWS_PROFILE=1 in the server's "
             "environment\n";
    r.headers.Set(std::string(http::kHeaderContentType), "text/plain");
    return r;
  }
  double seconds = 1.0;
  if (std::string s = QueryParam(query, "seconds"); !s.empty()) {
    std::optional<uint64_t> parsed = ParseUint64(s);
    if (!parsed.has_value()) {
      return MakeBadRequestResponse(
          "seconds must be a non-negative integer\n");
    }
    seconds = static_cast<double>(*parsed);
  }
  int hz = 0;
  if (std::string s = QueryParam(query, "hz"); !s.empty()) {
    std::optional<uint64_t> parsed = ParseUint64(s);
    if (!parsed.has_value()) {
      return MakeBadRequestResponse("hz must be a positive integer\n");
    }
    hz = static_cast<int>(*parsed);
  }
  // Blocks THIS worker for the capture window while the other workers
  // keep serving (that load is exactly what gets sampled).
  Result<std::string> folded =
      obs::Profiler::Instance().Capture(seconds, hz);
  if (!folded.ok()) {
    http::Response r;
    r.status_code = 503;
    r.body = folded.status().message() + "\n";
    r.headers.Set(std::string(http::kHeaderContentType), "text/plain");
    return r;
  }
  return http::MakeOkResponse(std::move(folded).value(), "text/plain");
}

http::Response Server::HandleRevoke(const std::string& target) {
  ctr_internal_requests_->Increment();
  std::string migrate_target = RevokeToMigrateTarget(target);
  auto decoded = migrate::DecodeMigratedTarget(migrate_target);
  if (!decoded.ok()) {
    return http::MakeNotFoundResponse(target);
  }
  // Control of the document returns to the home server.  The physical
  // bytes stay in the store as a best-effort reserve (§4.5): if the home
  // server later crashes, we can still serve what we have.
  coop_table_.Revoke(migrate_target);
  obs::Event event;
  event.type = obs::EventType::kRecall;
  event.doc = decoded->doc_path;
  event.peer = decoded->home.ToString();
  event.detail = "revoke received; control returned to home";
  journal_.Emit(std::move(event));
  http::Response r;
  r.status_code = 200;
  return r;
}

http::Response Server::HandleMigratedRequest(const http::Request& request,
                                             const std::string& target,
                                             PeerClient* peers,
                                             RequestTrace* trace) {
  (void)request;
  auto decoded = migrate::DecodeMigratedTarget(target);
  if (!decoded.ok()) {
    ctr_not_found_->Increment();
    CountConnection(0);
    return http::MakeNotFoundResponse(target);
  }
  const migrate::MigratedName& name = decoded.value();

  if (name.home == self_) {
    // A stale ~migrate link naming US as home: the document lives (again)
    // at its plain URL here; redirect the client to it.
    CountConnection(0);
    ctr_redirects_->Increment();
    return http::MakeRedirectResponse("http://" + self_.ToString() +
                                      name.doc_path);
  }

  MicroTime now = clock_->Now();
  migrate::CoopHostTable::Action action =
      coop_table_.OnRequest(target, name, now);

  bool fetch_failed = false;
  if (action == migrate::CoopHostTable::Action::kFetchFromHome &&
      peers != nullptr) {
    fetch_failed = !FetchFromHome(peers, target, name, trace);
  }

  auto doc = store_.Get(target);
  if (!doc.ok()) {
    // Never fetched and the home server is unreachable.
    ctr_overloaded_->Increment();
    CountConnection(0);
    return http::MakeOverloadedResponse();
  }
  if (fetch_failed) {
    // The home server is unreachable but we hold (possibly stale) bytes:
    // best-effort serve (§4.5).
    ctr_stale_serves_->Increment();
  }
  ctr_served_coop_->Increment();
  CountConnection((*doc)->size());
  return ServeDocument(*doc);
}

http::Response Server::HandleLocalRequest(const http::Request& request,
                                          const std::string& path,
                                          bool internal,
                                          RequestTrace* trace) {
  std::string name = path;
  if (name == "/" && ldg_.Contains(params_.index_path)) {
    name = params_.index_path;
  }

  Result<graph::LocalDocumentGraph::RecordBrief> record = [&] {
    obs::ScopedSpan span(trace->spans, clock_, "ldg_lookup");
    return ldg_.Brief(name);
  }();
  if (!record.ok()) {
    ctr_not_found_->Increment();
    if (!internal) CountConnection(0);
    return http::MakeNotFoundResponse(name);
  }

  if (internal) {
    // Server-to-server fetch (physical migration or validation): serve
    // the authoritative copy rendered position-independent, regardless
    // of where the document is currently assigned.
    ctr_internal_requests_->Increment();
    obs::ScopedSpan span(trace->spans, clock_, "render_transfer");
    auto rendered = RenderForTransfer(name);
    if (!rendered.ok()) {
      return http::MakeNotFoundResponse(name);
    }
    trace->regenerated = trace->regenerated || record->is_html;
    std::string etag = ContentEtag((*rendered)->content);
    if (auto if_none_match =
            request.headers.Get(http::kHeaderIfNoneMatch);
        if_none_match.has_value() && *if_none_match == etag) {
      // The co-op already holds this exact rendering: 304 saves the
      // retransmission (T_val trade-off, Table 2).
      ctr_not_modified_->Increment();
      http::Response not_modified;
      not_modified.status_code = 304;
      not_modified.headers.Set(std::string(http::kHeaderEtag),
                               std::move(etag));
      return not_modified;
    }
    http::Response ok = ServeDocument(*rendered);
    ok.headers.Set(std::string(http::kHeaderEtag), std::move(etag));
    return ok;
  }

  if (!(record->location == self_)) {
    // Migrated: burdenless 301 from the local document graph (§4.4).
    ctr_redirects_->Increment();
    CountConnection(0);
    return http::MakeRedirectResponse(
        migrate::EncodeMigratedUrl(record->location, self_, name));
  }

  ldg_.RecordHit(name);
  Result<storage::DocumentPtr> doc = Status::NotFound(name);
  if (record->dirty && record->is_html) {
    obs::ScopedSpan span(trace->spans, clock_, "rewrite");
    doc = RegenerateDocument(name);
    trace->regenerated = doc.ok();
  }
  if (!doc.ok()) doc = store_.Get(name);
  if (!doc.ok()) {
    ctr_not_found_->Increment();
    CountConnection(0);
    return http::MakeNotFoundResponse(name);
  }
  ctr_served_local_->Increment();
  CountConnection((*doc)->size());
  return ServeDocument(*doc);
}

bool Server::FetchFromHome(PeerClient* peers, const std::string& target,
                           const migrate::MigratedName& name,
                           RequestTrace* trace) {
  obs::ScopedSpan span(trace == nullptr ? nullptr : trace->spans, clock_,
                       "coop_fetch");
  span.Annotate("home=" + name.home.ToString());
  http::Request fetch;
  fetch.method = "GET";
  fetch.target = name.doc_path;
  fetch.headers.Set(std::string(http::kHeaderHost),
                    name.home.ToString());
  fetch.headers.Set(std::string(http::kHeaderDcwsInternal), "fetch");
  if (trace != nullptr && trace->trace_id != 0) {
    // Propagate the client request's trace id so the home server's span
    // tree for this fetch carries the same id as ours.
    fetch.headers.Set(std::string(http::kHeaderDcwsTrace),
                      obs::FormatTraceId(trace->trace_id));
  }
  if (params_.conditional_validation) {
    if (auto held = store_.Get(target); held.ok()) {
      fetch.headers.Set(std::string(http::kHeaderIfNoneMatch),
                        ContentEtag((*held)->content));
    }
  }

  auto response = InternalCall(peers, name.home, std::move(fetch));
  pinger_.RecordProbeResult(name.home, response.ok());
  // Every fetch outcome lands in the journal: 304 revalidations,
  // refetches, the FIRST physical arrival (= the migration became
  // effective here, kMigrationApplied) and failures.
  obs::Event event;
  event.doc = name.doc_path;
  event.peer = name.home.ToString();
  if (trace != nullptr) event.trace = trace->trace_id;
  if (response.ok() && response->status_code == 304) {
    // Our copy is current: revalidated without retransmission.
    coop_table_.MarkFetched(target, clock_->Now());
    ctr_not_modified_->Increment();
    event.type = obs::EventType::kRevalidation;
    event.detail = "revalidated against home via ETag (304)";
    journal_.Emit(std::move(event));
    return true;
  }
  bool ok = response.ok() && response->status_code == 200;
  if (!ok) {
    coop_table_.MarkFetchFailed(target);
    event.type = obs::EventType::kRevalidation;
    event.detail = "fetch from home failed; serving stale if held";
    journal_.Emit(std::move(event));
    return false;
  }

  storage::Document doc;
  doc.path = target;
  doc.content = std::move(response->body);
  if (auto type = response->headers.Get(http::kHeaderContentType)) {
    doc.content_type = std::string(*type);
  } else {
    doc.content_type = storage::GuessContentType(name.doc_path);
  }
  uint64_t bytes = doc.size();
  // First physical arrival of this document = an inbound migration;
  // later fetches are validation refreshes.
  bool first_arrival = !store_.Contains(target);
  if (first_arrival) ctr_migrations_in_->Increment();
  store_.Put(std::move(doc));
  coop_table_.MarkFetched(target, clock_->Now());
  ctr_coop_fetches_->Increment();
  event.type = first_arrival ? obs::EventType::kMigrationApplied
                             : obs::EventType::kRevalidation;
  event.detail =
      (first_arrival
           ? "document arrived from home (physical migration), "
           : "refetched from home, ") +
      std::to_string(bytes) + " bytes";
  journal_.Emit(std::move(event));
  if (trace != nullptr) {
    trace->coop_fetch = true;
    trace->fetch_bytes += bytes;
  }
  return true;
}

// ---------------------------------------------------------------------
// Document reconstruction
// ---------------------------------------------------------------------

std::optional<std::string> Server::InternalPathFor(
    const html::LinkOccurrence& link) const {
  if (!link.external) return link.resolved;
  // Absolute URL: it may be one of our own earlier rewrites.
  auto url = http::Url::Parse(link.resolved);
  if (!url.ok()) return std::nullopt;
  if (migrate::IsMigratedTarget(url->path)) {
    auto decoded = migrate::DecodeMigratedTarget(url->path);
    if (decoded.ok() && decoded->home == self_) return decoded->doc_path;
    return std::nullopt;
  }
  if (http::ServerAddress{url->host, url->port} == self_) {
    return url->path;
  }
  return std::nullopt;
}

std::string Server::RewriteInternalLinks(const storage::Document& page,
                                         std::string_view local_prefix) {
  // One LDG lookup per distinct target: every occurrence of a document
  // inside this page (a page may link one image many times) reuses the
  // first answer, so they also agree if the target moves mid-rewrite.
  std::unordered_map<std::string, std::string> chosen;
  html::RewriteResult rewritten = html::RewriteLinks(
      page.content, page.path,
      [&](const html::LinkOccurrence& link)
          -> std::optional<std::string> {
        std::optional<std::string> name = InternalPathFor(link);
        if (!name.has_value()) return std::nullopt;
        auto memo = chosen.find(*name);
        if (memo != chosen.end()) return memo->second;
        auto record = ldg_.Brief(*name);
        if (!record.ok()) return std::nullopt;
        // Identical values are no-ops inside RewriteLinks, so a link
        // already in its current form stays untouched.
        std::string url =
            record->location == self_
                ? std::string(local_prefix) + *name
                : migrate::EncodeMigratedUrl(record->location, self_,
                                             *name);
        chosen.emplace(*name, url);
        return url;
      });
  hist_html_parse_->Observe(rewritten.parse_micros);
  hist_html_reconstruct_->Observe(rewritten.reconstruct_micros);
  ctr_regenerations_->Increment();
  return std::move(rewritten.html);
}

Result<storage::DocumentPtr> Server::RegenerateDocument(
    const std::string& path) {
  DCWS_ASSIGN_OR_RETURN(storage::DocumentPtr stored, store_.Get(path));
  if (stored->is_html()) {
    // Local links take the plain site-absolute form (restoring any
    // earlier co-op rewrite).  Stored versions are immutable: the edit
    // is a new version, built from a copy of the old one's metadata,
    // and served as stored.
    stored = store_.Put(storage::Document{
        stored->path, RewriteInternalLinks(*stored, ""),
        stored->content_type});
  }
  DCWS_RETURN_IF_ERROR(ldg_.SetDirty(path, false));
  return stored;
}

Result<storage::DocumentPtr> Server::RenderForTransfer(
    const std::string& path) {
  DCWS_ASSIGN_OR_RETURN(storage::DocumentPtr stored, store_.Get(path));
  if (!stored->is_html()) return stored;

  // Every internal link becomes absolute at its current location, so the
  // copy served by the co-op resolves references back to the cluster
  // instead of into the co-op's own namespace.  That includes the page's
  // link to itself: RegenerateDocument writes it site-absolute, which on
  // the co-op would name a path the co-op does not serve.  A transfer
  // rendering is not stored; only the response holds it.
  return std::make_shared<const storage::Document>(storage::Document{
      stored->path,
      RewriteInternalLinks(*stored, "http://" + self_.ToString()),
      stored->content_type});
}

// ---------------------------------------------------------------------
// Piggybacking
// ---------------------------------------------------------------------

void Server::AttachPiggyback(http::HeaderMap& headers) {
  glt_.Update(self_, LoadMetric(), clock_->Now());
  load::AttachLoadInfo(glt_, self_, clock_->Now(), headers);
}

void Server::AbsorbPiggyback(const http::HeaderMap& headers) {
  auto sender = load::AbsorbLoadInfo(headers, clock_->Now(), glt_);
  if (sender.has_value()) {
    pinger_.RecordProbeResult(*sender, true);
    ctr_piggyback_absorbs_->Increment();
  }
}

Result<http::Response> Server::InternalCall(
    PeerClient* peers, const http::ServerAddress& target,
    http::Request request) {
  if (peers == nullptr) {
    return Status::Unavailable("no peer transport configured");
  }
  AttachPiggyback(request.headers);
  auto response = peers->Execute(target, request);
  if (response.ok()) {
    AbsorbPiggyback(response->headers);
  }
  return response;
}

// ---------------------------------------------------------------------
// Periodic duties
// ---------------------------------------------------------------------

void Server::SetPacing(MicroTime stats_interval,
                       MicroTime migration_interval,
                       MicroTime coop_accept_interval) {
  MutexLock duty_lock(duty_mutex_);
  params_.stats_interval = stats_interval;
  home_policy_.set_pacing(migration_interval, coop_accept_interval);
}

void Server::Tick(PeerClient* peers) {
  // The history decision (pacing state) lives under duty_mutex_, but the
  // sample itself runs after the lock is released: Registry::Snapshot
  // evaluates callback gauges under the registry lock, and nothing that
  // heavy belongs inside the duty lock.
  bool history_due = false;
  {
    MutexLock duty_lock(duty_mutex_);
    MicroTime now = clock_->Now();
    if (last_stats_ < 0) {
      // First tick: anchor all timers; duties start one interval later.
      // History takes sample zero immediately, so a ring observed after
      // one further interval already shows a trend.
      last_stats_ = now;
      last_validation_ = now;
      last_ping_ = now;
      if (params_.history_interval > 0) {
        last_history_ = now;
        history_due = true;
      }
    } else {
      if (now - last_stats_ >= params_.stats_interval) {
        last_stats_ = now;
        RunStatistics(peers, now);
      }
      MicroTime validation_check =
          std::max<MicroTime>(params_.validation_interval / 4,
                              kMicrosPerSecond);
      if (now - last_validation_ >= validation_check) {
        last_validation_ = now;
        RunValidationSweep(peers, now);
      }
      if (now - last_ping_ >= params_.pinger_interval) {
        last_ping_ = now;
        RunPinger(peers, now);
      }
      if (params_.history_interval > 0 &&
          now - last_history_ >= params_.history_interval) {
        last_history_ = now;
        history_due = true;
      }
    }
  }
  if (history_due) SampleHistoryNow();
}

void Server::SampleHistoryNow() {
  history_.Sample(registry_.Snapshot(), clock_->Now());
}

void Server::RunStatistics(PeerClient* peers, MicroTime now) {
  double load = LoadMetric();
  glt_.Update(self_, load, now);

  std::vector<graph::LocalDocumentGraph::MigratedView> migrated =
      ldg_.MigratedSnapshot();
  std::vector<http::ServerAddress> down = pinger_.DownPeers();

  // Revocations: crashed co-ops and load-shifted placements (§4.5).
  for (const std::string& doc :
       home_policy_.DocsToRevoke(migrated, glt_, load, down, now)) {
    RecallDocument(doc, peers, down);
  }

  // At most one logical migration per statistics interval (§5.2).
  // (Selection views are only computed when a migration is even
  // possible; idle servers skip the scan.)
  std::optional<migrate::HomeMigrationPolicy::Decision> decision;
  if (load >= params_.min_load_cps) {
    decision = home_policy_.Decide(ldg_.SelectionSnapshot(), glt_, load,
                                   now, down);
  }
  if (decision.has_value()) {
    if (ldg_.SetLocation(decision->doc, decision->target).ok()) {
      home_policy_.RecordMigration(*decision, now);
      ctr_migrations_out_->Increment();
      DCWS_LOG(kInfo) << self_.ToString() << " migrates "
                      << decision->doc << " -> "
                      << decision->target.ToString();
    }
  }

  ldg_.ResetWindowHits();
}

void Server::RecallDocument(
    const std::string& doc, PeerClient* peers,
    const std::vector<http::ServerAddress>& skip_notify) {
  auto record = ldg_.Brief(doc);
  if (!record.ok()) return;
  http::ServerAddress coop = record->location;
  if (coop == self_) return;  // already home
  if (!ldg_.SetLocation(doc, self_).ok()) return;
  home_policy_.RecordRevocation(doc);
  ctr_revocations_->Increment();
  bool coop_unreachable =
      std::find(skip_notify.begin(), skip_notify.end(), coop) !=
      skip_notify.end();
  obs::Event event;
  event.type = obs::EventType::kRecall;
  event.doc = doc;
  event.peer = coop.ToString();
  event.detail = coop_unreachable
                     ? "co-op down or departing; document recalled home"
                     : "load-shift recall after T_home";
  journal_.Emit(std::move(event));
  if (coop_unreachable) return;
  // Tell the co-op; best effort.
  http::Request revoke;
  revoke.method = "GET";
  revoke.target =
      MigrateToRevokeTarget(migrate::EncodeMigratedTarget(self_, doc));
  revoke.headers.Set(std::string(http::kHeaderDcwsInternal), "revoke");
  (void)InternalCall(peers, coop, std::move(revoke));
}

void Server::ForgetPeer(const http::ServerAddress& peer,
                        PeerClient* peers) {
  MutexLock duty_lock(duty_mutex_);
  std::vector<http::ServerAddress> skip = pinger_.DownPeers();
  if (std::find(skip.begin(), skip.end(), peer) == skip.end()) {
    skip.push_back(peer);  // never notify the departing server itself
  }
  for (const graph::LocalDocumentGraph::MigratedView& record :
       ldg_.MigratedSnapshot()) {
    if (record.location == peer) {
      RecallDocument(record.name, peers, skip);
    }
  }
  glt_.RemovePeer(peer);
  pinger_.Forget(peer);
  DCWS_LOG(kInfo) << self_.ToString() << " forgets peer "
                  << peer.ToString();
}

void Server::RecallAll(PeerClient* peers) {
  MutexLock duty_lock(duty_mutex_);
  std::vector<http::ServerAddress> down = pinger_.DownPeers();
  for (const graph::LocalDocumentGraph::MigratedView& record :
       ldg_.MigratedSnapshot()) {
    RecallDocument(record.name, peers, down);
  }
}

void Server::RunValidationSweep(PeerClient* peers, MicroTime now) {
  for (const migrate::CoopHostTable::HostedDoc& doc :
       coop_table_.ValidationDue(now)) {
    FetchFromHome(peers, doc.target, doc.name, nullptr);
  }
}

void Server::RunPinger(PeerClient* peers, MicroTime now) {
  for (const http::ServerAddress& peer :
       pinger_.PeersToProbe(glt_, now)) {
    http::Request ping;
    ping.method = "GET";
    ping.target = std::string(kPingTarget);
    ping.headers.Set(std::string(http::kHeaderDcwsInternal), "ping");
    auto response = InternalCall(peers, peer, std::move(ping));
    pinger_.RecordProbeResult(peer, response.ok());
    ctr_pings_sent_->Increment();
  }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

void Server::CountConnection(uint64_t bytes) {
  MutexLock lock(window_mutex_);
  rate_window_.Record(clock_->Now(), bytes);
}

void Server::ObservePhases(const obs::Trace& trace) {
  for (const obs::PhaseSlice& slice : obs::AttributeTrace(trace)) {
    auto it = hist_phases_.find(slice.phase);
    obs::Histogram* hist =
        it != hist_phases_.end()
            ? it->second
            : registry_.GetHistogram("dcws_phase_latency_us",
                                     {{"phase", slice.phase}});
    hist->Observe(static_cast<uint64_t>(slice.micros));
  }
}

double Server::LoadMetric() const {
  MutexLock lock(window_mutex_);
  return rate_window_.Cps(clock_->Now());
}

double Server::BytesMetric() const {
  MutexLock lock(window_mutex_);
  return rate_window_.Bps(clock_->Now());
}

Server::Counters Server::counters() const {
  // Legacy aggregate view, now a read of the registry handles.
  Counters c;
  c.requests = ctr_client_requests_->Value();
  c.served_local = ctr_served_local_->Value();
  c.served_coop = ctr_served_coop_->Value();
  c.redirects = ctr_redirects_->Value();
  c.not_found = ctr_not_found_->Value();
  c.regenerations = ctr_regenerations_->Value();
  c.coop_fetches = ctr_coop_fetches_->Value();
  c.migrations = ctr_migrations_out_->Value();
  c.revocations = ctr_revocations_->Value();
  c.pings_sent = ctr_pings_sent_->Value();
  c.internal_requests = ctr_internal_requests_->Value();
  c.stale_serves = ctr_stale_serves_->Value();
  c.not_modified = ctr_not_modified_->Value();
  return c;
}

}  // namespace dcws::core
