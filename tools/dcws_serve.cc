// dcws_serve: run a real DCWS server group over TCP from a document
// root on disk.
//
//   dcws_serve DOCROOT [--servers N] [--entry /index.html]
//              [--duration SECONDS] [--stats-interval SECONDS]
//              [--port BASE] [--status-interval SECONDS]
//
// Binds every server to a 127.0.0.1 port (printed on startup) — with
// --port BASE, server i listens on BASE+i, otherwise ports are
// ephemeral.  Server 1 is the home seeded from DOCROOT, the rest start
// as empty co-ops.  Point a browser or curl at the home port;
// /.dcws/status shows the metric registry (?format=text|json|prometheus;
// the text format ends with the GLT rows), /.dcws/traces recent request span
// trees (with per-phase attribution), /.dcws/history the sampled
// metric rings and /.dcws/profile folded stacks (DCWS_PROFILE=1).
// With --status-interval N, a one-line cluster summary (cps, p99
// latency, migrations, a cps sparkline) is printed every N seconds —
// the history sampler runs on the same cadence.  Runs until the
// duration elapses (default: forever).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/obs/export.h"
#include "src/obs/history.h"
#include "src/storage/fs.h"

using namespace dcws;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: dcws_serve DOCROOT [--servers N] [--entry PATH]\n"
      "                  [--duration SECONDS] [--stats-interval SECONDS]\n"
      "                  [--port BASE] [--status-interval SECONDS]\n");
  return 2;
}

// One-line cluster summary from the merged metric registries.
void PrintStatusLine(
    const std::vector<std::unique_ptr<dcws::core::Server>>& group,
    long uptime_s) {
  std::vector<std::vector<obs::MetricSnapshot>> per_server;
  per_server.reserve(group.size());
  for (const auto& server : group) {
    per_server.push_back(server->metrics().Snapshot());
  }
  std::vector<obs::MetricSnapshot> merged =
      obs::MergeSnapshots(per_server);
  double cps = 0, p99 = 0;
  unsigned long long served = 0, redirects = 0, migrations = 0;
  if (const auto* m = obs::FindMetric(merged, "dcws_load_cps")) {
    cps = m->value;
  }
  if (const auto* m = obs::FindMetric(merged, "dcws_request_latency_us",
                                      {{"kind", "client"}})) {
    p99 = m->hist.Percentile(0.99);
  }
  if (const auto* m = obs::FindMetric(merged, "dcws_requests_total",
                                      {{"outcome", "served_local"}})) {
    served += static_cast<unsigned long long>(m->value);
  }
  if (const auto* m = obs::FindMetric(merged, "dcws_requests_total",
                                      {{"outcome", "served_coop"}})) {
    served += static_cast<unsigned long long>(m->value);
  }
  if (const auto* m = obs::FindMetric(merged, "dcws_requests_total",
                                      {{"outcome", "redirect"}})) {
    redirects = static_cast<unsigned long long>(m->value);
  }
  if (const auto* m = obs::FindMetric(merged, "dcws_migrations_total",
                                      {{"direction", "out"}})) {
    migrations = static_cast<unsigned long long>(m->value);
  }
  // Home-server cps trend from the metric-history ring (the same series
  // GET /.dcws/history serves).
  std::string spark;
  std::vector<obs::HistorySeries> history =
      group[0]->history().Snapshot("dcws_load_cps");
  if (!history.empty() && !history[0].samples.empty()) {
    std::vector<double> values;
    values.reserve(history[0].samples.size());
    for (const metrics::Sample& s : history[0].samples) {
      values.push_back(s.value);
    }
    spark = obs::Sparkline(values, 16);
  }
  std::printf(
      "[stats +%lds] cps=%.1f p99=%.0fus served=%llu redirects=%llu "
      "migrations=%llu %s\n",
      uptime_s, cps, p99, served, redirects, migrations, spark.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string docroot = argv[1];
  int servers = 2;
  std::string entry = "/index.html";
  long duration = 0;  // 0 = run until signal
  long stats_interval = 10;
  long base_port = 0;       // 0 = ephemeral
  long status_interval = 0;  // 0 = no periodic stats line
  for (int i = 2; i < argc; ++i) {
    auto next = [&](long& out) {
      if (i + 1 >= argc) return false;
      out = std::strtol(argv[++i], nullptr, 10);
      return true;
    };
    long value = 0;
    if (!std::strcmp(argv[i], "--servers") && next(value)) {
      servers = static_cast<int>(value);
    } else if (!std::strcmp(argv[i], "--entry") && i + 1 < argc) {
      entry = argv[++i];
    } else if (!std::strcmp(argv[i], "--duration") && next(value)) {
      duration = value;
    } else if (!std::strcmp(argv[i], "--stats-interval") && next(value)) {
      stats_interval = value;
    } else if (!std::strcmp(argv[i], "--port") && next(value)) {
      base_port = value;
    } else if (!std::strcmp(argv[i], "--status-interval") &&
               next(value)) {
      status_interval = value;
    } else {
      return Usage();
    }
  }
  if (servers < 1) return Usage();
  if (base_port < 0 || base_port + servers > 65536) return Usage();

  auto documents = storage::LoadDirectory(docroot);
  if (!documents.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 documents.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu documents from %s\n", documents->size(),
              docroot.c_str());

  core::ServerParams params;
  params.stats_interval = Seconds(static_cast<double>(stats_interval));
  params.load_window = params.stats_interval;
  params.hit_threshold = 2;
  if (status_interval > 0) {
    // Metric-history samples on the same cadence as the status line, so
    // the printed sparkline and GET /.dcws/history agree.
    params.history_interval =
        Seconds(static_cast<double>(status_interval));
  }

  WallClock clock;
  std::vector<std::unique_ptr<core::Server>> group;
  for (int i = 0; i < servers; ++i) {
    http::ServerAddress address{"dcws" + std::to_string(i + 1),
                                static_cast<uint16_t>(8001 + i)};
    group.push_back(
        std::make_unique<core::Server>(address, params, &clock));
  }
  for (auto& a : group) {
    for (auto& b : group) {
      if (a != b) a->RegisterPeer(b->address());
    }
  }

  std::vector<std::string> entries;
  bool have_entry = false;
  for (const auto& doc : *documents) {
    if (doc.path == entry) have_entry = true;
  }
  if (have_entry) entries.push_back(entry);
  if (Status s = group[0]->LoadSite(*documents, entries); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!have_entry) {
    std::printf("note: %s not found; no pinned entry points\n",
                entry.c_str());
  }

  net::TcpNetwork network;
  for (size_t i = 0; i < group.size(); ++i) {
    uint16_t listen_port =
        base_port == 0 ? 0 : static_cast<uint16_t>(base_port + i);
    auto host = network.AddServer(group[i].get(), listen_port);
    if (!host.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   host.status().ToString().c_str());
      return 1;
    }
    std::printf("%s server %s on http://127.0.0.1:%u/\n",
                i == 0 ? "home " : "co-op",
                group[i]->address().ToString().c_str(),
                (*host)->port());
  }
  std::printf("try: curl http://127.0.0.1:%u%s  (and /.dcws/status)\n",
              network.Resolve(group[0]->address()),
              have_entry ? entry.c_str() : "/");

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  long elapsed_ms = 0;
  long next_status_ms = status_interval * 1000;
  while (!g_stop && (duration == 0 || elapsed_ms < duration * 1000)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    elapsed_ms += 100;
    if (status_interval > 0 && elapsed_ms >= next_status_ms) {
      PrintStatusLine(group, elapsed_ms / 1000);
      next_status_ms += status_interval * 1000;
    }
  }

  auto counters = group[0]->counters();
  std::printf("\nshutting down: %llu requests served at home, "
              "%llu migrations\n",
              (unsigned long long)counters.requests,
              (unsigned long long)counters.migrations);
  network.StopAll();
  return 0;
}
