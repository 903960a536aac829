// Access-log replay: the paper's future work notes "we have not used
// actual access logs for the experiments" (§6).  This example closes
// that loop: it synthesizes a Common-Log-Format access log for the LOD
// site (Zipf-skewed document popularity, the kind real logs exhibit),
// then replays it through a two-server DCWS group on loopback TCP and
// reports how the cluster redistributed the recorded load.  Exits 1 if
// any replayed request did not end in a 200.
//
//   ./build/examples/log_replay

#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/workload/access_log.h"
#include "src/workload/site.h"

using namespace dcws;

int main() {
  Rng rng(31);
  workload::SiteSpec site = workload::BuildLod(rng);

  // Synthesize a Zipf-skewed CLF log, serialize it, and parse it back —
  // the same round trip a real log file would take.
  std::string log_text;
  for (const auto& entry :
       workload::SynthesizeLog(site, 4000, /*skew=*/0.9, rng)) {
    log_text += workload::FormatClfLine(entry) + "\n";
  }
  workload::ParsedLog log = workload::ParseClfLog(log_text);
  std::printf("synthesized %zu access-log lines (%zu skipped); first:\n"
              "  %s\n",
              log.entries.size(), log.skipped,
              workload::FormatClfLine(log.entries[0]).c_str());

  core::ServerParams params;
  params.stats_interval = Millis(250);
  params.load_window = Millis(250);
  params.hit_threshold = 1;
  params.min_load_cps = 5;

  WallClock clock;
  core::Server home({"www", 8001}, params, &clock);
  core::Server coop({"helper", 8002}, params, &clock);
  home.RegisterPeer(coop.address());
  coop.RegisterPeer(home.address());
  if (!home.LoadSite(site.documents, site.entry_points).ok()) {
    std::printf("load failed\n");
    return 1;
  }

  net::TcpNetwork network;
  for (core::Server* server : {&home, &coop}) {
    if (auto host = network.AddServer(server); !host.ok()) {
      std::printf("AddServer failed: %s\n",
                  host.status().ToString().c_str());
      return 1;
    }
  }

  // The home server writes its own access log as it serves the replay.
  uint64_t logged_lines = 0;
  home.SetAccessLogSink(
      [&logged_lines](const std::string&) { logged_lines += 1; });

  // Replay.  Requests for migrated documents follow the 301 like a
  // browser would.
  uint64_t replayed = 0, redirected = 0, errors = 0;
  for (size_t i = 0; i < log.entries.size(); ++i) {
    const workload::AccessLogEntry& entry = log.entries[i];
    http::Request request;
    request.target = entry.path;
    auto response = network.Execute(home.address(), request);
    if (response.ok() && response->IsRedirect()) {
      redirected += 1;
      auto location = response->headers.Get("Location");
      if (location.has_value()) {
        auto url = http::Url::Parse(std::string(*location));
        if (url.ok()) {
          http::Request follow;
          follow.target = url->path;
          response = network.Execute({url->host, url->port}, follow);
        }
      }
    }
    if (!response.ok() || response->status_code != 200) errors += 1;
    replayed += 1;
    if (i == log.entries.size() / 2) {
      // Give the statistics thread a beat mid-replay.
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  }

  auto home_counters = home.counters();
  auto coop_counters = coop.counters();
  std::printf("\nreplayed %llu requests: %llu redirected to the co-op, "
              "%llu errors\n",
              (unsigned long long)replayed,
              (unsigned long long)redirected,
              (unsigned long long)errors);
  std::printf("home: served %llu, migrated %llu documents\n",
              (unsigned long long)home_counters.served_local,
              (unsigned long long)home_counters.migrations);
  std::printf("co-op: served %llu migrated documents (%zu hosted)\n",
              (unsigned long long)coop_counters.served_coop,
              coop.coop_table().size());
  std::printf("home wrote %llu access-log lines of its own\n",
              (unsigned long long)logged_lines);

  network.StopAll();
  std::printf("log_replay done.\n");
  return errors == 0 ? 0 : 1;
}
