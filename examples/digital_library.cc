// Digital library federation: two departmental archives (satellite
// rasters on one coast, a manuscript collection on the other) run
// independent DCWS servers that act as co-ops for each other — the
// paper's "fully symmetric" deployment (§3.3) and its closing example of
// federating geographically dispersed scientific archives (§6).
//
// When the raster archive takes a request surge, its documents migrate
// onto the manuscript server, and vice versa.  Each server is
// simultaneously a home and a co-op.  Exits 1 if any client request
// failed.
//
//   ./build/examples/digital_library

#include <cstdio>
#include <thread>

#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/workload/browse.h"
#include "src/workload/site.h"

using namespace dcws;

namespace {

std::vector<storage::Document> MakeArchive(const std::string& prefix,
                                           int items, uint64_t item_bytes,
                                           Rng& rng) {
  std::vector<storage::Document> docs;
  std::string index = "<h1>" + prefix + " archive</h1>\n";
  for (int i = 0; i < items; ++i) {
    std::string path =
        "/" + prefix + "/item" + std::to_string(i) + ".jpg";
    storage::Document item;
    item.path = path;
    item.content = workload::BinaryBlob(rng, item_bytes);
    item.content_type = "image/jpeg";
    docs.push_back(std::move(item));
    index += "<a href=\"item" + std::to_string(i) + ".jpg\">item " +
             std::to_string(i) + "</a>\n";
  }
  storage::Document front;
  front.path = "/" + prefix + "/index.html";
  front.content = std::move(index);
  front.content_type = "text/html";
  docs.push_back(std::move(front));
  return docs;
}

}  // namespace

int main() {
  core::ServerParams params;
  params.stats_interval = Millis(250);
  params.load_window = Millis(250);
  params.hit_threshold = 1;
  params.min_load_cps = 5;

  WallClock clock;
  core::Server west({"rasters.west", 8001}, params, &clock);
  core::Server east({"papers.east", 8001}, params, &clock);
  west.RegisterPeer(east.address());
  east.RegisterPeer(west.address());

  Rng rng(11);
  if (!west.LoadSite(MakeArchive("avhrr", 12, 30'000, rng),
                     {"/avhrr/index.html"})
           .ok() ||
      !east.LoadSite(MakeArchive("folios", 12, 30'000, rng),
                     {"/folios/index.html"})
           .ok()) {
    std::printf("site load failed\n");
    return 1;
  }
  std::printf("west hosts %zu documents, east hosts %zu\n",
              west.store().Count(), east.store().Count());

  net::TcpNetwork network;
  for (core::Server* server : {&west, &east}) {
    if (auto host = network.AddServer(server); !host.ok()) {
      std::printf("AddServer failed: %s\n",
                  host.status().ToString().c_str());
      return 1;
    }
  }
  net::TcpFetcher fetcher(&network);

  // Morning in the west: a surge on the raster archive.
  workload::BrowsingClient west_crowd(
      {http::Url{"rasters.west", 8001, "/avhrr/index.html"}}, 21);
  for (int i = 0; i < 300; ++i) west_crowd.RunWalk(fetcher);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  for (int i = 0; i < 150; ++i) west_crowd.RunWalk(fetcher);

  std::printf("\nafter the western surge:\n");
  std::printf("  west migrated %llu rasters to the east coast\n",
              (unsigned long long)west.counters().migrations);
  for (const auto& record : west.ldg().Snapshot()) {
    if (!(record.location == west.address())) {
      std::printf("    %s -> %s\n", record.name.c_str(),
                  record.location.ToString().c_str());
    }
  }

  // Evening: the surge moves to the manuscript collection.
  workload::BrowsingClient east_crowd(
      {http::Url{"papers.east", 8001, "/folios/index.html"}}, 22);
  for (int i = 0; i < 300; ++i) east_crowd.RunWalk(fetcher);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  for (int i = 0; i < 150; ++i) east_crowd.RunWalk(fetcher);

  std::printf("\nafter the eastern surge:\n");
  std::printf("  east migrated %llu folios to the west coast\n",
              (unsigned long long)east.counters().migrations);
  std::printf("  east also serves %zu western documents as a co-op\n",
              east.coop_table().size());
  std::printf("  west also serves %zu eastern documents as a co-op\n",
              west.coop_table().size());

  auto wc = west.counters();
  auto ec = east.counters();
  std::printf("\ntotals: west %llu requests (%llu as co-op), east %llu "
              "requests (%llu as co-op)\n",
              (unsigned long long)wc.requests,
              (unsigned long long)wc.served_coop,
              (unsigned long long)ec.requests,
              (unsigned long long)ec.served_coop);
  uint64_t west_failures = west_crowd.stats().failures;
  uint64_t east_failures = east_crowd.stats().failures;
  std::printf("client failures: %llu + %llu\n",
              (unsigned long long)west_failures,
              (unsigned long long)east_failures);

  network.StopAll();
  std::printf("digital_library done.\n");
  return west_failures + east_failures == 0 ? 0 : 1;
}
