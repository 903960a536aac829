// Quickstart: build a three-server DCWS group on loopback TCP in this
// process, point a browsing client at it, overload the home server, and
// watch a document migrate — links rewritten, stale URLs redirected —
// all through the public API.  Exits 1 if any client request failed.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <thread>

#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/workload/browse.h"

using namespace dcws;

int main() {
  // 1. Three cooperating servers.  Short intervals so the demo converges
  //    in seconds (production values are in Table 1 / ServerParams).
  core::ServerParams params;
  params.stats_interval = Millis(300);
  params.load_window = Millis(300);
  params.pinger_interval = Millis(600);
  params.hit_threshold = 1;
  params.min_load_cps = 5;

  WallClock clock;
  core::Server home({"alpha", 8001}, params, &clock);
  core::Server coop1({"beta", 8002}, params, &clock);
  core::Server coop2({"gamma", 8003}, params, &clock);
  for (core::Server* a : {&home, &coop1, &coop2}) {
    for (core::Server* b : {&home, &coop1, &coop2}) {
      if (a != b) a->RegisterPeer(b->address());
    }
  }

  // 2. Seed the home server with a small site.  /index.html is the
  //    well-known entry point and will never migrate.
  std::vector<storage::Document> site;
  auto add = [&site](std::string path, std::string content) {
    storage::Document doc;
    doc.path = std::move(path);
    doc.content = std::move(content);
    doc.content_type = storage::GuessContentType(doc.path);
    site.push_back(std::move(doc));
  };
  add("/index.html",
      "<h1>Tiny site</h1><a href=\"article.html\">article</a> "
      "<a href=\"gallery.html\">gallery</a>");
  add("/article.html",
      "<p>long read</p><img src=\"photo.gif\">"
      "<a href=\"index.html\">home</a>");
  add("/gallery.html", "<img src=\"photo.gif\"><img src=\"photo.gif\">");
  add("/photo.gif", std::string(4000, 'P'));
  if (Status s = home.LoadSite(site, {"/index.html"}); !s.ok()) {
    std::printf("LoadSite failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto stats = home.ldg().GetStats();
  std::printf("home LDG: %zu documents, %zu links, %zu entry points\n",
              stats.documents, stats.links, stats.entry_points);

  // 3. One TCP host per server on an ephemeral 127.0.0.1 port: 12
  //    worker threads that accept their own connections, a front-end
  //    thread and a statistics/pinger duty thread each.
  net::TcpNetwork network;
  for (core::Server* server : {&home, &coop1, &coop2}) {
    if (auto host = network.AddServer(server); !host.ok()) {
      std::printf("AddServer failed: %s\n",
                  host.status().ToString().c_str());
      return 1;
    }
  }

  // 4. Browse hard enough that the home server wants help.
  net::TcpFetcher fetcher(&network);
  workload::BrowsingClient client(
      {http::Url{"alpha", 8001, "/index.html"}}, /*seed=*/7);
  for (int i = 0; i < 400; ++i) client.RunWalk(fetcher);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  for (int i = 0; i < 200; ++i) client.RunWalk(fetcher);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // 5. What happened?
  auto counters = home.counters();
  std::printf("\nhome served %llu documents, migrated %llu, "
              "regenerated %llu pages\n",
              (unsigned long long)counters.served_local,
              (unsigned long long)counters.migrations,
              (unsigned long long)counters.regenerations);
  for (const auto& record : home.ldg().Snapshot()) {
    std::printf("  %-16s at %s%s\n", record.name.c_str(),
                record.location.ToString().c_str(),
                record.entry_point ? "  (entry point, pinned)" : "");
  }

  // 6. A stale bookmark to a migrated document gets a 301 to its new
  //    home; the regenerated index links there directly.
  for (const auto& record : home.ldg().Snapshot()) {
    if (record.location == home.address()) continue;
    http::Request stale;
    stale.target = record.name;
    http::Response redirect = home.HandleRequest(stale, &network);
    std::printf("\nGET %s at home -> %d %s\n", record.name.c_str(),
                redirect.status_code,
                std::string(http::ReasonPhrase(redirect.status_code))
                    .c_str());
    if (auto location = redirect.headers.Get("Location")) {
      std::printf("  Location: %s\n", std::string(*location).c_str());
    }
    break;
  }

  http::Request index;
  index.target = "/index.html";
  http::Response page = home.HandleRequest(index, &network);
  std::printf("\nregenerated /index.html:\n%.*s\n",
              static_cast<int>(page.entity().size()), page.entity().data());

  network.StopAll();
  uint64_t failures = client.stats().failures;
  std::printf("client failures: %llu\n", (unsigned long long)failures);
  std::printf("quickstart done.\n");
  return failures == 0 ? 0 : 1;
}
