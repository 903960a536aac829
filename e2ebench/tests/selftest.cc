// Self-tests of the e2e benchmark: its generator against
// workload::BrowsingClient, its content check, and the reconciliation
// between what its users observe and what the servers count.
//
//   python3 e2ebench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "e2ebench/src/content_check.h"
#include "e2ebench/src/group.h"
#include "e2ebench/src/layers.h"
#include "e2ebench/src/walker.h"
#include "src/core/cluster.h"
#include "src/workload/browse.h"

namespace dcws::e2e {
namespace {

// Loopback-cluster fetcher that records every URL it is asked for.
class RecordingFetcher : public workload::Fetcher {
 public:
  explicit RecordingFetcher(core::LoopbackNetwork* network)
      : network_(network) {}
  Result<http::Response> Fetch(const http::Url& url) override {
    urls.push_back(url.ToString());
    http::Request request;
    request.target = url.path;
    request.headers.Set(std::string(http::kHeaderHost), url.Authority());
    return network_->Execute({url.host, url.port}, request);
  }
  std::vector<std::string> urls;

 private:
  core::LoopbackNetwork* network_;
};

std::vector<http::ServerAddress> Addresses(core::Cluster& cluster) {
  std::vector<http::ServerAddress> out;
  for (size_t i = 0; i < cluster.size(); ++i) {
    out.push_back(cluster.server(i).address());
  }
  return out;
}

std::vector<http::Url> Entries(const workload::SiteSpec& site,
                               const http::ServerAddress& home) {
  std::vector<http::Url> urls;
  for (const std::string& path : site.entry_points) {
    urls.push_back({home.host, home.port, path});
  }
  return urls;
}

TEST(WalkerTest, RequestsTheSameUrlsAsBrowsingClient) {
  ManualClock clock(Seconds(1));
  core::ServerParams params = bench::PaperParams();
  core::Cluster cluster(4, params, &clock, "dcws");
  Rng site_rng(7);
  workload::SiteSpec site = workload::BuildLod(site_rng);
  ASSERT_TRUE(cluster.server(0).LoadSite(site.documents, site.entry_points)
                  .ok());
  cluster.TickAll();
  const http::ServerAddress home = cluster.server(0).address();

  // Spread some documents first, so walks meet 301s and co-op copies.
  RecordingFetcher warm(&cluster.network());
  workload::BrowsingClient warmer(Entries(site, home), 1);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) warmer.RunWalk(warm);
    clock.Advance(params.stats_interval);
    cluster.TickAll();
  }
  ASSERT_GT(cluster.server(0).counters().migrations, 0u);

  RecordingFetcher reference(&cluster.network());
  workload::BrowsingClient client(Entries(site, home), 42);
  for (int i = 0; i < 40; ++i) client.RunWalk(reference);

  RecordingFetcher ours(&cluster.network());
  ContentCheck check(site, home, Addresses(cluster));
  UserStats stats;
  Walker walker(Entries(site, home), 42, &check, &stats);
  for (int i = 0; i < 40; ++i) walker.RunWalk(ours);

  ASSERT_GT(reference.urls.size(), 200u);
  EXPECT_EQ(ours.urls, reference.urls);
  // Part of the walk is served by co-ops.
  EXPECT_TRUE(std::any_of(
      ours.urls.begin(), ours.urls.end(), [](const std::string& url) {
        return url.find("/~migrate/") != std::string::npos;
      }));
  EXPECT_EQ(stats.connections.size(), ours.urls.size());
  EXPECT_EQ(stats.content_errors, 0u);
  EXPECT_EQ(stats.bad_status, 0u);
  EXPECT_GT(stats.memo_hits, 0u);
}

class ContentCheckTest : public ::testing::Test {
 protected:
  ContentCheckTest() {
    site_.documents.push_back(
        {"/a.html", "<a href=\"a.html\">me</a><img src=\"i.gif\">",
         "text/html"});
    site_.documents.push_back({"/i.gif", "GIFBYTES", "image/gif"});
    site_.entry_points = {"/a.html"};
  }
  const http::ServerAddress home_{"dcws1", 8001};
  const http::ServerAddress coop_{"dcws2", 8002};
  workload::SiteSpec site_;
};

TEST_F(ContentCheckTest, BytesMustMatchTheGeneratedDocument) {
  ContentCheck check(site_, home_, {home_, coop_});
  EXPECT_TRUE(check.CheckBytes("/i.gif", "GIFBYTES"));
  EXPECT_FALSE(check.CheckBytes("/i.gif", "GIFBYTEZ"));
  EXPECT_FALSE(check.CheckBytes("/missing.gif", ""));
}

TEST_F(ContentCheckTest, LinksMustMapBackToTheSourceTargets) {
  ContentCheck check(site_, home_, {home_, coop_});
  http::Url at_home{"dcws1", 8001, "/a.html"};
  http::Url at_coop{"dcws2", 8002, "/~migrate/dcws1/8001/a.html"};
  auto links = [](const char* html, const http::Url& at) {
    return html::ExtractLinks(html, at.path);
  };
  // Source page at the home; rewritten links at the home and the co-op.
  EXPECT_TRUE(check.CheckLinks(
      "/a.html", links("<a href=\"a.html\">me</a><img src=\"i.gif\">",
                       at_home),
      at_home));
  EXPECT_TRUE(check.CheckLinks(
      "/a.html",
      links("<a href=\"/a.html\">me</a>"
            "<img src=\"http://dcws2:8002/~migrate/dcws1/8001/i.gif\">",
            at_home),
      at_home));
  EXPECT_TRUE(check.CheckLinks(
      "/a.html",
      links("<a href=\"a.html\">me</a>"
            "<img src=\"http://dcws1:8001/i.gif\">",
            at_coop),
      at_coop));
  // A site-absolute link on the co-op's copy names the co-op's own
  // namespace, where the document does not exist.
  std::string why;
  EXPECT_FALSE(check.CheckLinks(
      "/a.html",
      links("<a href=\"/a.html\">me</a>"
            "<img src=\"http://dcws1:8001/i.gif\">",
            at_coop),
      at_coop, &why));
  EXPECT_NE(why.find("resolves outside the home"), std::string::npos) << why;
  // A link to the wrong document, or a missing link, fails too.
  EXPECT_FALSE(check.CheckLinks(
      "/a.html", links("<a href=\"b.html\">me</a><img src=\"i.gif\">",
                       at_home),
      at_home));
  EXPECT_FALSE(check.CheckLinks(
      "/a.html", links("<a href=\"a.html\">me</a>", at_home), at_home));
}

// The failure mapug_edit shows: a page regenerated at the home carries
// its self link as a site-absolute path; once the page migrates, the
// co-op's copy keeps that path, which resolves against the co-op.  The
// check must flag the copy exactly when following the link fails.
TEST_F(ContentCheckTest, FlagsACoopCopyExactlyWhenItsSelfLinkFails) {
  ManualClock clock(Seconds(1));
  core::Cluster cluster(2, bench::PaperParams(), &clock, "dcws");
  core::Server& home = cluster.server(0);
  ASSERT_TRUE(home.LoadSite(site_.documents, site_.entry_points).ok());
  // Migrating the image dirties the page; reading it regenerates it.
  ASSERT_TRUE(home.ldg().SetLocation("/i.gif", coop_).ok());
  RecordingFetcher fetcher(&cluster.network());
  auto regenerated = fetcher.Fetch({"dcws1", 8001, "/a.html"});
  ASSERT_TRUE(regenerated.ok());
  ASSERT_EQ(regenerated->status_code, 200);
  ASSERT_TRUE(home.ldg().SetLocation("/a.html", coop_).ok());

  http::Url at_coop{"dcws2", 8002, "/~migrate/dcws1/8001/a.html"};
  auto copy = fetcher.Fetch(at_coop);
  ASSERT_TRUE(copy.ok());
  ASSERT_EQ(copy->status_code, 200);
  ContentCheck check(site_, home_, {home_, coop_});
  std::vector<html::LinkOccurrence> links =
      html::ExtractLinks(copy->body, at_coop.path);
  bool ok = check.CheckLinks("/a.html", links, at_coop);

  // Follow the page's hyperlink the way a browser would.
  ASSERT_FALSE(links.empty());
  http::Url self = at_coop;
  if (links[0].external) {
    self = http::Url::Parse(links[0].resolved).value();
  } else {
    self.path = links[0].resolved;
  }
  auto followed = fetcher.Fetch(self);
  ASSERT_TRUE(followed.ok());
  bool link_works =
      followed->status_code == 200 || followed->status_code == 301;
  EXPECT_EQ(ok, link_works) << copy->body;
}

// Over a window with nothing in flight at its edges, the connections the
// users saw reach a server equal the servers' dcws_requests_total
// outcome family, and the phase slices sum to the request latency.
TEST(ReconcileTest, UsersAndServersAgreeOverAQuiescentWindow) {
  Rng site_rng(11);
  workload::SiteSpec site = workload::BuildLod(site_rng);
  WallClock clock;
  auto started =
      ServerGroup::Start(site, bench::PaperParams(), 4, &clock);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<ServerGroup> group = std::move(started).value();
  // Fast pacing, so documents migrate and co-ops fetch inside the test.
  group->SetPacing(Millis(50), Millis(50), Millis(100));
  std::vector<const core::Server*> servers;
  for (size_t i = 0; i < group->size(); ++i) {
    servers.push_back(&group->server(i));
  }
  ContentCheck check(site, group->home().address(), group->addresses());

  std::vector<Reading> before = ReadAll(servers);
  std::atomic<bool> stop{false};
  constexpr int kUsers = 2;
  UserStats stats[kUsers];
  std::vector<std::thread> users;
  for (int u = 0; u < kUsers; ++u) {
    users.emplace_back([&, u] {
      BodyPool pool;
      SocketFetcher fetcher(&group->network(), &pool, nullptr);
      Walker walker(group->EntryUrls(site), 100 + u, &check, &stats[u],
                    nullptr, &pool);
      while (!stop.load()) walker.RunWalk(fetcher);
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (std::thread& t : users) t.join();
  Window window(before, ReadAll(servers));

  uint64_t reached = 0, failed = 0;
  for (const UserStats& s : stats) {
    for (const Sample& c : s.connections) {
      reached += c.reached ? 1 : 0;
      failed += c.failed ? 1 : 0;
    }
  }
  ASSERT_GT(reached, 1000u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(static_cast<double>(reached), window.Outcomes());
  EXPECT_EQ(window.PhaseSum(), window.LatencySum());
  EXPECT_GT(window.Delta(Key("dcws_migrations_total",
                             {{"direction", "out"}})),
            0);

  // The per-layer table's phase slices add up to the server time.
  std::vector<Metric> layers = LayerMetrics(window, reached);
  double phases = 0, latency = 0;
  for (const Metric& m : layers) {
    if (m.name == "net.queue_wait_us" || m.name == "net.read_parse_us" ||
        m.name == "core.handler_us" || m.name == "graph.ldg_lookup_us" ||
        m.name == "html.rewrite_us" || m.name == "migrate.coop_fetch_us" ||
        m.name == "migrate.render_transfer_us") {
      phases += m.value;
    }
  }
  latency = window.LatencySum() / static_cast<double>(reached);
  EXPECT_NEAR(phases, latency, 1e-6 * latency);
}

}  // namespace
}  // namespace dcws::e2e
