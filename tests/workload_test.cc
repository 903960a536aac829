#include <gtest/gtest.h>

#include <set>

#include "src/core/cluster.h"
#include "src/workload/access_log.h"
#include "src/workload/browse.h"
#include "src/workload/site.h"

namespace dcws::workload {
namespace {

// Tolerance for matching the paper's published link/byte statistics.
constexpr double kTolerance = 0.06;

void ExpectNear(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, expected * kTolerance)
      << what << ": got " << actual << ", paper says " << expected;
}

// Every generated site must be internally consistent: entry points
// exist, link targets resolve to real documents.
void CheckConsistency(const SiteSpec& site) {
  std::set<std::string> paths;
  for (const auto& doc : site.documents) paths.insert(doc.path);
  EXPECT_EQ(paths.size(), site.documents.size()) << "duplicate paths";
  for (const auto& entry : site.entry_points) {
    EXPECT_TRUE(paths.contains(entry)) << "missing entry " << entry;
  }
  for (const auto& doc : site.documents) {
    if (!doc.is_html()) continue;
    for (const auto& link :
         html::ExtractLinks(doc.content, doc.path)) {
      if (link.external) continue;
      EXPECT_TRUE(paths.contains(link.resolved))
          << doc.path << " links to missing " << link.resolved;
    }
  }
}

TEST(DatasetTest, MapugMatchesPaperStatistics) {
  Rng rng(42);
  SiteSpec site = BuildMapug(rng);
  auto stats = site.ComputeStats();
  EXPECT_EQ(stats.documents, 1534u);       // exact
  ExpectNear(stats.links, 28998, "links");
  ExpectNear(stats.total_bytes, 5918.0 * 1024, "bytes");
  CheckConsistency(site);
}

TEST(DatasetTest, SblogMatchesPaperStatistics) {
  Rng rng(42);
  SiteSpec site = BuildSblog(rng);
  auto stats = site.ComputeStats();
  EXPECT_EQ(stats.documents, 402u);  // exact
  EXPECT_EQ(stats.images, 1u);       // "except for one JPEG image"
  ExpectNear(stats.links, 57531, "links");
  ExpectNear(stats.total_bytes, 8468.0 * 1024, "bytes");
  CheckConsistency(site);
}

TEST(DatasetTest, LodMatchesPaperStatistics) {
  Rng rng(42);
  SiteSpec site = BuildLod(rng);
  auto stats = site.ComputeStats();
  EXPECT_EQ(stats.documents, 349u);  // exact
  EXPECT_EQ(stats.images, 240u);     // exact
  ExpectNear(stats.links, 1433, "links");
  ExpectNear(stats.total_bytes, 750.0 * 1024, "bytes");
  CheckConsistency(site);

  // Bimodal image sizes around 1.5 KB / 3.5 KB.
  int small = 0, large = 0;
  for (const auto& doc : site.documents) {
    if (doc.is_html()) continue;
    if (doc.size() <= 2000) {
      ++small;
    } else {
      ++large;
    }
  }
  EXPECT_EQ(small, 120);
  EXPECT_EQ(large, 120);
}

TEST(DatasetTest, SequoiaMatchesPaperStatistics) {
  Rng rng(42);
  SiteSpec site = BuildSequoia(rng);
  auto stats = site.ComputeStats();
  EXPECT_EQ(stats.documents, 131u);  // 130 rasters + front page
  EXPECT_EQ(stats.images, 130u);
  EXPECT_EQ(stats.links, 130u);      // one hyperlink per raster
  for (const auto& doc : site.documents) {
    if (doc.is_html()) continue;
    EXPECT_GE(doc.size(), 1'000'000u);
    EXPECT_LE(doc.size(), 2'800'000u);
  }
  CheckConsistency(site);
}

TEST(DatasetTest, AverageSizeOrderingMatchesPaper) {
  // §5.3 "CPS vs. BPS": average document size decreases Sequoia > SBLog
  // > MAPUG > LOD, which drives the BPS/CPS orderings.
  Rng rng(7);
  double sequoia = BuildSequoia(rng).ComputeStats().avg_doc_bytes;
  double sblog = BuildSblog(rng).ComputeStats().avg_doc_bytes;
  double mapug = BuildMapug(rng).ComputeStats().avg_doc_bytes;
  double lod = BuildLod(rng).ComputeStats().avg_doc_bytes;
  EXPECT_GT(sequoia, sblog);
  EXPECT_GT(sblog, mapug);
  EXPECT_GT(mapug, lod);
}

TEST(DatasetTest, GenerationIsDeterministic) {
  Rng a(5), b(5);
  SiteSpec first = BuildLod(a);
  SiteSpec second = BuildLod(b);
  ASSERT_EQ(first.documents.size(), second.documents.size());
  for (size_t i = 0; i < first.documents.size(); ++i) {
    EXPECT_EQ(first.documents[i].path, second.documents[i].path);
    EXPECT_EQ(first.documents[i].content, second.documents[i].content);
  }
}

TEST(SyntheticTest, RespectsConfig) {
  SyntheticConfig config;
  config.pages = 20;
  config.images = 10;
  config.links_per_page = 5;
  config.images_per_page = 2;
  config.entry_points = 2;
  Rng rng(3);
  SiteSpec site = BuildSynthetic(config, rng);
  auto stats = site.ComputeStats();
  EXPECT_EQ(stats.documents, 30u);
  EXPECT_EQ(stats.images, 10u);
  EXPECT_EQ(stats.links, 20u * 7u);
  EXPECT_EQ(site.entry_points.size(), 2u);
  CheckConsistency(site);
}

TEST(SyntheticTest, SkewConcentratesLinks) {
  SyntheticConfig config;
  config.pages = 50;
  config.images = 0;
  config.images_per_page = 0;
  config.links_per_page = 10;
  config.popularity_skew = 1.2;
  Rng rng(9);
  SiteSpec site = BuildSynthetic(config, rng);
  // Count inbound links per page; page0 should dominate.
  std::map<std::string, int> inbound;
  for (const auto& doc : site.documents) {
    for (const auto& link : html::ExtractLinks(doc.content, doc.path)) {
      inbound[link.resolved] += 1;
    }
  }
  EXPECT_GT(inbound["/site/page0.html"], 500 / 50 * 3);
}

TEST(ContentHelpersTest, SizesAreExact) {
  Rng rng(11);
  EXPECT_EQ(FillerText(rng, 1000).size(), 1000u);
  EXPECT_EQ(BinaryBlob(rng, 12345).size(), 12345u);
  EXPECT_EQ(BinaryBlob(rng, 0).size(), 0u);
}

// ------------------------------------------------------------ access log

TEST(AccessLogTest, FormatParseRoundTrip) {
  AccessLogEntry entry;
  entry.client = "10.0.3.44";
  entry.path = "/lod/gallery2.html";
  entry.status = 200;
  entry.bytes = 2048;
  entry.timestamp = "05/Jul/1998:12:30:01 -0700";
  auto parsed = ParseClfLine(FormatClfLine(entry));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->client, entry.client);
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->path, entry.path);
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->bytes, 2048u);
  EXPECT_EQ(parsed->timestamp, entry.timestamp);
}

TEST(AccessLogTest, ParsesRealWorldShapes) {
  auto entry = ParseClfLine(
      "host.example.com - frank [10/Oct/1998:13:55:36 -0700] "
      "\"GET /apache_pb.gif HTTP/1.0\" 200 2326");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->client, "host.example.com");
  EXPECT_EQ(entry->path, "/apache_pb.gif");
  EXPECT_EQ(entry->bytes, 2326u);

  auto dashes = ParseClfLine(
      "1.2.3.4 - - [-] \"GET /x HTTP/1.0\" 304 -");
  ASSERT_TRUE(dashes.ok());
  EXPECT_EQ(dashes->status, 304);
  EXPECT_EQ(dashes->bytes, 0u);
}

TEST(AccessLogTest, RejectsGarbage) {
  EXPECT_FALSE(ParseClfLine("").ok());
  EXPECT_FALSE(ParseClfLine("no-request-field at all").ok());
  EXPECT_FALSE(ParseClfLine("h - - [] \"\" 200 1").ok());
  EXPECT_FALSE(
      ParseClfLine("h - - [] \"GET /x HTTP/1.0\" banana 1").ok());
}

TEST(AccessLogTest, ParseLogSkipsBadLines) {
  std::string text =
      "1.1.1.1 - - [-] \"GET /a HTTP/1.0\" 200 10\n"
      "garbage line\n"
      "\n"
      "2.2.2.2 - - [-] \"GET /b HTTP/1.0\" 404 -\n";
  ParsedLog parsed = ParseClfLog(text);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.skipped, 1u);
}

TEST(AccessLogTest, SynthesizedLogIsSkewedAndValid) {
  Rng rng(13);
  SiteSpec site = BuildLod(rng);
  auto entries = SynthesizeLog(site, 3000, /*skew=*/1.0, rng);
  ASSERT_EQ(entries.size(), 3000u);

  std::set<std::string> paths;
  for (const auto& doc : site.documents) paths.insert(doc.path);
  std::map<std::string, int> counts;
  for (const auto& entry : entries) {
    EXPECT_TRUE(paths.contains(entry.path)) << entry.path;
    counts[entry.path] += 1;
    // Round-trips through the text format.
    EXPECT_TRUE(ParseClfLine(FormatClfLine(entry)).ok());
  }
  int max_count = 0;
  for (const auto& [path, count] : counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(max_count, 3000 / 349 * 4) << "Zipf skew expected";
}

TEST(AccessLogTest, ServerSinkWritesClf) {
  ManualClock clock(Seconds(1));
  core::ServerParams params;
  core::Cluster cluster(1, params, &clock);
  Rng rng(3);
  SiteSpec site = BuildLod(rng);
  ASSERT_TRUE(cluster.server(0)
                  .LoadSite(site.documents, site.entry_points)
                  .ok());
  std::vector<std::string> lines;
  cluster.server(0).SetAccessLogSink(
      [&lines](const std::string& line) { lines.push_back(line); });

  http::Request req;
  req.target = "/lod/index.html";
  req.headers.Set(std::string(http::kHeaderHost), "client.example:80");
  cluster.server(0).HandleRequest(req, &cluster.network());

  ASSERT_EQ(lines.size(), 1u);
  auto parsed = ParseClfLine(lines[0]);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  EXPECT_EQ(parsed->path, "/lod/index.html");
  EXPECT_EQ(parsed->status, 200);
  EXPECT_GT(parsed->bytes, 0u);
}

// ------------------------------------------------------- browsing client

// Fetcher wired to a loopback cluster.
class ClusterFetcher : public Fetcher {
 public:
  explicit ClusterFetcher(core::LoopbackNetwork* net) : net_(net) {}
  Result<http::Response> Fetch(const http::Url& url) override {
    http::Request req;
    req.method = "GET";
    req.target = url.path;
    req.headers.Set(std::string(http::kHeaderHost), url.Authority());
    return net_->Execute({url.host, url.port}, req);
  }

 private:
  core::LoopbackNetwork* net_;
};

class BrowseTest : public ::testing::Test {
 protected:
  BrowseTest() : clock_(Seconds(1)) {
    core::ServerParams params;
    params.hit_threshold = 1;
    cluster_ = std::make_unique<core::Cluster>(2, params, &clock_);
    Rng rng(17);
    site_ = BuildLod(rng);
    EXPECT_TRUE(cluster_->server(0)
                    .LoadSite(site_.documents, site_.entry_points)
                    .ok());
    cluster_->TickAll();  // anchor periodic-duty timers
  }

  std::vector<http::Url> Entries() {
    std::vector<http::Url> urls;
    for (const auto& path : site_.entry_points) {
      urls.push_back(http::Url{cluster_->server(0).address().host,
                               cluster_->server(0).address().port, path});
    }
    return urls;
  }

  ManualClock clock_;
  std::unique_ptr<core::Cluster> cluster_;
  SiteSpec site_;
};

TEST_F(BrowseTest, WalksTraverseTheSite) {
  ClusterFetcher fetcher(&cluster_->network());
  BrowsingClient client(Entries(), /*seed=*/99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(client.RunWalk(fetcher));
  }
  const BrowseStats& stats = client.stats();
  EXPECT_EQ(stats.walks, 20u);
  EXPECT_GT(stats.steps, 20u);     // most walks take several steps
  EXPECT_GT(stats.requests, stats.steps);  // images add requests
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.cache_hits, 0u);  // nav/nav images repeat within walks
}

TEST_F(BrowseTest, FollowsRedirectsAfterMigration) {
  ClusterFetcher fetcher(&cluster_->network());
  // Force a migration of a gallery page by hammering it.
  core::Server& home = cluster_->server(0);
  http::Request req;
  req.target = "/lod/gallery0.html";
  for (int i = 0; i < 100; ++i) home.HandleRequest(req, &cluster_->network());
  // Exactly one stats interval later the demand is still inside the load
  // window, so the statistics run sees it and migrates.
  clock_.Advance(Seconds(10));
  cluster_->TickAll();

  bool something_migrated = false;
  for (const auto& record : home.ldg().Snapshot()) {
    if (!(record.location == home.address())) something_migrated = true;
  }
  ASSERT_TRUE(something_migrated);

  BrowsingClient client(Entries(), 123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(client.RunWalk(fetcher));
  }
  EXPECT_EQ(client.stats().failures, 0u);
  // Either pages were regenerated to point at the co-op directly, or the
  // walk hit stale paths and followed 301s; both must work.
  core::Server& coop = cluster_->server(1);
  EXPECT_GT(coop.counters().served_coop + client.stats().redirects, 0u);
}

TEST(BrowseHelpersTest, FollowableVsEmbedded) {
  http::Url page{"h", 80, "/dir/p.html"};
  std::string html =
      "<a href=\"x.html\">x</a><img src=\"i.gif\">"
      "<a href=\"http://other:81/~migrate/h/80/y.html\">y</a>"
      "<img src=\"i.gif\">";
  PageLinks classified = ClassifyLinks(html, page);
  const std::vector<http::Url>& links = classified.hyperlinks;
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].ToString(), "http://h:80/dir/x.html");
  EXPECT_EQ(links[1].host, "other");
  // A repeated image is fetched once.
  ASSERT_EQ(classified.images.size(), 1u);
  EXPECT_EQ(classified.images[0].path, "/dir/i.gif");

  Rng rng(1);
  EXPECT_FALSE(PickRandom({}, rng).has_value());
  EXPECT_TRUE(PickRandom(links, rng).has_value());
}

}  // namespace
}  // namespace dcws::workload
