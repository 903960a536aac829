// End-to-end integration properties of a full DCWS group under load:
// content fidelity through arbitrary migration states, consistency of
// author updates, crash/recovery, and whole-cluster invariants.

#include <gtest/gtest.h>

#include <set>

#include "src/core/cluster.h"
#include "src/html/rewriter.h"
#include "src/migrate/naming.h"
#include "src/obs/trace.h"
#include "src/workload/browse.h"
#include "src/workload/site.h"

namespace dcws {
namespace {

using core::Cluster;
using core::Server;
using core::ServerParams;

http::Request Get(const std::string& target) {
  http::Request req;
  req.target = target;
  return req;
}

ServerParams Params() {
  ServerParams params;
  params.hit_threshold = 1;
  params.min_load_cps = 1.0;
  return params;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : clock_(Seconds(1)) {
    workload::SyntheticConfig config;
    config.pages = 40;
    config.images = 20;
    config.links_per_page = 6;
    config.images_per_page = 2;
    config.page_bytes = 1500;
    config.image_bytes = 800;
    Rng rng(77);
    site_ = workload::BuildSynthetic(config, rng);
    cluster_ = std::make_unique<Cluster>(4, Params(), &clock_);
    EXPECT_TRUE(
        home().LoadSite(site_.documents, site_.entry_points).ok());
    cluster_->TickAll();
  }

  Server& home() { return cluster_->server(0); }
  core::LoopbackNetwork& net() { return cluster_->network(); }

  // Runs load + periodic duties for `rounds` statistics intervals.
  void Churn(int rounds, uint64_t seed) {
    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < 120; ++i) {
        const auto& doc =
            site_.documents[rng.NextBelow(site_.documents.size())];
        FetchFollowingRedirects(doc.path);
      }
      clock_.Advance(Seconds(10));
      cluster_->TickAll();
    }
  }

  // Client-style fetch: ask home, follow up to 3 redirects.
  http::Response FetchFollowingRedirects(const std::string& path) {
    http::Response resp = home().HandleRequest(Get(path), &net());
    for (int hops = 0; resp.status_code == 301 && hops < 3; ++hops) {
      auto location = resp.headers.Get("Location");
      if (!location.has_value()) break;
      auto url = http::Url::Parse(std::string(*location));
      if (!url.ok()) break;
      Server* host = net().Find({url->host, url->port});
      if (host == nullptr) break;
      resp = host->HandleRequest(Get(url->path), &net());
    }
    return resp;
  }

  // Strips link rewrites so content can be compared with the original:
  // any absolute URL pointing into the cluster is reduced to its plain
  // document path.
  std::string CanonicalizeLinks(std::string_view html,
                                const std::string& base_path) {
    auto result = html::RewriteLinks(
        html, base_path,
        [&](const html::LinkOccurrence& link)
            -> std::optional<std::string> {
          std::string resolved = link.resolved;
          if (http::IsAbsoluteUrl(resolved)) {
            auto url = http::Url::Parse(resolved);
            if (!url.ok()) return std::nullopt;
            resolved = url->path;
            if (migrate::IsMigratedTarget(resolved)) {
              auto decoded = migrate::DecodeMigratedTarget(resolved);
              if (!decoded.ok()) return std::nullopt;
              resolved = decoded->doc_path;
            }
          }
          return resolved;
        });
    return result.html;
  }

  ManualClock clock_;
  workload::SiteSpec site_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(IntegrationTest, ContentSurvivesArbitraryMigrationStates) {
  Churn(12, 1001);
  EXPECT_GT(home().counters().migrations, 3u);

  // Every document must be fetchable and, modulo rewritten hyperlinks,
  // byte-identical to the authored content.
  for (const auto& doc : site_.documents) {
    http::Response resp = FetchFollowingRedirects(doc.path);
    ASSERT_EQ(resp.status_code, 200) << doc.path;
    if (doc.is_html()) {
      EXPECT_EQ(CanonicalizeLinks(resp.entity(), doc.path),
                CanonicalizeLinks(doc.content, doc.path))
          << doc.path;
    } else {
      EXPECT_EQ(resp.entity(), doc.content) << doc.path;
    }
  }
}

TEST_F(IntegrationTest, EntryPointsNeverMigrate) {
  Churn(15, 1002);
  for (const auto& entry : site_.entry_points) {
    auto record = home().ldg().Lookup(entry);
    ASSERT_TRUE(record.ok());
    EXPECT_TRUE(record->location == home().address()) << entry;
  }
}

TEST_F(IntegrationTest, LocationsAlwaysNameRealServers) {
  Churn(10, 1003);
  std::set<std::string> valid;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    valid.insert(cluster_->server(i).address().ToString());
  }
  for (const auto& record : home().ldg().Snapshot()) {
    EXPECT_TRUE(valid.contains(record.location.ToString()))
        << record.name << " at " << record.location.ToString();
  }
}

TEST_F(IntegrationTest, AuthorUpdatePropagatesWithinValidation) {
  Churn(10, 1004);
  // Pick a migrated HTML document and update its content at home.
  std::string victim;
  for (const auto& record : home().ldg().Snapshot()) {
    if (!(record.location == home().address()) && record.is_html) {
      victim = record.name;
      break;
    }
  }
  if (victim.empty()) GTEST_SKIP() << "nothing migrated";

  storage::Document update;
  update.path = victim;
  update.content = "<p>editorial correction v2</p>";
  update.content_type = "text/html";
  ASSERT_TRUE(home().PutDocument(update).ok());

  // Stale for at most T_val: advance past it, run the sweeps, and the
  // co-op copy must match.
  clock_.Advance(home().params().validation_interval + Seconds(2));
  cluster_->TickAll();

  http::Response resp = FetchFollowingRedirects(victim);
  ASSERT_EQ(resp.status_code, 200);
  EXPECT_NE(resp.entity().find("editorial correction v2"), std::string::npos)
      << resp.entity();
}

TEST_F(IntegrationTest, CrashRecoveryRestoresFullService) {
  Churn(12, 1005);
  // Crash the co-op hosting the most documents.
  std::map<std::string, int> held;
  for (const auto& record : home().ldg().Snapshot()) {
    if (!(record.location == home().address())) {
      held[record.location.ToString()] += 1;
    }
  }
  if (held.empty()) GTEST_SKIP() << "nothing migrated";
  std::string busiest = held.begin()->first;
  for (const auto& [address, count] : held) {
    if (count > held[busiest]) busiest = address;
  }
  auto addr = http::ServerAddress::Parse(busiest);
  ASSERT_TRUE(addr.ok());
  net().SetDown(*addr, true);

  // Pinger declares it down (3 failures at T_pi = 20 s), statistics
  // recall its documents.
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(Seconds(21));
    cluster_->TickAll();
  }
  EXPECT_GE(home().counters().revocations, 1u);

  // Full catalogue reachable again without touching the dead server.
  for (const auto& doc : site_.documents) {
    http::Response resp = FetchFollowingRedirects(doc.path);
    EXPECT_EQ(resp.status_code, 200) << doc.path;
  }
  for (const auto& record : home().ldg().Snapshot()) {
    EXPECT_FALSE(record.location == *addr)
        << record.name << " still assigned to crashed " << busiest;
  }
}

TEST_F(IntegrationTest, BrowsingClientNeverFailsThroughChurn) {
  // A browsing client interleaved with migration churn, including one
  // crash + recovery cycle, must complete every walk.
  class Fetcher : public workload::Fetcher {
   public:
    explicit Fetcher(core::LoopbackNetwork* net) : net_(net) {}
    Result<http::Response> Fetch(const http::Url& url) override {
      http::Request req;
      req.target = url.path;
      return net_->Execute({url.host, url.port}, req);
    }
    core::LoopbackNetwork* net_;
  };

  Fetcher fetcher(&net());
  workload::BrowsingClient client(
      {http::Url{home().address().host, home().address().port,
                 site_.entry_points[0]}},
      99);
  for (int round = 0; round < 12; ++round) {
    for (int walk = 0; walk < 10; ++walk) client.RunWalk(fetcher);
    clock_.Advance(Seconds(10));
    cluster_->TickAll();
  }
  EXPECT_EQ(client.stats().failures, 0u);
  EXPECT_GT(client.stats().steps, 100u);
}

TEST_F(IntegrationTest, CoopFetchSharesOneTraceIdAcrossServers) {
  // Build demand for one non-entry document WITHOUT following the
  // redirect, so after migration the co-op has control but no bytes and
  // the first real fetch triggers fetch-from-home.
  std::string victim;
  for (const auto& doc : site_.documents) {
    bool is_entry = false;
    for (const auto& entry : site_.entry_points) {
      if (entry == doc.path) is_entry = true;
    }
    if (!is_entry) {
      victim = doc.path;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());

  http::ServerAddress location = home().address();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      home().HandleRequest(Get(victim), &net());
    }
    clock_.Advance(Seconds(10));
    cluster_->TickAll();
    auto record = home().ldg().Lookup(victim);
    ASSERT_TRUE(record.ok());
    location = record->location;
    if (!(location == home().address())) break;
  }
  if (location == home().address()) GTEST_SKIP() << "never migrated";
  Server* coop = net().Find(location);
  ASSERT_NE(coop, nullptr);

  // First client fetch through the redirect: the co-op must go back to
  // the home server for the bytes, carrying the client request's trace
  // id in X-DCWS-Trace.
  http::Response resp = FetchFollowingRedirects(victim);
  ASSERT_EQ(resp.status_code, 200);

  obs::TraceId shared_id = 0;
  for (const obs::Trace& trace : coop->recent_traces().Snapshot()) {
    for (const obs::Span& span : trace.spans) {
      if (span.name == "coop_fetch") shared_id = trace.id;
    }
  }
  ASSERT_NE(shared_id, 0u) << "co-op never recorded a coop_fetch span";

  // The home server recorded the internal fetch under the SAME id,
  // marked as propagated — the two span trees join on it.
  bool joined = false;
  for (const obs::Trace& trace : home().recent_traces().Snapshot()) {
    if (trace.id == shared_id) {
      EXPECT_TRUE(trace.propagated);
      EXPECT_TRUE(trace.internal);
      joined = true;
    }
  }
  EXPECT_TRUE(joined) << "home has no trace with id "
                      << obs::FormatTraceId(shared_id);

  // Both servers' /.dcws/traces expose the id.
  std::string wire_id = obs::FormatTraceId(shared_id);
  http::Response home_traces =
      home().HandleRequest(Get("/.dcws/traces"), &net());
  http::Response coop_traces =
      coop->HandleRequest(Get("/.dcws/traces"), &net());
  EXPECT_NE(home_traces.body.find(wire_id), std::string::npos);
  EXPECT_NE(coop_traces.body.find(wire_id), std::string::npos);
}

}  // namespace
}  // namespace dcws
