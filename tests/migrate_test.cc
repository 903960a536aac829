#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/migrate/coop_table.h"
#include "src/migrate/home_policy.h"
#include "src/migrate/naming.h"
#include "src/migrate/selection.h"

namespace dcws::migrate {
namespace {

using graph::DocumentRecord;
using http::ServerAddress;

const ServerAddress kHome{"home", 8001};
const ServerAddress kCoop1{"coop1", 8002};
const ServerAddress kCoop2{"coop2", 8003};

// ---------------------------------------------------------------- naming

TEST(NamingTest, EncodeMatchesPaperConvention) {
  // Paper §3.4: http://c:cp/~migrate/h/hp/dir1/dir2/.../foo.html
  EXPECT_EQ(EncodeMigratedTarget({"h_name", 8080}, "/dir1/dir2/foo.html"),
            "/~migrate/h_name/8080/dir1/dir2/foo.html");
  EXPECT_EQ(
      EncodeMigratedUrl({"c_name", 81}, {"h_name", 8080}, "/foo.html"),
      "http://c_name:81/~migrate/h_name/8080/foo.html");
}

TEST(NamingTest, DecodeRecoversOriginal) {
  auto decoded =
      DecodeMigratedTarget("/~migrate/h_name/8080/dir1/foo.html");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->home.host, "h_name");
  EXPECT_EQ(decoded->home.port, 8080);
  EXPECT_EQ(decoded->doc_path, "/dir1/foo.html");
}

TEST(NamingTest, EncodeDecodeIsInverse) {
  const std::string paths[] = {"/a.html", "/x/y/z.gif", "/deep/1/2/3/4.html"};
  for (const std::string& path : paths) {
    auto decoded = DecodeMigratedTarget(EncodeMigratedTarget(kHome, path));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->home, kHome);
    EXPECT_EQ(decoded->doc_path, path);
  }
}

TEST(NamingTest, IsMigratedTarget) {
  EXPECT_TRUE(IsMigratedTarget("/~migrate/h/80/x.html"));
  EXPECT_FALSE(IsMigratedTarget("/x.html"));
  EXPECT_FALSE(IsMigratedTarget("/migrate/h/80/x.html"));
}

TEST(NamingTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(DecodeMigratedTarget("/x.html").ok());
  EXPECT_FALSE(DecodeMigratedTarget("/~migrate/h").ok());
  EXPECT_FALSE(DecodeMigratedTarget("/~migrate/h/notaport/x.html").ok());
  EXPECT_FALSE(DecodeMigratedTarget("/~migrate/h/0/x.html").ok());
  EXPECT_FALSE(DecodeMigratedTarget("/~migrate/h/80/").ok());
  EXPECT_FALSE(DecodeMigratedTarget("/~migrate//80/x.html").ok());
}

// ------------------------------------------------------------- selection

DocumentRecord Rec(std::string name, uint64_t hits,
                   std::vector<std::string> link_to = {},
                   std::vector<std::string> link_from = {},
                   bool entry = false,
                   ServerAddress location = kHome) {
  DocumentRecord r;
  r.name = std::move(name);
  r.window_hits = hits;
  r.total_hits = hits;
  r.link_to = std::move(link_to);
  r.link_from = std::move(link_from);
  r.entry_point = entry;
  r.location = location;
  r.is_html = true;
  return r;
}

TEST(SelectionTest, SkipsEntryPointsAndMigrated) {
  std::vector<DocumentRecord> records = {
      Rec("/index.html", 1000, {}, {}, /*entry=*/true),
      Rec("/gone.html", 500, {}, {}, false, kCoop1),
      Rec("/pick.html", 100),
  };
  auto pick = SelectDocumentForMigration(records, kHome, {});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, "/pick.html");
}

TEST(SelectionTest, NothingEligibleReturnsNullopt) {
  std::vector<DocumentRecord> records = {
      Rec("/index.html", 1000, {}, {}, true),
      Rec("/away.html", 10, {}, {}, false, kCoop1),
  };
  EXPECT_FALSE(
      SelectDocumentForMigration(records, kHome, {}).has_value());
  EXPECT_FALSE(SelectDocumentForMigration({}, kHome, {}).has_value());
}

TEST(SelectionTest, ThresholdFiltersColdDocuments) {
  std::vector<DocumentRecord> records = {
      Rec("/cold.html", 1),
      Rec("/hot.html", 100),
  };
  SelectionConfig config;
  config.hit_threshold = 50;
  auto pick = SelectDocumentForMigration(records, kHome, config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, "/hot.html");
}

TEST(SelectionTest, ThresholdRelaxesUntilNonEmpty) {
  // All documents colder than T: step 3 halves T until one qualifies.
  std::vector<DocumentRecord> records = {
      Rec("/a.html", 3),
      Rec("/b.html", 1),
  };
  SelectionConfig config;
  config.hit_threshold = 1000;
  auto pick = SelectDocumentForMigration(records, kHome, config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, "/a.html");  // hits 3 passes once T drops to <= 3
}

TEST(SelectionTest, PrefersFewestRemoteLinkFrom) {
  // /x is linked from a migrated doc (remote update cost); /y only from
  // local docs — step 4 must prefer /y.
  std::vector<DocumentRecord> records = {
      Rec("/away.html", 0, {"/x.html"}, {}, false, kCoop1),
      Rec("/local.html", 0, {"/y.html"}, {}),
      Rec("/x.html", 50, {}, {"/away.html"}),
      Rec("/y.html", 50, {}, {"/local.html"}),
  };
  SelectionConfig config;
  config.hit_threshold = 10;
  auto pick = SelectDocumentForMigration(records, kHome, config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, "/y.html");
}

TEST(SelectionTest, TiePrefersFewestLinkTo) {
  std::vector<DocumentRecord> records = {
      Rec("/many.html", 50, {"/a.html", "/b.html"}),
      Rec("/few.html", 50, {"/a.html"}),
      Rec("/a.html", 0),
      Rec("/b.html", 0),
  };
  SelectionConfig config;
  config.hit_threshold = 50;
  auto pick = SelectDocumentForMigration(records, kHome, config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, "/few.html");
}

TEST(SelectionTest, FinalTieBreaksOnName) {
  std::vector<DocumentRecord> records = {
      Rec("/b.html", 50),
      Rec("/a.html", 50),
  };
  SelectionConfig config;
  config.hit_threshold = 1;
  EXPECT_EQ(SelectDocumentForMigration(records, kHome, config).value(),
            "/a.html");
}

// ----------------------------------------------------------- home policy

class HomePolicyTest : public ::testing::Test {
 protected:
  HomeMigrationPolicy::Config Config() {
    HomeMigrationPolicy::Config config;
    config.migration_interval = Seconds(10);
    config.coop_accept_interval = Seconds(60);
    config.remigrate_interval = Seconds(300);
    config.selection.hit_threshold = 1;
    config.imbalance_factor = 1.25;
    config.min_load_cps = 1.0;
    return config;
  }

  std::vector<DocumentRecord> HotSite() {
    return {Rec("/index.html", 100, {}, {}, true),
            Rec("/a.html", 50), Rec("/b.html", 40)};
  }

  // Re-seeds the fixture's GLT (GlobalLoadTable is non-copyable).
  load::GlobalLoadTable& MakeGlt(double home_load, double c1, double c2) {
    glt_ = std::make_unique<load::GlobalLoadTable>();
    glt_->Update(kHome, home_load, Seconds(1));
    glt_->Update(kCoop1, c1, Seconds(1));
    glt_->Update(kCoop2, c2, Seconds(1));
    return *glt_;
  }

  std::unique_ptr<load::GlobalLoadTable> glt_;
};

TEST_F(HomePolicyTest, MigratesToLeastLoadedWhenImbalanced) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(100, 5, 2);
  auto decision =
      policy.Decide(HotSite(), glt, /*own_load=*/100, Seconds(20));
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->target, kCoop2);
  EXPECT_EQ(decision->doc, "/a.html");  // fewest link_to ties on name
}

TEST_F(HomePolicyTest, NoMigrationWhenBalanced) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(10, 9, 9);
  EXPECT_FALSE(
      policy.Decide(HotSite(), glt, 10, Seconds(20)).has_value());
}

TEST_F(HomePolicyTest, NoMigrationWhenIdle) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(0.5, 0, 0);
  EXPECT_FALSE(
      policy.Decide(HotSite(), glt, 0.5, Seconds(20)).has_value());
}

TEST_F(HomePolicyTest, RateLimitedPerInterval) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(100, 0, 0);
  auto first = policy.Decide(HotSite(), glt, 100, Seconds(20));
  ASSERT_TRUE(first.has_value());
  policy.RecordMigration(*first, Seconds(20));
  // 5 s later: still inside the migration interval.
  EXPECT_FALSE(
      policy.Decide(HotSite(), glt, 100, Seconds(25)).has_value());
  // 10 s later: allowed again.
  EXPECT_TRUE(
      policy.Decide(HotSite(), glt, 100, Seconds(30)).has_value());
}

TEST_F(HomePolicyTest, CoopCooldownRedirectsToNextCandidate) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(100, 5, 2);
  auto first = policy.Decide(HotSite(), glt, 100, Seconds(20));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->target, kCoop2);
  policy.RecordMigration(*first, Seconds(20));

  // Next interval: kCoop2 is cooling down (T_coop=60s), so kCoop1 wins.
  auto second = policy.Decide(HotSite(), glt, 100, Seconds(31));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->target, kCoop1);
}

TEST_F(HomePolicyTest, RevokesPlacementsOnDownPeers) {
  HomeMigrationPolicy policy(kHome, Config());
  std::vector<DocumentRecord> records = {
      Rec("/a.html", 10, {}, {}, false, kCoop1),
      Rec("/b.html", 10, {}, {}, false, kCoop2),
      Rec("/c.html", 10),
  };
  auto& glt = MakeGlt(10, 5, 5);
  auto revoke =
      policy.DocsToRevoke(records, glt, 10, {kCoop1}, Seconds(400));
  ASSERT_EQ(revoke.size(), 1u);
  EXPECT_EQ(revoke[0], "/a.html");
}

TEST_F(HomePolicyTest, RemigrationOnlyAfterTimeoutAndImbalance) {
  HomeMigrationPolicy policy(kHome, Config());
  auto& glt = MakeGlt(100, 0, 0);
  auto decision = policy.Decide(HotSite(), glt, 100, Seconds(20));
  ASSERT_TRUE(decision.has_value());
  policy.RecordMigration(*decision, Seconds(20));

  std::vector<DocumentRecord> after = HotSite();
  for (auto& r : after) {
    if (r.name == decision->doc) r.location = decision->target;
  }
  // Co-op becomes hammered: load 500 vs our 10.
  auto& hot_glt = MakeGlt(10, 0, 0);
  hot_glt.Update(decision->target, 500, Seconds(30));

  // Before T_home: no revocation.
  EXPECT_TRUE(
      policy.DocsToRevoke(after, hot_glt, 10, {}, Seconds(100)).empty());
  // After T_home (placement at 20 s + 300 s): eligible.
  auto revoke = policy.DocsToRevoke(after, hot_glt, 10, {}, Seconds(321));
  ASSERT_EQ(revoke.size(), 1u);
  EXPECT_EQ(revoke[0], decision->doc);
  policy.RecordRevocation(revoke[0]);
  EXPECT_EQ(policy.revocations(), 1u);
}

// ------------------------------------------------------------ coop table

TEST(CoopTableTest, FirstRequestNeedsFetch) {
  CoopHostTable table({Seconds(120)});
  MigratedName name{kHome, "/a.html"};
  std::string target = EncodeMigratedTarget(kHome, "/a.html");

  EXPECT_EQ(table.OnRequest(target, name, Seconds(1)),
            CoopHostTable::Action::kFetchFromHome);
  EXPECT_FALSE(table.IsHosted(target));
  table.MarkFetched(target, Seconds(1));
  EXPECT_TRUE(table.IsHosted(target));
  EXPECT_EQ(table.OnRequest(target, name, Seconds(2)),
            CoopHostTable::Action::kServeLocal);
  EXPECT_EQ(table.Get(target)->hits, 2u);
}

TEST(CoopTableTest, ValidationExpiresAfterInterval) {
  CoopHostTable table({Seconds(120)});
  MigratedName name{kHome, "/a.html"};
  std::string target = EncodeMigratedTarget(kHome, "/a.html");
  table.OnRequest(target, name, Seconds(1));
  table.MarkFetched(target, Seconds(1));

  EXPECT_EQ(table.OnRequest(target, name, Seconds(100)),
            CoopHostTable::Action::kServeLocal);
  EXPECT_EQ(table.OnRequest(target, name, Seconds(130)),
            CoopHostTable::Action::kFetchFromHome);

  auto due = table.ValidationDue(Seconds(130));
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].target, target);
  table.MarkFetched(target, Seconds(130));
  EXPECT_TRUE(table.ValidationDue(Seconds(131)).empty());
}

TEST(CoopTableTest, RevokeRemovesHosting) {
  CoopHostTable table({Seconds(120)});
  MigratedName name{kHome, "/a.html"};
  std::string target = EncodeMigratedTarget(kHome, "/a.html");
  table.OnRequest(target, name, Seconds(1));
  table.MarkFetched(target, Seconds(1));

  EXPECT_TRUE(table.Revoke(target));
  EXPECT_FALSE(table.IsHosted(target));
  EXPECT_FALSE(table.Revoke(target));  // already gone
  EXPECT_EQ(table.size(), 0u);
}

TEST(CoopTableTest, HomeServersDeduplicated) {
  CoopHostTable table({Seconds(120)});
  table.OnRequest(EncodeMigratedTarget(kHome, "/a.html"),
                  {kHome, "/a.html"}, Seconds(1));
  table.OnRequest(EncodeMigratedTarget(kHome, "/b.html"),
                  {kHome, "/b.html"}, Seconds(1));
  table.OnRequest(EncodeMigratedTarget(kCoop2, "/c.html"),
                  {kCoop2, "/c.html"}, Seconds(1));
  auto homes = table.HomeServers();
  ASSERT_EQ(homes.size(), 2u);
}

TEST(CoopTableTest, FailedFetchKeepsPending) {
  CoopHostTable table({Seconds(120)});
  MigratedName name{kHome, "/a.html"};
  std::string target = EncodeMigratedTarget(kHome, "/a.html");
  table.OnRequest(target, name, Seconds(1));
  table.MarkFetchFailed(target);
  EXPECT_FALSE(table.IsHosted(target));
  EXPECT_EQ(table.OnRequest(target, name, Seconds(2)),
            CoopHostTable::Action::kFetchFromHome);
}

}  // namespace
}  // namespace dcws::migrate
