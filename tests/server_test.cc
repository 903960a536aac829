#include <gtest/gtest.h>

#include <string>

#include "src/core/cluster.h"
#include "src/core/server.h"
#include "src/html/links.h"
#include "src/http/url.h"
#include "src/migrate/naming.h"
#include "src/obs/export.h"
#include "src/obs/history.h"
#include "src/obs/trace.h"
#include "src/util/clock.h"

namespace dcws::core {
namespace {

using http::Request;
using http::Response;
using storage::Document;

Request Get(const std::string& target) {
  Request req;
  req.method = "GET";
  req.target = target;
  return req;
}

Document Doc(std::string path, std::string content) {
  Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

ServerParams TestParams() {
  ServerParams params;
  params.stats_interval = Seconds(10);
  params.load_window = Seconds(10);
  params.pinger_interval = Seconds(20);
  params.validation_interval = Seconds(120);
  params.remigrate_interval = Seconds(300);
  params.coop_accept_interval = Seconds(60);
  params.selection.hit_threshold = 1;
  params.min_load_cps = 1.0;
  return params;
}

// Three-server cluster; server 1 is seeded as the home of a small site.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : clock_(Seconds(1)), cluster_(3, TestParams(), &clock_) {
    std::vector<Document> site = {
        Doc("/index.html",
            "<a href=\"a.html\">a</a><a href=\"b.html\">b</a>"),
        Doc("/a.html", "<img src=\"pic.gif\"><a href=\"b.html\">b</a>"),
        Doc("/b.html", "<p>leaf b</p>"),
        Doc("/pic.gif", std::string(500, 'G')),
    };
    EXPECT_TRUE(home().LoadSite(site, {"/index.html"}).ok());
    // Anchor periodic-duty timers.
    cluster_.TickAll();
  }

  Server& home() { return cluster_.server(0); }
  Server& coop1() { return cluster_.server(1); }
  Server& coop2() { return cluster_.server(2); }
  LoopbackNetwork& net() { return cluster_.network(); }

  // Generates demand at the home server.
  void Hammer(const std::string& target, int count) {
    for (int i = 0; i < count; ++i) {
      home().HandleRequest(Get(target), &net());
    }
  }

  // Advances time and runs periodic duties on every server.
  void AdvanceAndTick(MicroTime dt) {
    clock_.Advance(dt);
    cluster_.TickAll();
  }

  // Drives the home server until it migrates one document; returns its
  // name.
  std::string ForceOneMigration() {
    Hammer("/a.html", 50);
    Hammer("/b.html", 30);
    AdvanceAndTick(Seconds(10));
    EXPECT_EQ(home().counters().migrations, 1u);
    for (const auto& record : home().ldg().Snapshot()) {
      if (!(record.location == home().address())) return record.name;
    }
    ADD_FAILURE() << "no migrated document found";
    return "";
  }

  ManualClock clock_;
  Cluster cluster_;
};

TEST_F(ServerTest, ServesLocalDocument) {
  Response resp = home().HandleRequest(Get("/b.html"), &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.entity(), "<p>leaf b</p>");
  EXPECT_EQ(resp.headers.Get("Content-Type").value(), "text/html");
  EXPECT_EQ(home().counters().served_local, 1u);
}

TEST_F(ServerTest, RootMapsToIndex) {
  Response resp = home().HandleRequest(Get("/"), &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_NE(resp.entity().find("a.html"), std::string::npos);
}

TEST_F(ServerTest, UnknownIs404) {
  Response resp = home().HandleRequest(Get("/ghost.html"), &net());
  EXPECT_EQ(resp.status_code, 404);
  EXPECT_EQ(home().counters().not_found, 1u);
}

TEST_F(ServerTest, MigrationHappensUnderLoad) {
  std::string doc = ForceOneMigration();
  EXPECT_FALSE(doc.empty());
  // Entry point must never migrate.
  EXPECT_NE(doc, "/index.html");
  auto record = home().ldg().Lookup(doc);
  ASSERT_TRUE(record.ok());
  EXPECT_FALSE(record->location == home().address());
}

TEST_F(ServerTest, NoMigrationWithoutLoad) {
  AdvanceAndTick(Seconds(10));
  AdvanceAndTick(Seconds(10));
  EXPECT_EQ(home().counters().migrations, 0u);
}

TEST_F(ServerTest, MigratedDocumentRedirects) {
  std::string doc = ForceOneMigration();
  Response resp = home().HandleRequest(Get(doc), &net());
  EXPECT_EQ(resp.status_code, 301);
  auto location = resp.headers.Get("Location");
  ASSERT_TRUE(location.has_value());
  EXPECT_NE(location->find("/~migrate/" + home().address().host),
            std::string::npos);
  EXPECT_GE(home().counters().redirects, 1u);
}

TEST_F(ServerTest, LinkFromPagesRegenerateWithNewUrls) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  ASSERT_TRUE(record.ok());
  ASSERT_FALSE(record->link_from.empty());
  std::string parent = record->link_from[0];

  uint64_t regens_before = home().counters().regenerations;
  Response resp = home().HandleRequest(Get(parent), &net());
  EXPECT_EQ(resp.status_code, 200);
  std::string expected = migrate::EncodeMigratedUrl(
      record->location, home().address(), doc);
  EXPECT_NE(resp.entity().find(expected), std::string::npos)
      << "parent page should link to " << expected << "; got\n"
      << resp.entity();
  EXPECT_EQ(home().counters().regenerations, regens_before + 1);

  // Second request: already clean, no further reconstruction.
  home().HandleRequest(Get(parent), &net());
  EXPECT_EQ(home().counters().regenerations, regens_before + 1);
}

TEST_F(ServerTest, CoopFetchesOnFirstRequestThenServesLocally) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  ASSERT_NE(coop, nullptr);

  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  Response first = coop->HandleRequest(Get(target), &net());
  EXPECT_EQ(first.status_code, 200);
  EXPECT_EQ(coop->counters().coop_fetches, 1u);
  EXPECT_EQ(coop->counters().served_coop, 1u);

  Response second = coop->HandleRequest(Get(target), &net());
  EXPECT_EQ(second.status_code, 200);
  EXPECT_EQ(coop->counters().coop_fetches, 1u);  // no refetch
  EXPECT_EQ(second.entity(), first.entity());
}

TEST_F(ServerTest, TransferredHtmlHasAbsoluteLinks) {
  // Migrate /a.html specifically by hammering only it.
  Hammer("/a.html", 80);
  AdvanceAndTick(Seconds(10));
  auto record = home().ldg().Lookup("/a.html");
  ASSERT_TRUE(record.ok());
  if (record->location == home().address()) {
    GTEST_SKIP() << "selection picked a different document";
  }
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), "/a.html");
  Response resp = coop->HandleRequest(Get(target), &net());
  ASSERT_EQ(resp.status_code, 200);
  // Links inside the migrated copy must be absolute (resolve back to the
  // cluster, not into the co-op's own namespace).
  EXPECT_EQ(resp.entity().find("src=\"pic.gif\""), std::string::npos);
  EXPECT_NE(resp.entity().find("http://"), std::string::npos);
}

TEST_F(ServerTest, PiggybackSpreadsLoadInfo) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  coop->HandleRequest(Get(target), &net());

  // The fetch round-trip carried load info both ways.
  auto home_seen_by_coop = coop->glt().Get(home().address());
  ASSERT_TRUE(home_seen_by_coop.ok());
  EXPECT_GE(home_seen_by_coop->updated_at, 0);
  auto coop_seen_by_home = home().glt().Get(coop->address());
  ASSERT_TRUE(coop_seen_by_home.ok());
  EXPECT_GE(coop_seen_by_home->updated_at, 0);
}

TEST_F(ServerTest, ValidationRefetchesAfterInterval) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  coop->HandleRequest(Get(target), &net());
  ASSERT_EQ(coop->counters().coop_fetches, 1u);

  // Before T_val: sweep does nothing.
  AdvanceAndTick(Seconds(40));
  EXPECT_EQ(coop->counters().coop_fetches, 1u);
  // After T_val (120 s): proactive revalidation fires.
  AdvanceAndTick(Seconds(100));
  EXPECT_EQ(coop->counters().coop_fetches, 2u);
}

TEST_F(ServerTest, PingerProbesSilentPeers) {
  AdvanceAndTick(Seconds(21));
  EXPECT_GT(home().counters().pings_sent, 0u);
  // Probes carried piggybacked info: peers are now fresh.
  auto entry = home().glt().Get(coop1().address());
  ASSERT_TRUE(entry.ok());
  EXPECT_GE(entry->updated_at, 0);
}

TEST_F(ServerTest, CrashedCoopDocumentsAreRecalled) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  http::ServerAddress coop_addr = record->location;

  net().SetDown(coop_addr, true);
  // Three failed pinger rounds (T_pi = 20 s) declare the peer down; the
  // next statistics run recalls its documents.
  for (int i = 0; i < 4; ++i) AdvanceAndTick(Seconds(21));

  auto after = home().ldg().Lookup(doc);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->location == home().address())
      << "document should be recalled from crashed co-op";
  EXPECT_GE(home().counters().revocations, 1u);

  // Home serves it again directly.
  Response resp = home().HandleRequest(Get(doc), &net());
  EXPECT_EQ(resp.status_code, 200);
}

TEST_F(ServerTest, RegeneratedPagePointsHomeAfterRevocation) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  ASSERT_FALSE(record->link_from.empty());
  std::string parent = record->link_from[0];
  // Regenerate the parent with the co-op URL in place.
  home().HandleRequest(Get(parent), &net());

  net().SetDown(record->location, true);
  for (int i = 0; i < 4; ++i) AdvanceAndTick(Seconds(21));
  ASSERT_TRUE(home().ldg().Lookup(doc)->location == home().address());

  Response resp = home().HandleRequest(Get(parent), &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.entity().find("~migrate"), std::string::npos)
      << "links must point home again: " << resp.entity();
}

TEST_F(ServerTest, StaleMigrateTargetNamingSelfRedirectsHome) {
  Response resp = home().HandleRequest(
      Get(migrate::EncodeMigratedTarget(home().address(), "/b.html")),
      &net());
  EXPECT_EQ(resp.status_code, 301);
  EXPECT_EQ(resp.headers.Get("Location").value(),
            "http://" + home().address().ToString() + "/b.html");
}

TEST_F(ServerTest, RevokeRequestRemovesHosting) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  coop->HandleRequest(Get(target), &net());
  ASSERT_TRUE(coop->coop_table().IsHosted(target));

  Request revoke = Get("/~revoke/" + home().address().host + "/" +
                       std::to_string(home().address().port) + doc);
  revoke.headers.Set(std::string(http::kHeaderDcwsInternal), "revoke");
  Response resp = coop->HandleRequest(revoke, &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_FALSE(coop->coop_table().IsHosted(target));
}

TEST_F(ServerTest, CoopServesStaleCopyWhenHomeDown) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  Response first = coop->HandleRequest(Get(target), &net());
  ASSERT_EQ(first.status_code, 200);

  // Home crashes; validation comes due; the co-op must keep serving its
  // copy rather than failing (§4.5 best-effort).
  net().SetDown(home().address(), true);
  clock_.Advance(Seconds(130));
  Response resp = coop->HandleRequest(Get(target), &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.entity(), first.entity());
  EXPECT_GE(coop->counters().stale_serves, 1u);
}

TEST_F(ServerTest, NeverFetchedAndHomeDownIs503) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  net().SetDown(home().address(), true);
  Response resp = coop->HandleRequest(
      Get(migrate::EncodeMigratedTarget(home().address(), doc)), &net());
  EXPECT_EQ(resp.status_code, 503);
}

TEST_F(ServerTest, PutDocumentUpdatesGraphAndDirtiness) {
  // Author edits /b.html to add a link to /a.html.
  ASSERT_TRUE(
      home().PutDocument(Doc("/b.html", "<a href=\"a.html\">a</a>")).ok());
  auto b = home().ldg().Lookup("/b.html");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->dirty);
  ASSERT_EQ(b->link_to.size(), 1u);
  EXPECT_EQ(b->link_to[0], "/a.html");

  // New document shows up in the graph.
  ASSERT_TRUE(
      home().PutDocument(Doc("/new.html", "<a href=\"b.html\">b</a>")).ok());
  EXPECT_TRUE(home().ldg().Contains("/new.html"));
  Response resp = home().HandleRequest(Get("/new.html"), &net());
  EXPECT_EQ(resp.status_code, 200);
}

TEST_F(ServerTest, InternalFetchNotCountedAsClientDemand) {
  double before = home().LoadMetric();
  Request fetch = Get("/b.html");
  fetch.headers.Set(std::string(http::kHeaderDcwsInternal), "fetch");
  Response resp = home().HandleRequest(fetch, &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(home().LoadMetric(), before);
  EXPECT_GE(home().counters().internal_requests, 1u);
}

TEST_F(ServerTest, HeadReturnsHeadersOnly) {
  Request head = Get("/b.html");
  head.method = "HEAD";
  Response resp = home().HandleRequest(head, &net());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_TRUE(resp.entity().empty());
  // Content-Length advertises what GET would carry.
  Response get = home().HandleRequest(Get("/b.html"), &net());
  EXPECT_EQ(resp.headers.Get("Content-Length").value(),
            std::to_string(get.entity().size()));
  EXPECT_EQ(resp.headers.Get("Content-Type").value(), "text/html");
}

TEST_F(ServerTest, HeadOnMigratedDocumentRedirects) {
  std::string doc = ForceOneMigration();
  Request head = Get(doc);
  head.method = "HEAD";
  Response resp = home().HandleRequest(head, &net());
  EXPECT_EQ(resp.status_code, 301);
  EXPECT_TRUE(resp.headers.Has("Location"));
}

TEST_F(ServerTest, ConditionalValidationAnswers304) {
  std::string doc = ForceOneMigration();
  auto record = home().ldg().Lookup(doc);
  Server* coop = net().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home().address(), doc);
  Response first = coop->HandleRequest(Get(target), &net());
  ASSERT_EQ(first.status_code, 200);

  // Internal fetches carry an ETag.
  Request fetch = Get(doc);
  fetch.headers.Set(std::string(http::kHeaderDcwsInternal), "fetch");
  Response full = home().HandleRequest(fetch, &net());
  ASSERT_EQ(full.status_code, 200);
  auto etag = full.headers.Get(http::kHeaderEtag);
  ASSERT_TRUE(etag.has_value());

  // Matching If-None-Match gets an empty 304...
  fetch.headers.Set(std::string(http::kHeaderIfNoneMatch),
                    std::string(*etag));
  Response not_modified = home().HandleRequest(fetch, &net());
  EXPECT_EQ(not_modified.status_code, 304);
  EXPECT_TRUE(not_modified.body.empty());
  EXPECT_GE(home().counters().not_modified, 1u);

  // ...and a stale tag gets the full document again.
  fetch.headers.Set(std::string(http::kHeaderIfNoneMatch),
                    "\"0000000000000000\"");
  Response refreshed = home().HandleRequest(fetch, &net());
  EXPECT_EQ(refreshed.status_code, 200);
  EXPECT_FALSE(refreshed.entity().empty());
}

// A page's link to itself must survive migration.  Regeneration at home
// writes the self link site-absolute; the co-op's copy has to carry a
// URL the cluster serves, not a path that resolves against the co-op.
TEST(CoopSelfLinkTest, MigratedPageSelfLinkResolves) {
  ManualClock clock(Seconds(1));
  Cluster cluster(2, TestParams(), &clock);
  Server& home = cluster.server(0);
  Server& coop = cluster.server(1);
  const std::string page = "/archive/msg1.html";
  ASSERT_TRUE(home.LoadSite({Doc("/index.html",
                                 "<a href=\"archive/msg1.html\">m</a>"),
                             Doc(page, "<a href=\"msg1.html\">this</a>")},
                            {"/index.html"})
                  .ok());
  ASSERT_TRUE(home.ldg().SetDirty(page, true).ok());
  Response regenerated = home.HandleRequest(Get(page), &cluster.network());
  ASSERT_EQ(regenerated.status_code, 200);
  ASSERT_NE(regenerated.entity().find("href=\"" + page + "\""),
            std::string::npos)
      << regenerated.entity();

  // Migrate the page; the co-op pulls its copy from home on first use.
  ASSERT_TRUE(home.ldg().SetLocation(page, coop.address()).ok());
  std::string target = migrate::EncodeMigratedTarget(home.address(), page);
  Response copy = coop.HandleRequest(Get(target), &cluster.network());
  ASSERT_EQ(copy.status_code, 200);

  // Follow the copy's self link the way a browser at the co-op would.
  std::vector<html::LinkOccurrence> links =
      html::ExtractLinks(copy.entity(), target);
  ASSERT_EQ(links.size(), 1u) << copy.entity();
  http::ServerAddress at = coop.address();
  std::string path = links[0].resolved;
  if (http::IsAbsoluteUrl(path)) {
    auto url = http::Url::Parse(path);
    ASSERT_TRUE(url.ok());
    at = {url->host, url->port};
    path = url->path;
  }
  Server* host = cluster.network().Find(at);
  ASSERT_NE(host, nullptr) << links[0].resolved;
  Response followed = host->HandleRequest(Get(path), &cluster.network());
  EXPECT_TRUE(followed.status_code == 200 || followed.status_code == 301)
      << links[0].resolved << " answered " << followed.status_code;
}

TEST(ConditionalValidationTest, SweepUses304WhenEnabled) {
  ManualClock clock(Seconds(1));
  ServerParams params = TestParams();
  params.conditional_validation = true;
  Cluster cluster(2, params, &clock);
  Server& home = cluster.server(0);
  ASSERT_TRUE(home.LoadSite({Doc("/index.html",
                                 "<a href=\"hot.html\">go</a>"),
                             Doc("/hot.html", "<p>payload</p>")},
                            {"/index.html"})
                  .ok());
  cluster.TickAll();
  for (int i = 0; i < 80; ++i) {
    home.HandleRequest(Get("/hot.html"), &cluster.network());
  }
  clock.Advance(Seconds(10));
  cluster.TickAll();
  auto record = home.ldg().Lookup("/hot.html");
  ASSERT_TRUE(record.ok());
  ASSERT_FALSE(record->location == home.address());
  Server* coop = cluster.network().Find(record->location);
  std::string target =
      migrate::EncodeMigratedTarget(home.address(), "/hot.html");
  ASSERT_EQ(coop->HandleRequest(Get(target), &cluster.network())
                .status_code,
            200);
  ASSERT_EQ(coop->counters().coop_fetches, 1u);

  // Let several validation sweeps pass with unchanged content: every
  // refetch should be answered 304.
  for (int i = 0; i < 3; ++i) {
    clock.Advance(params.validation_interval + Seconds(5));
    cluster.TickAll();
  }
  EXPECT_GE(coop->counters().not_modified, 2u);
  // Content unchanged and still served.
  Response again = coop->HandleRequest(Get(target), &cluster.network());
  EXPECT_EQ(again.status_code, 200);
  EXPECT_NE(again.entity().find("payload"), std::string::npos);
}

// ------------------------------------------------------- introspection

TEST_F(ServerTest, DcwsStatusSpeaksThreeFormats) {
  Hammer("/a.html", 3);
  home().HandleRequest(Get("/missing.html"), &net());

  http::Response text = home().HandleRequest(Get("/.dcws/status"), &net());
  ASSERT_EQ(text.status_code, 200);
  EXPECT_EQ(text.headers.Get("Content-Type").value(), "text/plain");
  EXPECT_NE(text.body.find("dcws_requests_total{outcome=\"served_local\"} 3"),
            std::string::npos)
      << text.body;
  EXPECT_NE(text.body.find("dcws_requests_total{outcome=\"not_found\"} 1"),
            std::string::npos);

  http::Response json =
      home().HandleRequest(Get("/.dcws/status?format=json"), &net());
  ASSERT_EQ(json.status_code, 200);
  EXPECT_EQ(json.headers.Get("Content-Type").value(), "application/json");
  EXPECT_EQ(json.body.find("{\"metrics\":["), 0u);
  EXPECT_NE(json.body.find("\"name\":\"dcws_request_latency_us\""),
            std::string::npos);

  http::Response prom = home().HandleRequest(
      Get("/.dcws/status?format=prometheus"), &net());
  ASSERT_EQ(prom.status_code, 200);
  EXPECT_NE(prom.body.find("# TYPE dcws_requests_total counter"),
            std::string::npos)
      << prom.body;
  // Every series carries the scrape-disambiguating server label.
  EXPECT_NE(prom.body.find("server=\"" + home().address().ToString() +
                           "\""),
            std::string::npos);
  EXPECT_NE(prom.body.find("dcws_request_latency_us_p99"),
            std::string::npos);
}

TEST_F(ServerTest, StatusGaugesTrackTables) {
  auto snapshot = home().metrics().Snapshot();
  const obs::MetricSnapshot* docs =
      obs::FindMetric(snapshot, "dcws_documents");
  ASSERT_NE(docs, nullptr);
  EXPECT_EQ(docs->value, 4.0);  // the seeded site
  const obs::MetricSnapshot* peers =
      obs::FindMetric(snapshot, "dcws_glt_peers");
  ASSERT_NE(peers, nullptr);
  // The GLT holds every known server, including the self entry.
  EXPECT_EQ(peers->value, 3.0);
}

TEST_F(ServerTest, DcwsTracesRecordsClientRequests) {
  http::Response page = home().HandleRequest(Get("/a.html"), &net());
  ASSERT_EQ(page.status_code, 200);

  // The ring holds the trace with a parse + handler span tree.
  std::vector<obs::Trace> recent = home().recent_traces().Snapshot();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].root, "GET /a.html");
  EXPECT_NE(recent[0].id, 0u);
  EXPECT_FALSE(recent[0].propagated);
  bool saw_local = false;
  for (const obs::Span& span : recent[0].spans) {
    if (span.name == "local") saw_local = true;
  }
  EXPECT_TRUE(saw_local);

  http::Response text = home().HandleRequest(Get("/.dcws/traces"), &net());
  ASSERT_EQ(text.status_code, 200);
  EXPECT_NE(text.body.find("GET /a.html"), std::string::npos) << text.body;
  EXPECT_NE(text.body.find(obs::FormatTraceId(recent[0].id)),
            std::string::npos);

  http::Response json =
      home().HandleRequest(Get("/.dcws/traces?format=json"), &net());
  ASSERT_EQ(json.status_code, 200);
  EXPECT_EQ(json.headers.Get("Content-Type").value(), "application/json");
  EXPECT_NE(json.body.find("\"recent\""), std::string::npos);
}

TEST_F(ServerTest, DcwsEventsSpeaksTextAndJsonWithSinceCursor) {
  std::string moved = ForceOneMigration();

  http::Response text =
      home().HandleRequest(Get("/.dcws/events"), &net());
  ASSERT_EQ(text.status_code, 200);
  EXPECT_EQ(text.headers.Get("Content-Type").value(), "text/plain");
  EXPECT_NE(text.body.find("migration_decided"), std::string::npos)
      << text.body;
  EXPECT_NE(text.body.find("doc=" + moved), std::string::npos)
      << text.body;

  http::Response json =
      home().HandleRequest(Get("/.dcws/events?format=json"), &net());
  ASSERT_EQ(json.status_code, 200);
  EXPECT_EQ(json.headers.Get("Content-Type").value(),
            "application/json");
  EXPECT_NE(json.body.find("\"server\":\"" +
                           home().address().ToString() + "\""),
            std::string::npos)
      << json.body;
  EXPECT_NE(json.body.find("\"type\":\"migration_decided\""),
            std::string::npos);
  // The decision event carries its GLT-snapshot payload.
  EXPECT_NE(json.body.find("\"glt\":["), std::string::npos) << json.body;
  EXPECT_NE(json.body.find("\"last_seq\":"), std::string::npos);

  // Incremental polling: a since= cursor at the current tail returns
  // no events (until something new happens).
  http::Response tail = home().HandleRequest(
      Get("/.dcws/events?format=json&since=" +
          std::to_string(home().journal().total())),
      &net());
  ASSERT_EQ(tail.status_code, 200);
  EXPECT_NE(tail.body.find("\"events\":[\n]"), std::string::npos)
      << tail.body;
}

TEST_F(ServerTest, StatusReportsEventJournalDepthAndDropped) {
  ForceOneMigration();
  auto snapshot = home().metrics().Snapshot();
  const obs::MetricSnapshot* depth =
      obs::FindMetric(snapshot, "dcws_event_journal_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->value, 1.0);
  const obs::MetricSnapshot* dropped =
      obs::FindMetric(snapshot, "dcws_event_journal_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 0.0);
  const obs::MetricSnapshot* decided = obs::FindMetric(
      snapshot, "dcws_events", {{"type", "migration_decided"}});
  ASSERT_NE(decided, nullptr);
  EXPECT_GE(decided->value, 1.0);
  // And the same numbers ride the status JSON a poller scrapes.
  http::Response json =
      home().HandleRequest(Get("/.dcws/status?format=json"), &net());
  EXPECT_NE(json.body.find("\"dcws_event_journal_depth\""),
            std::string::npos)
      << json.body;
}

TEST_F(ServerTest, TraceAdoptsPropagatedId) {
  obs::TraceId id = 0x00ddcc0ffee12345ULL;
  http::Request req = Get("/a.html");
  req.headers.Set(std::string(http::kHeaderDcwsTrace),
                  obs::FormatTraceId(id));
  home().HandleRequest(req, &net());

  std::vector<obs::Trace> recent = home().recent_traces().Snapshot();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].id, id);
  EXPECT_TRUE(recent[0].propagated);
}

TEST_F(ServerTest, AdminTargetsStayOutOfTrafficMetrics) {
  home().HandleRequest(Get("/.dcws/status"), &net());
  home().HandleRequest(Get("/.dcws/traces"), &net());
  home().HandleRequest(Get("/.dcws/events"), &net());
  home().HandleRequest(Get("/~status"), &net());

  // Introspection polling must not pollute site-traffic series.
  EXPECT_EQ(home().recent_traces().Snapshot().size(), 0u);
  auto snapshot = home().metrics().Snapshot();
  const obs::MetricSnapshot* latency = obs::FindMetric(
      snapshot, "dcws_request_latency_us", {{"kind", "client"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, 0u);
}

TEST_F(ServerTest, DcwsHistoryServesSampledRingsWithFilters) {
  // The fixture's first TickAll anchored the sampler (sample zero at
  // t=1s); two more 1 s ticks grow every series to three samples.
  Hammer("/a.html", 5);
  AdvanceAndTick(Seconds(1));
  AdvanceAndTick(Seconds(1));
  std::vector<obs::HistorySeries> docs =
      home().history().Snapshot("dcws_documents");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_GE(docs[0].samples.size(), 2u);

  http::Response text =
      home().HandleRequest(Get("/.dcws/history"), &net());
  ASSERT_EQ(text.status_code, 200);
  EXPECT_EQ(text.headers.Get("Content-Type").value(), "text/plain");
  EXPECT_NE(text.body.find("history for " +
                           home().address().ToString()),
            std::string::npos)
      << text.body;
  EXPECT_NE(text.body.find("dcws_load_cps"), std::string::npos);

  // ?metric= narrows to one family; other series must not appear.
  http::Response one = home().HandleRequest(
      Get("/.dcws/history?metric=dcws_documents&format=json"), &net());
  ASSERT_EQ(one.status_code, 200);
  EXPECT_EQ(one.headers.Get("Content-Type").value(),
            "application/json");
  EXPECT_NE(one.body.find("\"name\":\"dcws_documents\""),
            std::string::npos)
      << one.body;
  EXPECT_EQ(one.body.find("\"name\":\"dcws_load_cps\""),
            std::string::npos);
  // Three comma-separated [at,value] pairs in the samples array.
  size_t samples = one.body.find("\"samples\":[[");
  ASSERT_NE(samples, std::string::npos) << one.body;
  size_t close = one.body.find(']', samples + 12);
  int pairs = 1;
  while (close != std::string::npos &&
         one.body.compare(close, 3, "],[") == 0) {
    ++pairs;
    close = one.body.find(']', close + 3);
  }
  EXPECT_GE(pairs, 2) << one.body;

  // ?window=N keeps only samples from the trailing N seconds.
  http::Response trimmed = home().HandleRequest(
      Get("/.dcws/history?metric=dcws_documents&window=1&format=json"),
      &net());
  ASSERT_EQ(trimmed.status_code, 200);
  EXPECT_LT(trimmed.body.size(), one.body.size());
}

TEST_F(ServerTest, DcwsHistoryRejectsMalformedWindow) {
  EXPECT_EQ(home()
                .HandleRequest(Get("/.dcws/history?window=soon"), &net())
                .status_code,
            400);
  EXPECT_EQ(home()
                .HandleRequest(Get("/.dcws/history?window=-1"), &net())
                .status_code,
            400);
}

TEST_F(ServerTest, PhaseAttributionSumsToEndToEndLatency) {
  // Transport-reported queue and parse time are the only nonzero span
  // durations under a manual clock, which makes the acceptance check
  // exact: the dcws_phase_latency_us family must partition precisely
  // the same time the end-to-end latency histograms observed.
  for (int i = 0; i < 4; ++i) {
    RequestTrace trace;
    trace.queue_wait = 100 + 10 * i;
    trace.parse_micros = 50;
    home().HandleRequest(Get(i % 2 == 0 ? "/a.html" : "/b.html"),
                         &net(), &trace);
  }
  std::vector<obs::MetricSnapshot> snapshot =
      home().metrics().Snapshot();
  uint64_t end_to_end = 0;
  uint64_t end_to_end_count = 0;
  uint64_t phase_sum = 0;
  for (const obs::MetricSnapshot& snap : snapshot) {
    if (snap.name == "dcws_request_latency_us") {
      end_to_end += snap.hist.sum;
      end_to_end_count += snap.hist.count;
    } else if (snap.name == "dcws_phase_latency_us") {
      phase_sum += snap.hist.sum;
    }
  }
  EXPECT_EQ(end_to_end_count, 4u);
  EXPECT_EQ(end_to_end, 4u * 50u + 100u + 110u + 120u + 130u);
  EXPECT_EQ(phase_sum, end_to_end);
  // The transport span surfaces under its metric phase name.
  const obs::MetricSnapshot* queue = obs::FindMetric(
      snapshot, "dcws_phase_latency_us", {{"phase", "queue_wait"}});
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->hist.sum, 100u + 110u + 120u + 130u);
  const obs::MetricSnapshot* parse = obs::FindMetric(
      snapshot, "dcws_phase_latency_us", {{"phase", "parse"}});
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->hist.sum, 4u * 50u);
}

TEST_F(ServerTest, DcwsEventsRejectsMalformedCursor) {
  EXPECT_EQ(home()
                .HandleRequest(Get("/.dcws/events?since=yesterday"),
                               &net())
                .status_code,
            400);
  EXPECT_EQ(
      home()
          .HandleRequest(Get("/.dcws/events?since=-3"), &net())
          .status_code,
      400);
}

TEST_F(ServerTest, DcwsEventsFutureCursorYieldsEmptySetWithEnvelope) {
  ForceOneMigration();
  uint64_t total = home().journal().total();
  ASSERT_GE(total, 1u);
  // A cursor past the tail (e.g. ours, kept across a server restart
  // that reset the journal) returns no events but a full envelope, so
  // the poller can see last_seq < cursor and resynchronize.
  http::Response future = home().HandleRequest(
      Get("/.dcws/events?format=json&since=" +
          std::to_string(total + 1000)),
      &net());
  ASSERT_EQ(future.status_code, 200);
  EXPECT_NE(future.body.find("\"events\":[\n]"), std::string::npos)
      << future.body;
  EXPECT_NE(future.body.find("\"last_seq\":" + std::to_string(total)),
            std::string::npos)
      << future.body;
}

TEST_F(ServerTest, DcwsProfileIs503WhenProfilerDisabled) {
  // The test environment does not set DCWS_PROFILE (the profiler tests
  // that do, in obs_test, restore it), so the endpoint must refuse
  // rather than install signal handlers nobody asked for.
  http::Response resp =
      home().HandleRequest(Get("/.dcws/profile?seconds=1"), &net());
  EXPECT_EQ(resp.status_code, 503);
  EXPECT_NE(resp.body.find("DCWS_PROFILE"), std::string::npos)
      << resp.body;
}

TEST_F(ServerTest, SlowRequestsLandInSlowRing) {
  // Zero threshold: every traced request counts as slow.
  ServerParams params = TestParams();
  params.slow_trace_threshold = 0;
  ManualClock clock(Seconds(1));
  Cluster cluster(2, params, &clock);
  std::vector<Document> site = {Doc("/p.html", "<p>x</p>")};
  ASSERT_TRUE(cluster.server(0).LoadSite(site, {}).ok());
  cluster.server(0).HandleRequest(Get("/p.html"), &cluster.network());
  EXPECT_EQ(cluster.server(0).slow_traces().Snapshot().size(), 1u);
  EXPECT_EQ(cluster.server(0).recent_traces().Snapshot().size(), 1u);
}

}  // namespace
}  // namespace dcws::core
