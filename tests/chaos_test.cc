// Chaos suite: failure injection against a live cluster of TCP hosts
// on loopback, built on tests/harness/cluster_harness.h.  Each scenario
// drives real client load, injects a fault (crash, restart, pinger
// partition, membership change), and asserts the §4.5 consistency
// story — recall of crashed co-ops' documents, T_val-driven
// revalidation after a home restart, best-effort stale serves, and
// re-homing of traffic — using polling predicates over server state,
// the /.dcws/status JSON endpoint, and X-DCWS-Trace ids.  There are
// deliberately no sleeps in any assertion path, so the suite is
// timing-robust under TSan on a single core (run `tools/dcws_chaos.sh`
// for the repeated-run gate).
//
// On failure, each test dumps every member's metrics and trace rings to
// $DCWS_CHAOS_ARTIFACTS (the chaos CI job uploads that directory).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/http/url.h"
#include "src/migrate/naming.h"
#include "tests/harness/cluster_harness.h"

namespace dcws {
namespace {

using test::ClusterHarness;

storage::Document Doc(std::string path, std::string content) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

// The stock five-document site, loaded at member `home`.  /i.gif is the
// heavy document the load loops hammer, so it is the one that migrates.
void LoadSite(ClusterHarness& h, size_t home = 0) {
  std::vector<storage::Document> site;
  site.push_back(Doc("/index.html",
                     "<a href=\"a.html\">a</a><a href=\"b.html\">b</a>"
                     "<a href=\"c.html\">c</a>"));
  site.push_back(
      Doc("/a.html", "<img src=\"i.gif\"><a href=\"b.html\">b</a>"));
  site.push_back(Doc("/b.html", "<a href=\"c.html\">c</a><p>b</p>"));
  site.push_back(Doc("/c.html", "<p>c</p>"));
  site.push_back(Doc("/i.gif", std::string(2000, 'I')));
  ASSERT_TRUE(h.server(home).LoadSite(site, {"/index.html"}).ok());
}

// Background client: hammers `path` at member 0 and chases redirects
// into co-ops, tolerating every failure (crashed servers answer with
// transport errors; that is the point of the suite).  Addresses are
// captured up front so the loop never touches harness member indices
// while the test mutates membership.
std::thread StartClientLoad(ClusterHarness& h, std::atomic<bool>* stop,
                            std::string path) {
  core::PeerClient* net = &h.network();
  http::ServerAddress entry = h.address(0);
  return std::thread([net, entry, stop, path = std::move(path)]() {
    while (!stop->load()) {
      http::Request request;
      request.target = path;
      auto response = net->Execute(entry, request);
      if (response.ok() && response->status_code == 301) {
        auto url = http::Url::Parse(std::string(
            response->headers.Get("Location").value_or("")));
        if (url.ok()) {
          http::Request follow;
          follow.target = url->path;
          (void)net->Execute({url->host, url->port}, follow);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (HasFailure() && harness_ != nullptr) {
      harness_->WriteArtifacts(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name());
    }
  }

  // Builds the harness through the fixture, so a failing test dumps it.
  ClusterHarness& Make(ClusterHarness::Options options = {}) {
    harness_ = std::make_unique<ClusterHarness>(std::move(options));
    return *harness_;
  }

  static ClusterHarness::Options TwoNodes() {
    ClusterHarness::Options options;
    options.servers = 2;
    return options;
  }

  std::unique_ptr<ClusterHarness> harness_;
};

// Follows at most one redirect hop and returns the final status code
// (-1 on transport error).
int GetFollowingRedirect(ClusterHarness& h, size_t i,
                         const std::string& path) {
  auto response = h.Get(i, path);
  if (!response.ok()) return -1;
  if (response->status_code != 301) return response->status_code;
  auto url = http::Url::Parse(
      std::string(response->headers.Get("Location").value_or("")));
  if (!url.ok()) return -1;
  http::Request follow;
  follow.target = url->path;
  auto hop = h.network().Execute({url->host, url->port}, follow);
  return hop.ok() ? hop->status_code : -1;
}

// ---------------------------------------------------------------------
// Scenario (a): kill a co-op mid-migration; the home must declare it
// down and recall the placement, and traffic must land locally again.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, CoopCrashMidMigrationRecalls) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);
  std::atomic<bool> stop{false};
  std::thread client = StartClientLoad(h, &stop, "/i.gif");

  ASSERT_TRUE(h.WaitMigrated(0, "/i.gif"));
  // Abrupt kill while the client load (and any in-flight co-op fetch)
  // is still running against it.
  h.StopServer(1);

  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  ASSERT_TRUE(h.WaitRecall(0, "/i.gif"));
  stop.store(true);
  client.join();

  auto response = h.Get(0, "/i.gif");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200) << "recalled doc must serve "
                                           "from home, not redirect";
  // The revocation is visible on the status endpoint.
  EXPECT_TRUE(h.WaitFor([&]() {
    auto value = h.MetricValue(0, "dcws_revocations_total");
    return value.has_value() && *value >= 1;
  }));
}

// ---------------------------------------------------------------------
// Scenario (b): restart the home server under a live co-op placement.
// While the home is down the co-op serves stale best-effort (§4.5);
// after the restart, per-request T_val revalidation picks the home back
// up, and a traced request's id propagates into the home's trace ring.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, HomeRestartRevalidates) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);
  const std::string target =
      migrate::EncodeMigratedTarget(h.address(0), "/i.gif");

  std::atomic<bool> stop{false};
  std::thread client = StartClientLoad(h, &stop, "/i.gif");
  ASSERT_TRUE(h.WaitMigrated(0, "/i.gif"));
  ASSERT_TRUE(h.WaitHosted(1, target));
  stop.store(true);
  client.join();

  h.StopServer(0);

  // Best-effort stale serves: once validation is overdue the co-op's
  // refetch fails, but the cached bytes still go out as 200s.
  ASSERT_TRUE(h.DriveUntil(1, {target}, [&]() {
    return h.server(1).counters().stale_serves > 0;
  }));
  auto stale = h.Get(1, target);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->status_code, 200);

  const MicroTime down_mark = h.Now();
  h.StartServer(0);

  // Revalidation is request-driven: keep asking the co-op until its
  // hosted entry shows a validation stamp from after the restart.
  ASSERT_TRUE(h.DriveUntil(1, {target}, [&]() {
    auto hosted = h.server(1).coop_table().Get(target);
    return hosted.ok() && hosted.value().last_validated >= down_mark;
  }));

  // Trace propagation across the revalidation fetch: a traced client
  // request at the co-op must eventually surface its id in the home's
  // trace ring (the fetch carries X-DCWS-Trace).
  ASSERT_TRUE(h.WaitFor([&]() {
    ClusterHarness::TracedGet traced = h.GetTraced(1, target);
    return traced.response.ok() &&
           traced.response->status_code == 200 &&
           h.TraceSeen(0, traced.id);
  }));
  EXPECT_TRUE(h.WaitSync());
}

// ---------------------------------------------------------------------
// Scenario (c): partition the pinger (liveness channel) between home
// and co-op while data traffic still flows.  The home must declare the
// peer down and recall its placement; after healing, traffic-carried
// liveness evidence (fetch outcomes + piggyback receipts) brings the
// peer back without any direct re-probing of down peers.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, PingerPartitionDeclaresDownAndRehomes) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);
  const std::string target =
      migrate::EncodeMigratedTarget(h.address(0), "/i.gif");

  std::atomic<bool> stop{false};
  std::thread client = StartClientLoad(h, &stop, "/i.gif");
  ASSERT_TRUE(h.WaitMigrated(0, "/i.gif"));
  ASSERT_TRUE(h.WaitHosted(1, target));
  stop.store(true);
  client.join();

  h.PartitionPinger(0, 1);
  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  ASSERT_TRUE(h.WaitRecall(0, "/i.gif"));

  // Traffic re-homed: the home answers 200 directly ...
  auto local = h.Get(0, "/i.gif");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->status_code, 200);
  // ... while the data path through the partition still works (the
  // revoke skipped the "down" peer, so the co-op still serves, fetching
  // content from the home it cannot "see" on the liveness channel).
  auto through = h.Get(1, target);
  ASSERT_TRUE(through.ok());
  EXPECT_EQ(through->status_code, 200);

  h.HealPinger(0, 1);
  // Recovery is traffic-driven: co-op requests force revalidation
  // fetches whose outcomes (and piggybacked X-DCWS-Server receipts)
  // mark both directions up again.
  ASSERT_TRUE(h.DriveUntil(1, {target}, [&]() {
    return !h.server(0).pinger().IsDown(h.address(1)) &&
           !h.server(1).pinger().IsDown(h.address(0));
  }));
  EXPECT_TRUE(h.WaitSync());
}

// ---------------------------------------------------------------------
// Scenario (d): grow and shrink the running cluster under Algorithm-2
// client load.  The new member must join the liveness mesh; removal
// must re-home every placement; the site must stay fully serveable.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, MembershipChangeUnderLoad) {
  ClusterHarness::Options options;
  options.servers = 3;
  ClusterHarness& h = Make(options);
  LoadSite(h);

  const std::vector<std::string> paths = {"/index.html", "/a.html",
                                          "/b.html", "/c.html",
                                          "/i.gif"};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.push_back(StartClientLoad(h, &stop, "/i.gif"));
  clients.push_back(StartClientLoad(h, &stop, "/a.html"));

  // Wait for migration to engage before changing membership.
  ASSERT_TRUE(h.WaitFor([&]() {
    return !h.server(0).ldg().MigratedSnapshot().empty();
  }));

  const size_t added = h.AddServer();
  EXPECT_EQ(added, 3u);
  // The new member joins the liveness mesh: the home hears a load
  // report from it (ping or piggyback) within a few T_pi.
  ASSERT_TRUE(h.WaitFor([&]() {
    auto entry = h.server(0).glt().Get(h.address(added));
    return entry.ok() && entry->updated_at >= 0;
  }));

  // Remove the member currently holding a placement, forcing re-homing
  // under load.  (Fall back to member 1 if the placements moved.)
  size_t victim = 1;
  auto migrated = h.server(0).ldg().MigratedSnapshot();
  for (size_t i = 1; i < h.size(); ++i) {
    if (!migrated.empty() && h.address(i) == migrated[0].location) {
      victim = i;
      break;
    }
  }
  h.RemoveServer(victim);

  ASSERT_TRUE(h.WaitSync());
  stop.store(true);
  for (std::thread& client : clients) client.join();

  // The whole site stays serveable: every path answers 200 directly or
  // via one redirect hop to a live member.
  ASSERT_TRUE(h.WaitFor([&]() {
    for (const std::string& path : paths) {
      if (GetFollowingRedirect(h, 0, path) != 200) return false;
    }
    return true;
  }));
  EXPECT_EQ(h.size(), 3u);  // started with 3, added 1, removed 1
}

// ---------------------------------------------------------------------
// Pinger edge case: a peer that flaps (down and back up within one
// T_val) must not wedge the cluster — whichever way the race resolves
// (recall or retained placement), the group reconverges and the
// document stays serveable.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, PeerFlappingWithinValidationWindowConverges) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);

  std::atomic<bool> stop{false};
  std::thread client = StartClientLoad(h, &stop, "/i.gif");
  ASSERT_TRUE(h.WaitMigrated(0, "/i.gif"));

  // Bounce the co-op several times, each outage far shorter than the
  // 3 x T_pi the pinger needs to declare it down — and once long
  // enough that it may be declared down, so both interleavings run.
  for (int flap = 0; flap < 4; ++flap) {
    h.StopServer(1);
    h.StartServer(1);
  }
  h.StopServer(1);
  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  h.StartServer(1);

  stop.store(true);
  client.join();

  // Convergence: the restarted co-op's own pings carry piggybacked
  // liveness evidence, so the home marks it up again without the test
  // sending any traffic.
  ASSERT_TRUE(h.WaitSync());
  EXPECT_EQ(GetFollowingRedirect(h, 0, "/i.gif"), 200);
}

// ---------------------------------------------------------------------
// Pinger edge case: recall racing in-flight co-op fetches.  Clients
// hammer the co-op's ~migrate URL (each request may fetch from home)
// while the pinger partition triggers a recall of the same document.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, RecallRacesInFlightMigrationFetches) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);
  const std::string target =
      migrate::EncodeMigratedTarget(h.address(0), "/i.gif");

  std::atomic<bool> stop{false};
  std::thread migrate_client = StartClientLoad(h, &stop, "/i.gif");
  ASSERT_TRUE(h.WaitMigrated(0, "/i.gif"));
  ASSERT_TRUE(h.WaitHosted(1, target));

  // Hammer the co-op URL directly so revalidation fetches are in flight
  // while the recall runs on the home's duty thread.
  core::PeerClient* net = &h.network();
  http::ServerAddress coop = h.address(1);
  std::thread coop_client([net, coop, target, &stop]() {
    while (!stop.load()) {
      http::Request request;
      request.target = target;
      (void)net->Execute(coop, request);
    }
  });

  h.PartitionPinger(0, 1);
  ASSERT_TRUE(h.WaitRecall(0, "/i.gif"));
  h.HealPinger(0, 1);

  // With the fetch traffic still running, both directions recover.
  ASSERT_TRUE(h.WaitSync());
  stop.store(true);
  migrate_client.join();
  coop_client.join();

  // The document stays serveable (it may legitimately have re-migrated
  // to the healed peer by now).
  EXPECT_EQ(GetFollowingRedirect(h, 0, "/i.gif"), 200);
}

// ---------------------------------------------------------------------
// A stopped member refuses new work, and restarts over surviving state.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, StopRefusesNewWorkAndRestartRecovers) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);

  h.StopServer(1);
  auto refused = h.Get(1, "/index.html");
  EXPECT_FALSE(refused.ok()) << "stopped server must refuse new work";

  h.StartServer(1);
  ASSERT_TRUE(h.WaitFor([&]() {
    auto response = h.Get(1, "/~ping");
    return response.ok() && response->status_code == 200;
  }));
  EXPECT_TRUE(h.WaitSync());
}

// ---------------------------------------------------------------------
// Crash and recall with no redirect-chasing client (DriveUntil's plain
// GETs drive the migration), then a restart on the original port.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, TcpTransportCrashRecall) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);

  ASSERT_TRUE(h.DriveUntil(0, {"/i.gif"}, [&]() {
    auto brief = h.server(0).ldg().Brief("/i.gif");
    return brief.ok() && !(brief->location == h.address(0));
  }));

  h.StopServer(1);
  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  ASSERT_TRUE(h.WaitRecall(0, "/i.gif"));

  auto response = h.Get(0, "/i.gif");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);

  // And the crashed member restarts on its original port.
  h.StartServer(1);
  ASSERT_TRUE(h.WaitFor([&]() {
    auto ping = h.Get(1, "/~ping");
    return ping.ok() && ping->status_code == 200;
  }));
  EXPECT_TRUE(h.WaitSync());
}

// ---------------------------------------------------------------------
// Event-journal audit: crash-mid-migration must leave the exact
// decision trail MigrationDecided (home, with the GLT snapshot that
// justified it) -> MigrationApplied (co-op, physical arrival) ->
// Recall (home, peer-down cause), causally ordered by the shared
// wall-clock timestamps.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, EventSequenceCrashMidMigration) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);
  const std::string home = h.address(0).ToString();
  const std::string coop = h.address(1).ToString();

  std::atomic<bool> stop{false};
  std::thread client = StartClientLoad(h, &stop, "/i.gif");

  // 1. The home decides to migrate /i.gif, and the decision event
  //    carries its inputs: the full GLT snapshot and the threshold
  //    comparison.
  auto decided = h.WaitEvent(
      0, obs::EventType::kMigrationDecided,
      [](const obs::Event& e) { return e.doc == "/i.gif"; });
  ASSERT_TRUE(decided.has_value()) << h.DumpStatus();
  EXPECT_EQ(decided->server, home);
  EXPECT_EQ(decided->peer, coop);
  EXPECT_GT(decided->own_load, 0);
  EXPECT_NE(decided->detail.find(" cps > "), std::string::npos)
      << "decision must record the threshold comparison: "
      << decided->detail;
  ASSERT_FALSE(decided->glt.empty())
      << "decision must carry its GLT snapshot";
  bool glt_names_coop = false;
  for (const obs::GltRow& row : decided->glt) {
    if (row.server == coop) glt_names_coop = true;
  }
  EXPECT_TRUE(glt_names_coop)
      << "GLT snapshot must include the chosen co-op";

  // 2. The client load chases the redirect into the co-op, whose first
  //    fetch physically applies the migration.
  auto applied = h.WaitEvent(
      1, obs::EventType::kMigrationApplied,
      [](const obs::Event& e) { return e.doc == "/i.gif"; });
  ASSERT_TRUE(applied.has_value()) << h.DumpStatus();
  EXPECT_EQ(applied->server, coop);
  EXPECT_EQ(applied->peer, home);

  // 3. Crash the co-op; the home declares it down and recalls, and the
  //    recall event names the crashed peer and the peer-down cause.
  stop.store(true);
  client.join();
  h.StopServer(1);
  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  auto recall = h.WaitEvent(
      0, obs::EventType::kRecall,
      [](const obs::Event& e) { return e.doc == "/i.gif"; });
  ASSERT_TRUE(recall.has_value()) << h.DumpStatus();
  EXPECT_EQ(recall->peer, coop);
  EXPECT_NE(recall->detail.find("down"), std::string::npos)
      << recall->detail;

  // 4. Causal order across the two journals (shared wall clock).
  EXPECT_LE(decided->at, applied->at);
  EXPECT_LE(applied->at, recall->at);

  // The crashed co-op's own journal still answers post-mortem: it holds
  // the applied event and the corresponding peer-up lifecycle entries.
  EXPECT_TRUE(h.FindEvent(1, obs::EventType::kMigrationApplied)
                  .has_value());
}

// ---------------------------------------------------------------------
// The decided-but-never-applied signature: when the co-op crashes (or
// never sees demand) before its first fetch, the merged timeline shows
// a MigrationDecided with no matching MigrationApplied anywhere — the
// journal's way of spelling "crash mid-migration".  DriveUntil's plain
// GETs never follow the redirect, so no request ever reaches the
// co-op and the physical migration never happens.
// ---------------------------------------------------------------------
TEST_F(ChaosTest, DecidedWithoutAppliedMarksCrashMidMigration) {
  ClusterHarness& h = Make(TwoNodes());
  LoadSite(h);

  ASSERT_TRUE(h.DriveUntil(0, {"/i.gif"}, [&]() {
    return h.FindEvent(0, obs::EventType::kMigrationDecided)
        .has_value();
  }));
  h.StopServer(1);
  ASSERT_TRUE(h.WaitPeerDown(0, 1));
  auto recall = h.WaitEvent(0, obs::EventType::kRecall);
  ASSERT_TRUE(recall.has_value()) << h.DumpStatus();

  // Decided and recalled — but applied nowhere: the audit trail shows
  // the migration never became physical.
  EXPECT_TRUE(
      h.FindEvent(0, obs::EventType::kMigrationDecided).has_value());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_FALSE(h.FindEvent(i, obs::EventType::kMigrationApplied)
                     .has_value())
        << "member " << i << " must not record a physical migration";
  }
}

// ---------------------------------------------------------------------
// JSONL mirror (DCWS_EVENT_LOG): stopping the hosts must leave a
// fully flushed file in which every line — written concurrently by
// both members' journals through the shared appender — parses as one
// complete JSON object.  A torn or buffered-but-lost line here is
// exactly the failure mode the single-write Append and the Stop-path
// Flush exist to prevent.
// ---------------------------------------------------------------------

// True when `line` is one balanced JSON object (brace/bracket depth
// tracked outside string literals, escapes honoured).
bool IsBalancedJsonObject(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return false;
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : line) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST_F(ChaosTest, EventLogMirrorFlushesParseableJsonl) {
  std::string path = ::testing::TempDir() + "dcws_chaos_events.jsonl";
  std::remove(path.c_str());  // the sink appends; start clean
  ::setenv("DCWS_EVENT_LOG", path.c_str(), 1);
  {
    ClusterHarness& h = Make(TwoNodes());
    LoadSite(h);
    ASSERT_TRUE(h.DriveUntil(0, {"/i.gif"}, [&]() {
      return h.FindEvent(0, obs::EventType::kMigrationDecided)
          .has_value();
    }));
    // Stop both members: TcpServerHost::Stop flushes the mirror once
    // its threads are joined, so everything emitted is on disk when
    // these return.
    h.StopServer(0);
    h.StopServer(1);
  }
  ::unsetenv("DCWS_EVENT_LOG");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  int lines = 0;
  bool saw_decided = false;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(IsBalancedJsonObject(line)) << "torn line: " << line;
    EXPECT_NE(line.find("\"type\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"server\":\""), std::string::npos) << line;
    if (line.find("\"type\":\"migration_decided\"") !=
        std::string::npos) {
      saw_decided = true;
    }
  }
  EXPECT_GE(lines, 1);
  EXPECT_TRUE(saw_decided)
      << "the decision the test waited for must be mirrored";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcws
