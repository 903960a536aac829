// Concurrency stress suite, designed to run under ThreadSanitizer
// (cmake -DDCWS_SANITIZE=thread): every shared table the paper's design
// depends on — the GLT refreshed by piggyback headers and pinger
// probes, the coop table consulted per request, the LDG
// mutated by migration — is hammered from real threads in patterns that
// give TSan genuine interleavings to inspect.  The tests also run (and
// must pass) in plain builds; the assertions check liveness and
// bookkeeping sanity, while the sanitizer checks the memory model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/load/pinger.h"
#include "src/migrate/naming.h"
#include "src/obs/events.h"
#include "src/net/tcp.h"
#include "src/util/rng.h"
#include "tests/harness/cluster_harness.h"

namespace dcws {
namespace {

// Iteration counts tuned so the full file stays in the tens of seconds
// under TSan on one core while still crossing every lock thousands of
// times.
constexpr int kClientThreads = 4;
constexpr int kRequestsPerClient = 150;

storage::Document Doc(std::string path, std::string content) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

core::ServerParams StressParams() {
  core::ServerParams params;
  params.worker_threads = 3;
  params.stats_interval = Millis(50);
  params.load_window = Millis(100);
  params.pinger_interval = Millis(100);
  params.validation_interval = Millis(200);
  params.hit_threshold = 1;
  params.min_load_cps = 2;
  return params;
}

// Version `rev` of the raced document: a "rev N" line, then filler at a
// length that varies with N, so a body names the one version it must
// equal in full.
std::string Version(int rev) {
  std::string body = "rev " + std::to_string(rev) + "\n";
  body.resize(48 * 1024 + static_cast<size_t>(rev % 7) * 8191,
              static_cast<char>('a' + rev % 26));
  return body;
}

// ---------------------------------------------------------------------
// Table-level exercisers: tight windows on the individual shared
// structures, including the PingerPolicy failure table that worker
// threads update through piggyback absorption.
// ---------------------------------------------------------------------

TEST(RaceStressTest, PingerPolicySurvivesConcurrentProbeResults) {
  load::GlobalLoadTable glt;
  std::vector<http::ServerAddress> peers;
  for (int i = 0; i < 4; ++i) {
    peers.push_back({"peer" + std::to_string(i), 9000});
    glt.RegisterPeer(peers.back());
  }
  load::PingerPolicy pinger(Seconds(1));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Worker-thread pattern: piggyback successes and fetch failures.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(7 * t + 1);
      for (int i = 0; i < 4000; ++i) {
        const auto& peer = peers[rng.NextBelow(peers.size())];
        pinger.RecordProbeResult(peer, rng.NextBelow(3) != 0);
      }
    });
  }
  // Duty-thread pattern: probe planning and down-set reads.
  threads.emplace_back([&]() {
    while (!stop.load()) {
      (void)pinger.PeersToProbe(glt, Seconds(100));
      for (const auto& peer : peers) (void)pinger.IsDown(peer);
      (void)pinger.DownPeers();
    }
  });
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  // Drive every peer down, then recover each: the table must end empty.
  for (const auto& peer : peers) {
    for (int i = 0; i < 3; ++i) pinger.RecordProbeResult(peer, false);
    EXPECT_TRUE(pinger.IsDown(peer));
    pinger.RecordProbeResult(peer, true);
    EXPECT_FALSE(pinger.IsDown(peer));
  }
  EXPECT_TRUE(pinger.DownPeers().empty());
}

TEST(RaceStressTest, EventJournalEmitHammering) {
  // Writers hammer Emit (atomic seq claim + slot publish) while readers
  // run Snapshot / CountFor / depth concurrently; a small ring forces
  // constant slot reuse so TSan sees writer-vs-reader and
  // writer-vs-writer interleavings on the same slots.
  WallClock clock;
  obs::EventJournal journal("stress:1", &clock, 64);
  constexpr int kWriters = 4;
  constexpr int kEmitsPerWriter = 5000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&journal, t]() {
      for (int i = 0; i < kEmitsPerWriter; ++i) {
        obs::Event event;
        event.type =
            static_cast<obs::EventType>(i % obs::kEventTypeCount);
        event.doc = "/w" + std::to_string(t);
        event.detail = "emit " + std::to_string(i);
        if (i % 3 == 0) {
          event.glt.push_back(obs::GltRow{"peer:1", double(i), 10});
        }
        journal.Emit(std::move(event));
      }
    });
  }
  threads.emplace_back([&]() {
    uint64_t since = 0;
    while (!stop.load()) {
      std::vector<obs::Event> events = journal.Snapshot(since);
      for (const obs::Event& event : events) {
        ASSERT_GT(event.seq, since);
        since = std::max(since, event.seq);
      }
      for (size_t i = 0; i < obs::kEventTypeCount; ++i) {
        (void)journal.CountFor(static_cast<obs::EventType>(i));
      }
      (void)journal.depth();
      (void)journal.dropped();
    }
  });
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  const uint64_t expected = uint64_t{kWriters} * kEmitsPerWriter;
  EXPECT_EQ(journal.total(), expected);
  EXPECT_EQ(journal.dropped(), expected - 64);
  EXPECT_EQ(journal.depth(), 64u);
  uint64_t counted = 0;
  for (size_t i = 0; i < obs::kEventTypeCount; ++i) {
    counted += journal.CountFor(static_cast<obs::EventType>(i));
  }
  EXPECT_EQ(counted, expected);
}

TEST(RaceStressTest, GltConcurrentUpdatesKeepFreshestObservation) {
  load::GlobalLoadTable glt;
  http::ServerAddress self{"self", 9000};
  std::vector<http::ServerAddress> peers;
  for (int i = 0; i < 3; ++i) {
    peers.push_back({"glt" + std::to_string(i), 9000});
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(13 * t + 5);
      for (int i = 0; i < 3000; ++i) {
        const auto& peer = peers[rng.NextBelow(peers.size())];
        glt.Update(peer, static_cast<double>(i), i);
        (void)glt.LeastLoaded(self);
        (void)glt.Get(peer);
        if (i % 64 == 0) (void)glt.Snapshot();
        if (i % 128 == 0) (void)glt.StalePeers(i, Seconds(1));
      }
      // Deterministic capstone: thread t stamps "its" peer with a
      // timestamp newer than anything the random phase wrote.
      glt.Update(peers[t], static_cast<double>(t), 3000 + t);
    });
  }
  for (auto& thread : threads) thread.join();

  // Monotonicity: Update never lets an older observation win, so each
  // peer must carry exactly its capstone timestamp — a torn or lost
  // update under concurrency would leave something older (or garbage).
  for (int t = 0; t < 3; ++t) {
    auto entry = glt.Get(peers[t]);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry.value().updated_at, 3000 + t)
        << peers[t].ToString();
  }
}

// Responses share stored versions and write them to the socket after
// the store lock is released.  An author replacing a document while TCP
// clients fetch it must never tear a body: each one received is exactly
// one whole version.
TEST(RaceStressTest, PutDocumentRacesTcpGetsOfThePath) {
  WallClock clock;
  core::ServerParams params;
  params.worker_threads = 3;
  core::Server server({"race-home", 8001}, params, &clock);
  ASSERT_TRUE(server
                  .LoadSite({Doc("/index.html", "<a href=\"v.gif\">v</a>"),
                             Doc("/v.gif", Version(0))},
                            {"/index.html"})
                  .ok());
  net::TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok()) << host.status();
  const uint16_t port = (*host)->port();

  std::atomic<bool> stop{false};
  std::thread author([&] {
    for (int rev = 1; !stop.load(); ++rev) {
      (void)server.PutDocument(Doc("/v.gif", Version(rev)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::atomic<int> whole{0};
  std::atomic<int> broken{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        http::Request request;
        request.target = "/v.gif";
        auto response = net::TcpCall(port, request);
        if (!response.ok() || response->status_code != 200) {
          broken.fetch_add(1);
          continue;
        }
        const std::string& body = response->body;
        int rev = -1;
        if (body.rfind("rev ", 0) == 0) rev = std::atoi(body.c_str() + 4);
        (rev >= 0 && body == Version(rev) ? whole : broken).fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);
  author.join();
  network.StopAll();

  EXPECT_EQ(broken.load(), 0);
  EXPECT_EQ(whole.load(), kClientThreads * kRequestsPerClient);
}

// ---------------------------------------------------------------------
// Cluster-level stress: a three-server TCP cluster under client
// load while migration, piggybacking, validation sweeps, the pinger,
// author updates, crash injection and introspection all run at once.
// Built on the reusable ClusterHarness so convergence is asserted via
// its polling predicates (WaitSync) instead of sleeps.
// ---------------------------------------------------------------------

class ClusterStressTest : public ::testing::Test {
 protected:
  static test::ClusterHarness::Options StressOptions() {
    test::ClusterHarness::Options options;
    options.servers = 3;
    options.params = StressParams();
    options.host_prefix = "stress";
    options.base_port = 9001;
    return options;
  }

  ClusterStressTest()
      : harness_(StressOptions()),
        home_(harness_.server(0)),
        coop1_(harness_.server(1)),
        coop2_(harness_.server(2)) {
    std::vector<storage::Document> site;
    site.push_back(Doc("/index.html",
                       "<a href=\"a.html\">a</a><a href=\"b.html\">b</a>"
                       "<a href=\"c.html\">c</a>"));
    site.push_back(Doc("/a.html", "<img src=\"i.gif\"><a href=\"b.html\">"
                                  "b</a>"));
    site.push_back(Doc("/b.html", "<a href=\"c.html\">c</a><p>b</p>"));
    site.push_back(Doc("/c.html", "<p>c</p>"));
    site.push_back(Doc("/i.gif", std::string(2000, 'I')));
    EXPECT_TRUE(home_.LoadSite(site, {"/index.html"}).ok());
  }

  core::PeerClient& network() { return harness_.network(); }

  test::ClusterHarness harness_;
  core::Server& home_;
  core::Server& coop1_;
  core::Server& coop2_;
};

TEST_F(ClusterStressTest, FullClusterUnderConcurrentDuties) {
  std::atomic<bool> stop{false};
  std::atomic<int> responses{0};
  std::atomic<int> handled{0};  // non-503: reached a worker thread
  std::atomic<int> transport_errors{0};

  const std::string paths[] = {"/index.html", "/a.html", "/b.html",
                               "/c.html",     "/i.gif",  "/"};

  std::vector<std::thread> threads;

  // Client threads: plain requests plus follow-ups on the ~migrate form,
  // so the co-op fetch path (worker blocking on a peer's queue) runs
  // while the home's duty thread migrates more documents.
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(101 * t + 17);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        http::Request request;
        request.target = paths[rng.NextBelow(std::size(paths))];
        auto response = network().Execute(home_.address(), request);
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          continue;
        }
        responses.fetch_add(1);
        // 503 = bounded socket queue overflow: dropped by the front end
        // before any worker saw it, so it never reaches the counters.
        if (response->status_code != 503) handled.fetch_add(1);
        if (response->status_code == 301) {
          // Chase the redirect into the co-op, like a browser would.
          auto url = http::Url::Parse(
              std::string(response->headers.Get("Location").value_or("")));
          if (url.ok()) {
            http::Request follow;
            follow.target = url->path;
            (void)network().Execute({url->host, url->port}, follow);
          }
        }
      }
    });
  }

  // Author thread: content churn re-parses links and dirties dependents
  // while the same documents are being served and migrated.
  threads.emplace_back([&]() {
    Rng rng(4242);
    int rev = 0;
    while (!stop.load()) {
      std::string body = "<a href=\"a.html\">a</a><p>rev" +
                         std::to_string(++rev) + "</p>";
      (void)home_.PutDocument(Doc("/b.html", body));
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });

  // Chaos thread: bounce the third server so pinger failure counting,
  // down-peer revocation, and best-effort stale serves all engage.
  threads.emplace_back([&]() {
    while (!stop.load()) {
      harness_.StopServer(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      harness_.StartServer(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  });

  // Introspection thread: the read-side of every table, plus the
  // /.dcws/status text page (its GLT rows), raced against the writers
  // above.
  threads.emplace_back([&]() {
    while (!stop.load()) {
      (void)home_.counters();
      (void)home_.ldg().GetStats();
      (void)home_.ldg().SelectionSnapshot();
      (void)home_.glt().Snapshot();
      (void)coop1_.coop_table().Snapshot();
      (void)coop1_.coop_table().HomeServers();
      (void)home_.metrics().Snapshot();  // callback gauges read tables
      (void)home_.recent_traces().Snapshot();
      http::Request status;
      status.target = "/.dcws/status";
      (void)network().Execute(home_.address(), status);
      // The introspection endpoints exercise registry snapshotting and
      // both trace rings against the worker threads' hot-path updates.
      http::Request dcws_status;
      dcws_status.target = "/.dcws/status?format=prometheus";
      (void)network().Execute(home_.address(), dcws_status);
      http::Request traces;
      traces.target = "/.dcws/traces?format=json";
      (void)network().Execute(coop1_.address(), traces);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (int t = 0; t < kClientThreads; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kClientThreads; t < threads.size(); ++t) {
    threads[t].join();
  }

  // Liveness: every client call completed (the home is never stopped,
  // and its few concurrent callers cannot overflow its 100-deep socket
  // queue), and the home server itself was never marked down.
  EXPECT_EQ(responses.load() + transport_errors.load(),
            kClientThreads * kRequestsPerClient);
  EXPECT_EQ(transport_errors.load(), 0);

  // Bookkeeping sanity: the home's request counter saw every client
  // request that reached a worker (the introspection thread's status
  // calls add more), and no category counter overshot it.  A lost
  // counter update under the races above would break one of these.
  core::Server::Counters c = home_.counters();
  EXPECT_GE(c.requests, static_cast<uint64_t>(handled.load()));
  EXPECT_LE(c.served_local + c.served_coop + c.redirects + c.not_found,
            c.requests);
}

TEST_F(ClusterStressTest, MigrationAndRevocationUnderLoadConverge) {
  // Saturate one hot document so migration triggers, then let the
  // chaos-free cluster quiesce and verify the graph is still coherent.
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        http::Request request;
        request.target = "/i.gif";
        auto response = network().Execute(home_.address(), request);
        if (response.ok() && response->status_code == 301) {
          auto url = http::Url::Parse(std::string(
              response->headers.Get("Location").value_or("")));
          if (url.ok()) {
            http::Request follow;
            follow.target = url->path;
            (void)network().Execute({url->host, url->port}, follow);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Convergence without sleeping: the harness polls until every
  // placement points at a running member and no pair of servers
  // considers each other down.
  ASSERT_TRUE(harness_.WaitSync());

  // Every record is either home or at a registered peer, and every
  // migrated record's location resolves in the cluster.
  for (const auto& record : home_.ldg().Snapshot()) {
    if (record.location == home_.address()) continue;
    EXPECT_TRUE(record.location == coop1_.address() ||
                record.location == coop2_.address())
        << record.name << " migrated to unknown server "
        << record.location.ToString();
    EXPECT_FALSE(record.entry_point)
        << "entry point " << record.name << " must never migrate";
  }
}

}  // namespace
}  // namespace dcws
