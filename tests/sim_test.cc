#include <gtest/gtest.h>

#include <utility>

#include "src/core/cluster.h"
#include "src/obs/export.h"
#include "src/sim/event_queue.h"
#include "src/sim/experiment.h"
#include "src/sim/sim_client.h"
#include "src/sim/sim_cluster.h"
#include "src/workload/browse.h"
#include "src/workload/site.h"

namespace dcws::sim {
namespace {

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(Seconds(3), [&]() { order.push_back(3); });
  queue.ScheduleAt(Seconds(1), [&]() { order.push_back(1); });
  queue.ScheduleAt(Seconds(2), [&]() { order.push_back(2); });
  while (queue.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.executed(), 3u);
}

TEST(EventQueueTest, FifoAmongEqualTimestamps) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.ScheduleAt(Seconds(1), [&order, i]() { order.push_back(i); });
  }
  while (queue.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockAdvancesWithEvents) {
  EventQueue queue;
  MicroTime seen = -1;
  queue.ScheduleAfter(Seconds(5), [&]() { seen = queue.Now(); });
  queue.RunUntil(Seconds(4));
  EXPECT_EQ(seen, -1);
  EXPECT_EQ(queue.Now(), Seconds(4));
  queue.RunUntil(Seconds(6));
  EXPECT_EQ(seen, Seconds(5));
  EXPECT_EQ(queue.Now(), Seconds(6));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 10) queue.ScheduleAfter(Seconds(1), chain);
  };
  queue.ScheduleAfter(Seconds(1), chain);
  queue.RunUntil(Seconds(100));
  EXPECT_EQ(fired, 10);
}

// -------------------------------------------------------------- SimWorld

workload::SiteSpec TinySite() {
  workload::SyntheticConfig config;
  config.pages = 20;
  config.images = 10;
  config.links_per_page = 4;
  config.images_per_page = 2;
  config.page_bytes = 2000;
  config.image_bytes = 1000;
  Rng rng(5);
  return workload::BuildSynthetic(config, rng);
}

TEST(SimWorldTest, HostsArePeeredAndSeeded) {
  SimConfig config;
  config.servers = 3;
  SimWorld world(TinySite(), config);
  EXPECT_EQ(world.host_count(), 3u);
  EXPECT_EQ(world.host(0).server().store().Count(), 30u);
  EXPECT_EQ(world.host(1).server().store().Count(), 0u);
  EXPECT_EQ(world.host(0).server().glt().size(), 3u);
  ASSERT_EQ(world.entry_urls().size(), 1u);
  EXPECT_EQ(world.entry_urls()[0].host, world.host(0).address().host);
}

TEST(SimWorldTest, ReplicateEverywhereSeedsAllHosts) {
  SimConfig config;
  config.servers = 3;
  config.replicate_site_everywhere = true;
  SimWorld world(TinySite(), config);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.host(i).server().store().Count(), 30u);
  }
}

TEST(SimWorldTest, SubmitQueuesAndRespondsInVirtualTime) {
  SimConfig config;
  SimWorld world(TinySite(), config);
  http::Request request;
  request.target = "/site/page0.html";

  int responses = 0;
  MicroTime completion = 0;
  world.host(0).Submit(request, [&](http::Response response) {
    EXPECT_EQ(response.status_code, 200);
    ++responses;
    completion = world.Now();
  });
  EXPECT_EQ(responses, 0);  // nothing runs until the queue drains
  world.queue().RunUntil(Seconds(1));
  EXPECT_EQ(responses, 1);
  // Service takes connection CPU + NIC time: strictly positive.
  EXPECT_GT(completion, 0);
}

TEST(SimWorldTest, BacklogOverflowYields503) {
  SimConfig config;
  config.params.socket_queue_length = 5;
  SimWorld world(TinySite(), config);
  http::Request request;
  request.target = "/site/page0.html";

  int ok = 0, dropped = 0;
  for (int i = 0; i < 20; ++i) {
    world.host(0).Submit(request, [&](http::Response response) {
      if (response.status_code == 200) ++ok;
      if (response.status_code == 503) ++dropped;
    });
  }
  world.queue().RunUntil(Seconds(5));
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(dropped, 15);
  EXPECT_EQ(world.host(0).drops(), 15u);
}

TEST(SimWorldTest, ExecuteChargesRemoteHost) {
  SimConfig config;
  config.servers = 2;
  SimWorld world(TinySite(), config);
  http::Request request;
  request.target = "/site/page1.html";
  request.headers.Set(std::string(http::kHeaderDcwsInternal), "fetch");
  auto response = world.Execute(world.host(0).address(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
}

TEST(SimWorldTest, DownHostUnreachable) {
  SimConfig config;
  config.servers = 2;
  SimWorld world(TinySite(), config);
  world.SetDown(world.host(1).address(), true);
  http::Request request;
  request.target = "/x";
  auto response = world.Execute(world.host(1).address(), request);
  EXPECT_TRUE(response.status().IsUnavailable());
  world.SetDown(world.host(1).address(), false);
  EXPECT_FALSE(world.Execute(world.host(1).address(), request)
                   .status()
                   .IsUnavailable());
}

TEST(SimWorldTest, HostProfilesShapeCostAndRtt) {
  SimConfig config;
  config.servers = 3;
  config.host_profiles.resize(3);
  config.host_profiles[1].cpu_scale = 2.0;
  config.host_profiles[2].extra_rtt = Millis(40);
  SimWorld world(TinySite(), config);

  // RTT includes the WAN distance both ways.
  EXPECT_EQ(world.RttTo(world.host(0).address()),
            world.config().calib.rtt);
  EXPECT_EQ(world.RttTo(world.host(2).address()),
            world.config().calib.rtt + 2 * Millis(40));

  // A 2x host halves the CPU component of service time.
  http::Response response = http::MakeOkResponse("x", "text/plain");
  core::RequestTrace trace;
  MicroTime base = world.host(0).ServiceTime(response, trace);
  MicroTime fast = world.host(1).ServiceTime(response, trace);
  EXPECT_LT(fast, base);
  EXPECT_NEAR(static_cast<double>(fast),
              static_cast<double>(base) / 2.0, 2.0);
}

TEST(SimWorldTest, LatencySamplesAccumulateAndReset) {
  SimConfig config;
  SimWorld world(TinySite(), config);
  auto clients = StartClients(&world, 4, 5);
  world.queue().RunUntil(Seconds(20));
  auto samples = world.TakeLatencySamplesMs();
  ASSERT_FALSE(samples.empty());
  for (double ms : samples) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10'000.0);
  }
  world.ResetLatencySamples();
  EXPECT_TRUE(world.TakeLatencySamplesMs().empty());
}

// ------------------------------------------------------------- SimClient

TEST(SimClientTest, WalksGenerateTraffic) {
  SimConfig config;
  SimWorld world(TinySite(), config);
  auto clients = StartClients(&world, 4, /*seed=*/9);
  world.queue().RunUntil(Seconds(30));

  const ClientTotals& totals = world.totals();
  EXPECT_GT(totals.connections, 100u);
  EXPECT_GT(totals.bytes, 50'000u);
  EXPECT_EQ(totals.failures, 0u);
  uint64_t walks = 0;
  for (const auto& client : clients) walks += client->walks_completed();
  EXPECT_GT(walks, 10u);
}

TEST(SimClientTest, DeterministicForSeed) {
  auto run = [&](uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    SimWorld world(TinySite(), config);
    auto clients = StartClients(&world, 4, seed);
    world.queue().RunUntil(Seconds(20));
    return world.totals().connections;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// Fetches from an in-process server group and records each URL asked.
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

// The event-queue driver (four image helpers, virtual time) and the
// synchronous driver (one fetch at a time) run one Walk, so for a seed
// they request the same URLs in the same order.  One server, so no 301
// and no 503 can reorder a page's images between the two.
TEST(SimClientTest, RequestsTheSameUrlsAsBrowsingClient) {
  constexpr uint64_t kSeed = 17;
  Rng site_rng(42);
  workload::SiteSpec site = workload::BuildLod(site_rng);

  SimConfig config;
  SimWorld world(site, config);
  std::vector<std::string> simulated;
  world.SetSubmitInterceptor([&](const http::ServerAddress& target,
                                 const http::Request& request,
                                 SimHost::ResponseCallback) {
    simulated.push_back(
        http::Url{target.host, target.port, request.target}.ToString());
    return false;  // the host serves it
  });
  SimClient sim_client(&world, workload::PickUniformly(world.entry_urls()),
                       kSeed);
  sim_client.Start();
  while (simulated.size() < 500) {
    world.queue().RunUntil(world.Now() + Seconds(1));
  }

  ManualClock clock(Seconds(1));
  core::Cluster cluster(1, config.params, &clock, "node");
  ASSERT_TRUE(cluster.server(0)
                  .LoadSite(site.documents, site.entry_points)
                  .ok());
  ASSERT_EQ(cluster.server(0).address().ToString(),
            world.host(0).address().ToString());
  RecordingFetcher fetcher(&cluster.network());
  // SimClient draws its start stagger from the walk's Rng before the
  // first entry pick; this picker makes the same draw first.
  bool staggered = false;
  workload::EntryPicker uniform = workload::PickUniformly(world.entry_urls());
  workload::BrowsingClient browser(
      [&](Rng& rng) {
        if (!std::exchange(staggered, true)) rng.NextBelow(kMicrosPerSecond);
        return uniform(rng);
      },
      kSeed);
  while (fetcher.urls.size() < simulated.size()) browser.RunWalk(fetcher);

  fetcher.urls.resize(simulated.size());
  EXPECT_EQ(fetcher.urls, simulated);
  EXPECT_GT(sim_client.walks_completed(), 1u);
}

TEST(SimClientTest, BacksOffAfterDrops) {
  SimConfig config;
  config.params.socket_queue_length = 2;  // tiny backlog: drop storm
  SimWorld world(TinySite(), config);
  auto clients = StartClients(&world, 50, 3);
  world.queue().RunUntil(Seconds(30));
  EXPECT_GT(world.totals().drops, 0u);
  // The system keeps making progress despite drops.
  EXPECT_GT(world.totals().connections, 100u);
}

// ----------------------------------------------------------- Metrics

// The registry's outcome family must reconcile exactly with what the
// simulated clients observed: every client-opened connection lands in
// one outcome, queue drops included (CountQueueDrop parity).
TEST(SimWorldTest, MetricsReconcileWithClientTotals) {
  SimConfig config;
  config.params.socket_queue_length = 4;  // small backlog: force drops
  SimWorld world(TinySite(), config);
  auto clients = StartClients(&world, 24, /*seed=*/11);
  world.queue().RunUntil(Seconds(60));
  // Freeze new client traffic (swallow submissions) and let in-flight
  // requests drain, so the server-side counts reconcile exactly.
  world.SetSubmitInterceptor(
      [](const http::ServerAddress&, const http::Request&,
         SimHost::ResponseCallback) { return true; });
  world.queue().RunUntil(Seconds(70));

  const ClientTotals& totals = world.totals();
  std::vector<obs::MetricSnapshot> merged = world.AggregateMetrics();
  auto outcome = [&](const char* o) -> uint64_t {
    const obs::MetricSnapshot* m =
        obs::FindMetric(merged, "dcws_requests_total", {{"outcome", o}});
    return m == nullptr ? 0 : static_cast<uint64_t>(m->value);
  };
  EXPECT_EQ(outcome("served_local") + outcome("served_coop"), totals.ok);
  EXPECT_EQ(outcome("redirect"), totals.redirects);
  EXPECT_EQ(outcome("overloaded") + outcome("dropped"), totals.drops);
  EXPECT_EQ(outcome("not_found"), totals.failures);  // all hosts up
  EXPECT_GT(totals.drops, 0u) << "config should have forced drops";

  // Virtual-clock latency histograms populate in the sim path too.
  const obs::MetricSnapshot* latency = obs::FindMetric(
      merged, "dcws_request_latency_us", {{"kind", "client"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, totals.ok + totals.redirects +
                                     totals.failures +
                                     outcome("overloaded"));
}

// ------------------------------------------------------------ Experiment

uint64_t Migrations(const std::vector<obs::MetricSnapshot>& metrics) {
  const obs::MetricSnapshot* migrations = obs::FindMetric(
      metrics, "dcws_migrations_total", {{"direction", "out"}});
  return migrations == nullptr ? 0 : static_cast<uint64_t>(migrations->value);
}

TEST(ExperimentTest, SingleServerSaturates) {
  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);
  ExperimentConfig config;
  config.sim.servers = 1;
  config.clients = 64;
  config.warmup = Seconds(30);
  config.measure = Seconds(10);
  ExperimentResult result = RunExperiment(site, config);
  // Near the calibrated single-server peak (~900 CPS).
  EXPECT_GT(result.cps, 700);
  EXPECT_LT(result.cps, 1100);
  EXPECT_GT(result.bps, 1e6);
}

TEST(ExperimentTest, MoreServersMoreThroughput) {
  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);
  auto run = [&](int servers) {
    ExperimentConfig config;
    config.sim.servers = servers;
    config.sim.params.selection.hit_threshold = 4;
    config.clients = 120;
    config.warmup = Seconds(120);
    config.measure = Seconds(10);
    return RunExperiment(site, config);
  };
  ExperimentResult one = run(1);
  ExperimentResult four = run(4);
  EXPECT_GT(four.cps, one.cps * 2.0)
      << "4 servers should far outperform 1";
  EXPECT_GT(Migrations(four.metrics), 20u);
}

TEST(ExperimentTest, LatencySummaryIsPopulatedAndSane) {
  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);
  auto run = [&](int clients) {
    ExperimentConfig config;
    config.sim.servers = 1;
    config.clients = clients;
    config.warmup = Seconds(20);
    config.measure = Seconds(20);
    return RunExperiment(site, config);
  };
  ExperimentResult light = run(8);
  ExperimentResult heavy = run(96);
  ASSERT_GT(light.latency_ms.count, 100u);
  // Unloaded latency ~ rtt + service (a few ms); under saturation the
  // socket queue dominates and the tail stretches.
  EXPECT_LT(light.latency_ms.p50, 10.0);
  EXPECT_GT(heavy.latency_ms.p50, light.latency_ms.p50 * 3)
      << "light p50=" << light.latency_ms.p50
      << " heavy p50=" << heavy.latency_ms.p50;
  EXPECT_GE(heavy.latency_ms.p99, heavy.latency_ms.p50);
}

TEST(ExperimentTest, GrowthCurveRises) {
  // Small site so honest Table-1 pacing (one migration per 10 s) can
  // spread most of it within the test window; Figure 8 proper runs the
  // full 30 minutes on LOD.
  SimConfig config;
  config.servers = 4;
  GrowthResult growth = RunGrowthExperiment(
      TinySite(), config, /*clients=*/64, Seconds(300), Seconds(10));
  ASSERT_GE(growth.cps_series.size(), 10u);
  double early = growth.cps_series.value_at(1);
  double late = growth.cps_series.TailMean(0.2);
  EXPECT_GT(late, early * 1.3)
      << "cold start should climb as migrations land (early=" << early
      << ", late=" << late << ")";
  EXPECT_GT(Migrations(growth.metrics), 5u);
}

}  // namespace
}  // namespace dcws::sim
