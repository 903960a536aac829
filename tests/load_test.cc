#include <gtest/gtest.h>

#include <cmath>

#include "src/load/glt.h"
#include "src/load/piggyback.h"
#include "src/load/pinger.h"
#include "src/metrics/rate_window.h"
#include "src/metrics/time_series.h"

namespace dcws {
namespace {

using http::ServerAddress;
using load::GlobalLoadTable;
using load::LoadEntry;
using load::PingerPolicy;

const ServerAddress kS1{"s1", 8001};
const ServerAddress kS2{"s2", 8002};
const ServerAddress kS3{"s3", 8003};

// ----------------------------------------------------------- rate window

TEST(RateWindowTest, CpsOverWindow) {
  metrics::RateWindow window(Seconds(10));
  for (int i = 0; i < 50; ++i) {
    window.Record(Seconds(1) + i * Millis(10), 100);
  }
  // 50 connections within the window => 5 CPS over 10 s.
  EXPECT_NEAR(window.Cps(Seconds(2)), 5.0, 0.01);
  EXPECT_NEAR(window.Bps(Seconds(2)), 500.0, 1.0);
}

TEST(RateWindowTest, OldEventsExpire) {
  metrics::RateWindow window(Seconds(10));
  window.Record(Seconds(1), 1000);
  EXPECT_GT(window.Cps(Seconds(2)), 0.0);
  EXPECT_EQ(window.Cps(Seconds(30)), 0.0);
  EXPECT_EQ(window.Bps(Seconds(30)), 0.0);
  // Lifetime totals survive expiry.
  EXPECT_EQ(window.total_connections(), 1u);
  EXPECT_EQ(window.total_bytes(), 1000u);
}

TEST(RateWindowTest, BucketsBoundMemory) {
  metrics::RateWindow window(Seconds(1));
  for (int i = 0; i < 100000; ++i) {
    window.Record(i * 100, 10);  // 10k records per second
  }
  EXPECT_EQ(window.total_connections(), 100000u);
  EXPECT_GT(window.Cps(100000 * 100), 0.0);
}

TEST(RateWindowTest, SteadyRateAcrossSamplerTickBoundary) {
  // The history sampler reads Cps once per history_interval; a steady
  // arrival rate must read the same on both sides of a tick boundary
  // (no sawtooth from bucket rotation at the window edge).
  metrics::RateWindow window(Seconds(10));
  for (int i = 0; i < 1000; ++i) {
    window.Record(i * Millis(10), 100);  // 100 cps for 10 s
  }
  MicroTime tick = Seconds(10);  // exactly one window, one sampler tick
  double before = window.Cps(tick - Millis(1));
  double at = window.Cps(tick);
  double after = window.Cps(tick + Millis(1));
  EXPECT_NEAR(before, 100.0, 5.0);
  EXPECT_NEAR(at, 100.0, 5.0);
  EXPECT_NEAR(after, 100.0, 5.0);
  // Reading must not mutate: a second read at the same instant agrees.
  EXPECT_DOUBLE_EQ(window.Cps(tick), at);
}

TEST(RateWindowTest, ZeroWindowIsClampedNotDivideByZero) {
  // A zero (or negative) window from a miscomputed config clamps to
  // 1 us; Cps/Bps must return finite values, never divide by zero.
  for (MicroTime bad : {MicroTime{0}, MicroTime{-5}}) {
    metrics::RateWindow window(bad);
    EXPECT_EQ(window.window(), 1);
    window.Record(0, 100);
    double cps = window.Cps(0);
    double bps = window.Bps(0);
    EXPECT_TRUE(std::isfinite(cps)) << "window=" << bad;
    EXPECT_TRUE(std::isfinite(bps)) << "window=" << bad;
    EXPECT_GE(cps, 0.0);
  }
}

// ----------------------------------------------------------- time series

TEST(TimeSeriesTest, StatsHelpers) {
  metrics::TimeSeries series("cps", Seconds(10));
  for (int i = 1; i <= 10; ++i) {
    series.Append(i * Seconds(10), i * 1.0);
  }
  EXPECT_EQ(series.size(), 10u);
  EXPECT_DOUBLE_EQ(series.Max(), 10.0);
  EXPECT_DOUBLE_EQ(series.Mean(), 5.5);
  EXPECT_DOUBLE_EQ(series.TailMean(0.2), 9.5);  // mean of {9, 10}
}

TEST(TimeSeriesTest, SummaryPercentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  auto s = metrics::Summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.1);
  EXPECT_NEAR(s.mean, 50.5, 0.01);
  auto empty = metrics::Summarize({});
  EXPECT_EQ(empty.count, 0u);
}

// ----------------------------------------------------------- sample ring

TEST(SampleRingTest, FillsThenWrapsKeepingNewest) {
  metrics::SampleRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) {
    ring.Append(Seconds(i), i * 1.0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 4u);
  std::vector<metrics::Sample> all = ring.Snapshot();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().value, 0.0);
  EXPECT_EQ(all.back().value, 3.0);

  // Two more: the two oldest fall off, order stays oldest-first.
  ring.Append(Seconds(4), 4.0);
  ring.Append(Seconds(5), 5.0);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 6u);
  all = ring.Snapshot();
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(all[i].at, Seconds(2 + i));
    EXPECT_EQ(all[i].value, 2.0 + static_cast<double>(i));
  }
}

TEST(SampleRingTest, SnapshotSinceFiltersByTimestamp) {
  metrics::SampleRing ring(8);
  for (int i = 0; i < 6; ++i) {
    ring.Append(Seconds(i), i * 1.0);
  }
  std::vector<metrics::Sample> tail = ring.Snapshot(Seconds(4));
  ASSERT_EQ(tail.size(), 2u);  // at >= since is inclusive
  EXPECT_EQ(tail[0].at, Seconds(4));
  EXPECT_EQ(tail[1].at, Seconds(5));
  EXPECT_TRUE(ring.Snapshot(Seconds(100)).empty());
}

// ------------------------------------------------------------------- GLT

TEST(GltTest, UpdateAndGet) {
  GlobalLoadTable glt;
  glt.Update(kS1, 12.5, Seconds(1));
  auto entry = glt.Get(kS1);
  ASSERT_TRUE(entry.ok());
  EXPECT_DOUBLE_EQ(entry->load_metric, 12.5);
  EXPECT_TRUE(glt.Get(kS2).status().IsNotFound());
}

TEST(GltTest, StaleUpdateIgnored) {
  GlobalLoadTable glt;
  glt.Update(kS1, 10, Seconds(5));
  glt.Update(kS1, 99, Seconds(3));  // older observation
  EXPECT_DOUBLE_EQ(glt.Get(kS1)->load_metric, 10);
  glt.Update(kS1, 20, Seconds(6));
  EXPECT_DOUBLE_EQ(glt.Get(kS1)->load_metric, 20);
}

TEST(GltTest, LeastLoadedExcludesSelf) {
  GlobalLoadTable glt;
  glt.Update(kS1, 1, Seconds(1));
  glt.Update(kS2, 5, Seconds(1));
  glt.Update(kS3, 3, Seconds(1));
  EXPECT_EQ(glt.LeastLoaded(kS1).value(), kS3);
  EXPECT_EQ(glt.LeastLoaded(kS2).value(), kS1);
  GlobalLoadTable solo;
  solo.Update(kS1, 1, Seconds(1));
  EXPECT_FALSE(solo.LeastLoaded(kS1).has_value());
}

TEST(GltTest, NeverHeardPeerCountsAsIdle) {
  GlobalLoadTable glt;
  glt.Update(kS1, 10, Seconds(1));
  glt.RegisterPeer(kS2);  // no load info yet
  EXPECT_EQ(glt.LeastLoaded(kS1).value(), kS2);
}

TEST(GltTest, StalePeersByAge) {
  GlobalLoadTable glt;
  glt.Update(kS1, 1, Seconds(10));
  glt.Update(kS2, 1, Seconds(1));
  glt.RegisterPeer(kS3);  // never heard from => always stale
  auto stale = glt.StalePeers(Seconds(12), Seconds(5));
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0], kS2);
  EXPECT_EQ(stale[1], kS3);
}

// ------------------------------------------------------------- piggyback

TEST(PiggybackTest, EncodeDecodeRoundTrip) {
  std::vector<LoadEntry> entries = {
      {kS1, 12.5, Seconds(9)},
      {kS2, 0.0, Seconds(10)},
      {kS3, 700.25, -1},  // never heard: skipped
  };
  std::string header = load::EncodeLoadHeader(entries, Seconds(10));
  auto decoded = load::DecodeLoadHeader(header);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].server, kS1);
  EXPECT_NEAR(decoded[0].load_metric, 12.5, 1e-9);
  EXPECT_EQ(decoded[0].age, Seconds(1));
  EXPECT_EQ(decoded[1].server, kS2);
  EXPECT_EQ(decoded[1].age, 0);
}

TEST(PiggybackTest, DecodeSkipsMalformedEntries) {
  auto decoded = load::DecodeLoadHeader(
      "garbage,s1:8001=1.5;100,also=bad;x,:80=1;1,s2:8002=2.0;50");
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].server, kS1);
  EXPECT_EQ(decoded[1].server, kS2);
  EXPECT_TRUE(load::DecodeLoadHeader("").empty());
}

TEST(PiggybackTest, AttachAndAbsorb) {
  GlobalLoadTable sender;
  sender.Update(kS1, 42.0, Seconds(5));

  http::HeaderMap headers;
  load::AttachLoadInfo(sender, kS1, Seconds(6), headers);
  EXPECT_TRUE(headers.Has(http::kHeaderDcwsLoad));
  EXPECT_EQ(headers.Get(http::kHeaderDcwsServer).value(), "s1:8001");

  GlobalLoadTable receiver;
  auto from = load::AbsorbLoadInfo(headers, Seconds(8), receiver);
  ASSERT_TRUE(from.has_value());
  EXPECT_EQ(*from, kS1);
  auto entry = receiver.Get(kS1);
  ASSERT_TRUE(entry.ok());
  EXPECT_DOUBLE_EQ(entry->load_metric, 42.0);
  // Rebased: age 1s at send => updated_at = 8s - 1s = 7s.
  EXPECT_EQ(entry->updated_at, Seconds(7));
}

TEST(PiggybackTest, AbsorbWithoutHeadersIsNoop) {
  GlobalLoadTable receiver;
  http::HeaderMap empty;
  EXPECT_FALSE(load::AbsorbLoadInfo(empty, Seconds(1), receiver)
                   .has_value());
  EXPECT_EQ(receiver.size(), 0u);
}

// ---------------------------------------------------------------- pinger

// Records one failed probe per allowed failure: the streak that declares
// `peer` down.
void FailUntilDown(PingerPolicy& pinger, const ServerAddress& peer) {
  for (int i = 0; i < PingerPolicy::kMaxConsecutiveFailures; ++i) {
    pinger.RecordProbeResult(peer, false);
  }
}

TEST(PingerTest, ProbesStalePeersOnly) {
  GlobalLoadTable glt;
  glt.Update(kS1, 1, Seconds(100));
  glt.Update(kS2, 1, Seconds(50));
  PingerPolicy pinger(/*staleness_limit=*/Seconds(20));
  auto probes = pinger.PeersToProbe(glt, Seconds(105));
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0], kS2);
}

TEST(PingerTest, DeclaresDownAfterConsecutiveFailures) {
  PingerPolicy pinger(Seconds(20));
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, false);
  EXPECT_FALSE(pinger.IsDown(kS2));
  pinger.RecordProbeResult(kS2, false);
  EXPECT_TRUE(pinger.IsDown(kS2));
  ASSERT_EQ(pinger.DownPeers().size(), 1u);

  // Recovery clears the state.
  pinger.RecordProbeResult(kS2, true);
  EXPECT_FALSE(pinger.IsDown(kS2));
}

TEST(PingerTest, SuccessResetsFailureStreak) {
  PingerPolicy pinger(Seconds(20));
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, true);
  pinger.RecordProbeResult(kS2, false);
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 1);
  EXPECT_FALSE(pinger.IsDown(kS2));
}

TEST(PingerTest, DownPeersNotReprobed) {
  GlobalLoadTable glt;
  glt.RegisterPeer(kS2);
  PingerPolicy pinger(Seconds(20));
  FailUntilDown(pinger, kS2);
  EXPECT_TRUE(pinger.IsDown(kS2));
  EXPECT_TRUE(pinger.PeersToProbe(glt, Seconds(100)).empty());
}

TEST(PingerTest, RecoveryOneShortOfLimitNeverDeclaresDown) {
  // max-1 consecutive failures, then a success: the streak must reset to
  // zero, so a further max-1 failures still leave the peer up.
  PingerPolicy pinger(Seconds(20));
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, true);
  EXPECT_FALSE(pinger.IsDown(kS2));
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, false);
  EXPECT_FALSE(pinger.IsDown(kS2));
  EXPECT_TRUE(pinger.DownPeers().empty());
  // The third failure of the new streak finally tips it.
  pinger.RecordProbeResult(kS2, false);
  EXPECT_TRUE(pinger.IsDown(kS2));
}

TEST(PingerTest, RecoveredPeerBecomesProbeCandidateAgain) {
  GlobalLoadTable glt;
  glt.RegisterPeer(kS2);
  PingerPolicy pinger(Seconds(20));
  FailUntilDown(pinger, kS2);
  ASSERT_TRUE(pinger.IsDown(kS2));
  EXPECT_TRUE(pinger.PeersToProbe(glt, Seconds(100)).empty());

  // A piggybacked success (the machine came back) clears the down state;
  // the still-stale GLT row makes it probe-worthy immediately.
  pinger.RecordProbeResult(kS2, true);
  EXPECT_FALSE(pinger.IsDown(kS2));
  auto probes = pinger.PeersToProbe(glt, Seconds(100));
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0], kS2);
}

TEST(PingerTest, EmptyGltYieldsNoProbes) {
  GlobalLoadTable glt;
  PingerPolicy pinger(Seconds(20));
  EXPECT_TRUE(pinger.PeersToProbe(glt, Seconds(100)).empty());
  EXPECT_TRUE(pinger.DownPeers().empty());
  EXPECT_FALSE(pinger.IsDown(kS1));  // never-seen peer is not down
}

TEST(PingerTest, FailureStreakExactlyAtThresholdBoundary) {
  // The declared-down transition happens exactly AT max failures, never
  // one short of it, and the streak counter is observable at each step.
  PingerPolicy pinger(Seconds(20));
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 0);
  pinger.RecordProbeResult(kS2, false);
  pinger.RecordProbeResult(kS2, false);
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 2);
  EXPECT_FALSE(pinger.IsDown(kS2)) << "threshold - 1 must stay up";
  pinger.RecordProbeResult(kS2, false);
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 3);
  EXPECT_TRUE(pinger.IsDown(kS2)) << "threshold must tip it";
  // Extra failures past the threshold keep it down, monotonically.
  pinger.RecordProbeResult(kS2, false);
  EXPECT_TRUE(pinger.IsDown(kS2));
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 4);
}

TEST(PingerTest, InjectedProbeFailureForcesEveryResultToFailure) {
  // The chaos harness's pinger partition: while injected, successes
  // recorded about the peer (probes, piggyback receipts, fetch
  // outcomes) count as failures — data flows, liveness evidence lost.
  PingerPolicy pinger(Seconds(20));
  EXPECT_FALSE(pinger.IsProbeFailureInjected(kS2));
  pinger.InjectProbeFailure(kS2, true);
  EXPECT_TRUE(pinger.IsProbeFailureInjected(kS2));
  for (int i = 0; i < PingerPolicy::kMaxConsecutiveFailures; ++i) {
    pinger.RecordProbeResult(kS2, true);
  }
  EXPECT_TRUE(pinger.IsDown(kS2));

  // Healing the partition does not by itself bring the peer back ...
  pinger.InjectProbeFailure(kS2, false);
  EXPECT_FALSE(pinger.IsProbeFailureInjected(kS2));
  EXPECT_TRUE(pinger.IsDown(kS2));
  // ... only fresh traffic-carried evidence does.
  pinger.RecordProbeResult(kS2, true);
  EXPECT_FALSE(pinger.IsDown(kS2));
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 0);
}

TEST(PingerTest, ForgetDropsAllStateForPeer) {
  // Membership removal: a forgotten peer leaves no down marking, no
  // failure streak, and no injection flag behind.
  PingerPolicy pinger(Seconds(20));
  pinger.InjectProbeFailure(kS2, true);
  FailUntilDown(pinger, kS2);
  ASSERT_TRUE(pinger.IsDown(kS2));
  pinger.Forget(kS2);
  EXPECT_FALSE(pinger.IsDown(kS2));
  EXPECT_EQ(pinger.ConsecutiveFailures(kS2), 0);
  EXPECT_FALSE(pinger.IsProbeFailureInjected(kS2));
  EXPECT_TRUE(pinger.DownPeers().empty());
}

}  // namespace
}  // namespace dcws
