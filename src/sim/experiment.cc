#include "src/sim/experiment.h"

#include "src/obs/export.h"

namespace dcws::sim {

namespace {

// Samples the totals delta over each interval into CPS/BPS series.
class Sampler {
 public:
  Sampler(SimWorld* world, MicroTime interval)
      : world_(world),
        interval_(interval),
        cps_("cps", interval),
        bps_("bps", interval) {}

  void Reset() {
    last_ = world_->totals();
    base_drops_ = last_.drops;
  }

  void Sample() {
    ClientTotals now = world_->totals();
    double dt = ToSeconds(interval_);
    cps_.Append(world_->Now(),
                static_cast<double>(now.connections - last_.connections) /
                    dt);
    bps_.Append(world_->Now(),
                static_cast<double>(now.bytes - last_.bytes) / dt);
    last_ = now;
  }

  metrics::TimeSeries& cps() { return cps_; }
  metrics::TimeSeries& bps() { return bps_; }

  ClientTotals DeltaSince(const ClientTotals& start) const {
    ClientTotals now = world_->totals();
    ClientTotals delta;
    delta.connections = now.connections - start.connections;
    delta.ok = now.ok - start.ok;
    delta.redirects = now.redirects - start.redirects;
    delta.drops = now.drops - start.drops;
    delta.failures = now.failures - start.failures;
    delta.bytes = now.bytes - start.bytes;
    return delta;
  }

 private:
  SimWorld* world_;
  MicroTime interval_;
  metrics::TimeSeries cps_;
  metrics::TimeSeries bps_;
  ClientTotals last_;
  uint64_t base_drops_ = 0;
};

void SetClusterPacing(SimWorld& world, MicroTime stats_interval,
                      MicroTime migration_interval,
                      MicroTime coop_accept_interval) {
  for (size_t i = 0; i < world.host_count(); ++i) {
    world.host(i).server().SetPacing(stats_interval, migration_interval,
                                     coop_accept_interval);
  }
}

}  // namespace

ExperimentResult RunExperiment(const workload::SiteSpec& site,
                               const ExperimentConfig& config) {
  SimWorld world(site, config.sim);
  auto clients = StartClients(&world, config.clients, config.sim.seed);

  // Warm-up: let migration spread the graph.
  if (config.accelerated_warmup) {
    SetClusterPacing(world, kMicrosPerSecond / 4, kMicrosPerSecond / 4,
                     kMicrosPerSecond / 2);
  }
  world.queue().RunUntil(config.warmup);

  if (config.accelerated_warmup) {
    SetClusterPacing(world, config.sim.params.stats_interval,
                     config.sim.params.stats_interval,
                     config.sim.params.coop_accept_interval);
    world.queue().RunUntil(config.warmup + config.settle);
  }

  // Measured window.
  Sampler sampler(&world, config.sample_interval);
  sampler.Reset();
  world.ResetLatencySamples();
  ClientTotals window_start = world.totals();
  MicroTime measure_start = world.Now();
  MicroTime next_sample = measure_start + config.sample_interval;
  MicroTime end = measure_start + config.measure;
  while (next_sample <= end) {
    world.queue().RunUntil(next_sample);
    sampler.Sample();
    next_sample += config.sample_interval;
  }
  world.queue().RunUntil(end);
  // Quiesce: swallow new submissions and let in-flight responses land so
  // the server-side outcome counters reconcile exactly with the client
  // totals in `result.metrics`.
  world.SetSubmitInterceptor(
      [](const http::ServerAddress&, const http::Request&,
         SimHost::ResponseCallback) { return true; });
  world.queue().RunUntil(end + Seconds(10));

  ExperimentResult result;
  result.window_totals = sampler.DeltaSince(window_start);
  double seconds = ToSeconds(config.measure);
  result.cps =
      static_cast<double>(result.window_totals.connections) / seconds;
  result.bps = static_cast<double>(result.window_totals.bytes) / seconds;
  uint64_t offered =
      result.window_totals.connections + result.window_totals.drops;
  result.drop_rate =
      offered == 0 ? 0
                   : static_cast<double>(result.window_totals.drops) /
                         static_cast<double>(offered);
  result.cps_series = std::move(sampler.cps());
  result.bps_series = std::move(sampler.bps());
  result.client_totals = world.totals();
  result.metrics = world.AggregateMetrics();
  result.host_events = world.CollectEventStreams();
  result.host_history = world.CollectHistory();
  result.latency_ms = metrics::Summarize(world.TakeLatencySamplesMs());
  return result;
}

GrowthResult RunGrowthExperiment(const workload::SiteSpec& site,
                                 SimConfig sim, int clients,
                                 MicroTime duration,
                                 MicroTime sample_interval) {
  SimWorld world(site, sim);
  auto client_objects = StartClients(&world, clients, sim.seed);

  GrowthResult result;
  result.cps_series = metrics::TimeSeries("cps", sample_interval);
  result.bps_series = metrics::TimeSeries("bps", sample_interval);
  result.migrations_series =
      metrics::TimeSeries("migrations", sample_interval);

  ClientTotals last = world.totals();
  for (MicroTime t = sample_interval; t <= duration;
       t += sample_interval) {
    world.queue().RunUntil(t);
    ClientTotals now = world.totals();
    double dt = ToSeconds(sample_interval);
    result.cps_series.Append(
        t, static_cast<double>(now.connections - last.connections) / dt);
    result.bps_series.Append(
        t, static_cast<double>(now.bytes - last.bytes) / dt);
    result.metrics = world.AggregateMetrics();
    const obs::MetricSnapshot* migrations =
        obs::FindMetric(result.metrics, "dcws_migrations_total",
                        {{"direction", "out"}});
    result.migrations_series.Append(
        t, migrations == nullptr ? 0 : migrations->value);
    last = now;
  }
  return result;
}

}  // namespace dcws::sim
