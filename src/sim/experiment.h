#ifndef DCWS_SIM_EXPERIMENT_H_
#define DCWS_SIM_EXPERIMENT_H_

#include "src/metrics/time_series.h"
#include "src/sim/sim_client.h"
#include "src/sim/sim_cluster.h"
#include "src/workload/site.h"

namespace dcws::sim {

// One benchmark run: N servers (host 0 home, rest co-op), M Algorithm-2
// clients, warm-up then a measured steady-state window.
struct ExperimentConfig {
  SimConfig sim;
  int clients = 32;

  // Warm-up lets migration spread the document graph before measuring.
  MicroTime warmup = 240 * kMicrosPerSecond;
  // During warm-up the migration pacing is optionally accelerated
  // (Table 1 pacing moves one document per 10 s, which would take hours
  // of virtual time to spread a site across 16 servers); Table-1 values
  // are restored before the measured window.  Figure 8 runs with this
  // off to show the honest cold-start curve.
  bool accelerated_warmup = true;
  MicroTime settle = 10 * kMicrosPerSecond;  // after restoring pacing

  MicroTime measure = 60 * kMicrosPerSecond;
  MicroTime sample_interval = 10 * kMicrosPerSecond;
};

struct ExperimentResult {
  double cps = 0;        // mean connections/s over the measured window
  double bps = 0;        // mean body bytes/s over the measured window
  double drop_rate = 0;  // 503s / (connections + 503s), measured window
  metrics::TimeSeries cps_series{"cps", 0};
  metrics::TimeSeries bps_series{"bps", 0};
  ClientTotals window_totals;         // deltas over the measured window
  ClientTotals client_totals;         // lifetime client-side totals
  // Cluster-wide merged metric registry (lifetime), the same schema a
  // live server serves at /.dcws/status; bench --metrics-json dumps it.
  std::vector<obs::MetricSnapshot> metrics;
  // Per-host structured event streams (lifetime): every host's
  // migration/recall/liveness decision audit, schema-identical to a
  // live server's GET /.dcws/events.
  std::vector<SimWorld::HostEvents> host_events;
  // Per-host metric history rings (lifetime tail): periodic samples of
  // every instrument, schema-identical to GET /.dcws/history.  The sim
  // ticks drive the samplers on virtual time (history_interval).
  std::vector<SimWorld::HostHistory> host_history;
  // Client-perceived response-time distribution over the measured
  // window (ms) — the "RTT" metric the paper could not measure (§5.3).
  metrics::Summary latency_ms;
};

// Builds the world, runs warm-up + measurement, returns steady-state
// rates and the sampled series.  Deterministic for a given config.
ExperimentResult RunExperiment(const workload::SiteSpec& site,
                               const ExperimentConfig& config);

// Time-series variant used by Figure 8: samples CPS/BPS every
// `sample_interval` from t = 0 (cold start, honest Table-1 pacing) for
// `duration`.
struct GrowthResult {
  metrics::TimeSeries cps_series{"cps", 0};
  metrics::TimeSeries bps_series{"bps", 0};
  // Cluster-wide dcws_migrations_total{direction="out"} at each sample.
  metrics::TimeSeries migrations_series{"migrations", 0};
  // Cluster-wide merged metric registry at the end of the run.
  std::vector<obs::MetricSnapshot> metrics;
};
GrowthResult RunGrowthExperiment(const workload::SiteSpec& site,
                                 SimConfig sim, int clients,
                                 MicroTime duration,
                                 MicroTime sample_interval);

}  // namespace dcws::sim

#endif  // DCWS_SIM_EXPERIMENT_H_
