// Regenerates Table 2: qualitative tuning trade-offs of the five server
// parameters (§5.3 "Performance tuning").  For each parameter we run the
// same cold-start experiment with a low, default (Table 1) and high
// value and report the observables each trade-off predicts:
//
//   T_st   — higher: longer delay to balance load
//            lower:  overhead from more frequent migration/recalculation
//   T_pi   — higher: less accurate statistics
//            lower:  overhead from forced pinger requests
//   T_val  — higher: less piggybacked statistics, lower consistency
//            lower:  more retransmission of unchanged documents
//   T_home — higher: higher consistency, slower adjustment
//            lower:  more migration/redirection overhead
//   T_coop — higher: less frequent migration, chance of over-migration
//            lower:  shorter delay to balance load

#include <functional>
#include <vector>

#include "bench/bench_util.h"

namespace dcws {
namespace {

struct Observation {
  double final_cps = 0;          // steady performance reached
  double time_to_half = 0;       // seconds to reach 50% of final CPS
  uint64_t migrations = 0;
  uint64_t revocations = 0;
  uint64_t coop_fetches = 0;     // physical transfers (incl. validation)
  uint64_t pings = 0;
  uint64_t regenerations = 0;
};

Observation Observe(const core::ServerParams& params) {
  sim::SimConfig sim_config;
  sim_config.params = params;
  sim_config.servers = 8;
  sim_config.seed = 42;
  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);

  MicroTime duration = bench::FastMode() ? Seconds(240) : Seconds(900);
  int clients = bench::FastMode() ? 64 : 200;
  sim::GrowthResult growth = sim::RunGrowthExperiment(
      site, sim_config, clients, duration, Seconds(10));

  Observation obs;
  obs.final_cps = growth.cps_series.TailMean(0.2);
  for (size_t i = 0; i < growth.cps_series.size(); ++i) {
    if (growth.cps_series.value_at(i) >= obs.final_cps / 2) {
      obs.time_to_half =
          ToSeconds(growth.cps_series.time_at(i));
      break;
    }
  }
  obs.migrations = bench::CounterValue(
      growth.metrics, "dcws_migrations_total", {{"direction", "out"}});
  obs.revocations =
      bench::CounterValue(growth.metrics, "dcws_revocations_total");
  obs.coop_fetches =
      bench::CounterValue(growth.metrics, "dcws_coop_fetches_total");
  obs.pings = bench::CounterValue(growth.metrics, "dcws_pings_total");
  obs.regenerations =
      bench::CounterValue(growth.metrics, "dcws_regenerations_total");
  return obs;
}

void Run() {
  bench::PrintHeader("Table 2: tuning server parameters (LOD, 8 servers,"
                     " cold start, honest pacing)");

  struct Sweep {
    const char* name;
    const char* tendency;
    std::function<void(core::ServerParams&, MicroTime)> apply;
    MicroTime low;
    MicroTime base;
    MicroTime high;
  };
  std::vector<Sweep> sweeps = {
      {"T_st", "high=slow balancing, low=migration overhead",
       [](core::ServerParams& p, MicroTime v) {
         p.stats_interval = v;
         p.load_window = v;
       },
       Seconds(2), Seconds(10), Seconds(40)},
      {"T_pi", "high=stale statistics, low=forced pinger traffic",
       [](core::ServerParams& p, MicroTime v) { p.pinger_interval = v; },
       Seconds(5), Seconds(20), Seconds(120)},
      {"T_val", "high=lower consistency, low=revalidation transfers",
       [](core::ServerParams& p, MicroTime v) {
         p.validation_interval = v;
       },
       Seconds(30), Seconds(120), Seconds(600)},
      {"T_home", "high=slow adjustment, low=migration churn",
       [](core::ServerParams& p, MicroTime v) {
         p.remigrate_interval = v;
       },
       Seconds(60), Seconds(300), Seconds(1200)},
      {"T_coop", "high=over-migration risk, low=fast balancing",
       [](core::ServerParams& p, MicroTime v) {
         p.coop_accept_interval = v;
       },
       Seconds(15), Seconds(60), Seconds(240)},
  };

  for (const Sweep& sweep : sweeps) {
    bench::PrintHeader(std::string(sweep.name) + " — " + sweep.tendency);
    metrics::TablePrinter table({"value (s)", "final CPS", "t50 (s)",
                                 "migr", "revoc", "fetches", "pings",
                                 "regens"});
    for (MicroTime value : {sweep.low, sweep.base, sweep.high}) {
      core::ServerParams params;
      sweep.apply(params, value);
      Observation obs = Observe(params);
      table.AddRow({std::to_string(value / kMicrosPerSecond),
                    metrics::TablePrinter::Num(obs.final_cps, 0),
                    metrics::TablePrinter::Num(obs.time_to_half, 0),
                    std::to_string(obs.migrations),
                    std::to_string(obs.revocations),
                    std::to_string(obs.coop_fetches),
                    std::to_string(obs.pings),
                    std::to_string(obs.regenerations)});
      std::fflush(stdout);
    }
    table.Print(std::cout);
  }

  std::printf(
      "\nRead each block against the paper's predicted tendency: e.g.\n"
      "small T_st reaches half throughput sooner but with more\n"
      "migrations/regenerations; small T_val inflates fetches (document\n"
      "retransmissions); small T_pi inflates pings.\n");
}

}  // namespace
}  // namespace dcws

int main() {
  dcws::Run();
  return 0;
}
