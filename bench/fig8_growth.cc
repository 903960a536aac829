// Regenerates Figure 8: CPS and BPS versus time from a cold start —
// one home server holding every document, all co-op servers empty,
// honest Table-1 migration pacing (no warm-up acceleration), results
// sampled at 10-second intervals over 30 minutes (§5.3 "Exponential
// performance growth").
//
// Expected shape (paper): performance improves slowly at first, then at
// a seemingly exponential rate once enough documents have migrated —
// each migration simultaneously adds co-op capacity, raises the
// per-document hit rate of what remains on the home server, and feeds
// the co-ops already serving linked documents.
//
// Also reports the document reconstruction rate, which the paper
// measured at 1.3 docs/s average and 17.2 docs/s peak for LOD.

#include "bench/bench_util.h"

namespace dcws {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 8: performance growth from a cold start (LOD, 16 servers)");

  sim::SimConfig sim_config;
  sim_config.servers = 16;
  sim_config.seed = 42;

  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);

  MicroTime duration =
      bench::FastMode() ? Seconds(300) : Seconds(1800);
  MicroTime sample = Seconds(10);
  int clients = bench::FastMode() ? 96 : 368;

  sim::GrowthResult result = sim::RunGrowthExperiment(
      site, sim_config, clients, duration, sample);

  metrics::TablePrinter table(
      {"t (s)", "CPS", "BPS (MB/s)", "migrations"});
  // Print every third sample to keep the table readable; the growth
  // trend is unaffected.
  for (size_t i = 0; i < result.cps_series.size(); i += 3) {
    table.AddRow({std::to_string(result.cps_series.time_at(i) /
                                 kMicrosPerSecond),
                  metrics::TablePrinter::Num(
                      result.cps_series.value_at(i), 0),
                  metrics::TablePrinter::Num(
                      result.bps_series.value_at(i) / 1e6, 2),
                  metrics::TablePrinter::Num(
                      result.migrations_series.value_at(i), 0)});
  }
  table.Print(std::cout);

  double start = result.cps_series.values().empty()
                     ? 0
                     : result.cps_series.value_at(0);
  double quarter = result.cps_series.value_at(
      result.cps_series.size() / 4);
  double end = result.cps_series.TailMean(0.1);
  std::printf(
      "\nGrowth: first sample %.0f CPS, quarter-way %.0f CPS, final "
      "%.0f CPS\n",
      start, quarter, end);

  // Reconstruction rate (paper §5.3: 1.3 avg / 17.2 peak docs/s on LOD).
  uint64_t regenerations =
      bench::CounterValue(result.metrics, "dcws_regenerations_total");
  double regen_avg =
      static_cast<double>(regenerations) / ToSeconds(duration);
  std::printf(
      "Document reconstructions: %llu total, %.2f docs/s average "
      "(paper: 1.3 avg, 17.2 peak)\n",
      static_cast<unsigned long long>(regenerations), regen_avg);
  std::printf(
      "\nPaper: both measures grow at a seemingly exponential rate as\n"
      "migrations compound; expect slow early samples and rapid late\n"
      "growth rather than a straight line.\n");
}

}  // namespace
}  // namespace dcws

int main() {
  dcws::Run();
  return 0;
}
