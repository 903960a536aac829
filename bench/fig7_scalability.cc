// Regenerates Figure 7 (a) and (b): peak BPS and CPS versus the number
// of cooperating servers, for all four datasets (§5.3 "Scalability and
// hot spots"), plus the §5.3 "CPS vs. BPS" ordering check.
//
// Expected shape (paper): LOD and Sequoia scale close to linearly up to
// 16 servers; SBLog and MAPUG are substantially sub-linear because their
// few, universally-linked images saturate whichever co-op receives them
// (SBLog improved only ~5-7% from 8 to 16 servers).  BPS ranks datasets
// by average document size (Sequoia highest), CPS in the reverse order.

#include <vector>

#include "bench/bench_util.h"

namespace dcws {
namespace {

struct Cell {
  double cps = 0;
  double bps = 0;
};

void Run(const std::string& metrics_json) {
  bench::PrintHeader(
      "Figure 7: peak performance vs number of cooperating servers");
  bench::MetricsJsonWriter metrics_writer(metrics_json);
  core::ServerParams params;

  std::vector<int> server_counts = {1, 2, 4, 8, 16};
  std::vector<workload::Dataset> datasets = {
      workload::Dataset::kLod, workload::Dataset::kSequoia,
      workload::Dataset::kSblog, workload::Dataset::kMapug};
  if (bench::FastMode()) {
    server_counts = {1, 4};
    datasets = {workload::Dataset::kLod, workload::Dataset::kSblog};
  }

  std::vector<std::vector<Cell>> grid(
      datasets.size(), std::vector<Cell>(server_counts.size()));

  for (size_t d = 0; d < datasets.size(); ++d) {
    Rng rng(42);
    workload::SiteSpec site = workload::BuildDataset(datasets[d], rng);
    for (size_t s = 0; s < server_counts.size(); ++s) {
      int servers = server_counts[s];
      sim::ExperimentConfig config;
      config.sim.params = params;
      config.sim.servers = servers;
      config.sim.seed = 42;
      // Enough offered load to saturate the cluster (peak measurement).
      config.clients = servers * 25 + 15;
      config.warmup = bench::WarmupFor(site);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(30);
      sim::ExperimentResult result = sim::RunExperiment(site, config);
      metrics_writer.AddRun(
          std::string(workload::DatasetName(datasets[d])) +
              " servers=" + std::to_string(servers),
          result);
      grid[d][s] = Cell{result.cps, result.bps};
      std::fflush(stdout);
    }
  }

  auto print_grid = [&](const char* title, bool bps) {
    bench::PrintHeader(title);
    std::vector<std::string> header = {"servers"};
    for (const auto& dataset : datasets) {
      header.push_back(std::string(workload::DatasetName(dataset)));
    }
    metrics::TablePrinter table(header);
    for (size_t s = 0; s < server_counts.size(); ++s) {
      std::vector<std::string> row = {std::to_string(server_counts[s])};
      for (size_t d = 0; d < datasets.size(); ++d) {
        row.push_back(bps ? metrics::TablePrinter::Num(
                                grid[d][s].bps / 1e6, 2)
                          : metrics::TablePrinter::Num(grid[d][s].cps, 0));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  };

  print_grid("Figure 7(a): peak BPS (MB/s) vs servers", /*bps=*/true);
  print_grid("Figure 7(b): peak CPS vs servers", /*bps=*/false);

  // §5.3 ordering checks at the largest cluster size.
  size_t last = server_counts.size() - 1;
  bench::PrintHeader("CPS vs BPS ordering check (paper 5.3)");
  for (size_t d = 0; d < datasets.size(); ++d) {
    std::printf("%-8s peak: %8.0f CPS  %10s\n",
                std::string(workload::DatasetName(datasets[d])).c_str(),
                grid[d][last].cps, bench::Mbps(grid[d][last].bps).c_str());
  }
  std::printf(
      "\nPaper: BPS order Sequoia > SBLog > MAPUG > LOD (by mean doc\n"
      "size); CPS in reverse.  LOD & Sequoia scale ~linearly to 16\n"
      "servers; SBLog & MAPUG flatten (hot-spot images saturate one\n"
      "co-op; SBLog gained only ~5-7%% from 8 to 16 servers).\n");
  metrics_writer.Write();
}

}  // namespace
}  // namespace dcws

int main(int argc, char** argv) {
  dcws::Run(dcws::bench::MetricsJsonPath(argc, argv));
  return 0;
}
