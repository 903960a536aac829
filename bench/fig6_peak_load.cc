// Regenerates Figure 6 (a) and (b): BPS and CPS versus the number of
// concurrent clients, for 1/2/4/8/16 cooperating servers on the LOD
// dataset — the paper's peak-load experiment (§5.3 "Peak load").
//
// Expected shape (paper): both measures rise almost linearly with client
// count, reach a peak, then stay stable (excess requests are dropped);
// doubling the servers roughly doubles the peak and moves it to a
// proportionally higher client count.  Paper reference points: 8 servers
// peaked near 18.6 MB/s and 7,150 CPS; 16 servers near 39.4 MB/s and
// 15,150 CPS.

#include <vector>

#include "bench/bench_util.h"

namespace dcws {
namespace {

void Run(const std::string& metrics_json) {
  bench::PrintHeader(
      "Figure 6: DCWS performance, LOD dataset, increasing clients");
  bench::MetricsJsonWriter metrics_writer(metrics_json);
  core::ServerParams params;
  bench::PrintTable1(params);

  std::vector<int> server_counts = {1, 2, 4, 8, 16};
  std::vector<int> client_counts = {16, 32, 64, 96, 128, 176, 240, 320, 400};
  if (bench::FastMode()) {
    server_counts = {1, 4};
    client_counts = {16, 64, 176};
  }

  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);

  metrics::TablePrinter bps_table([&] {
    std::vector<std::string> header = {"clients"};
    for (int s : server_counts) {
      header.push_back(std::to_string(s) + " srv (MB/s)");
    }
    return header;
  }());
  metrics::TablePrinter cps_table([&] {
    std::vector<std::string> header = {"clients"};
    for (int s : server_counts) {
      header.push_back(std::to_string(s) + " srv (CPS)");
    }
    return header;
  }());

  for (int clients : client_counts) {
    std::vector<std::string> bps_row = {std::to_string(clients)};
    std::vector<std::string> cps_row = {std::to_string(clients)};
    for (int servers : server_counts) {
      sim::ExperimentConfig config;
      config.sim.params = params;
      config.sim.servers = servers;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = bench::WarmupFor(site);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(20);
      sim::ExperimentResult result = sim::RunExperiment(site, config);
      metrics_writer.AddRun("servers=" + std::to_string(servers) +
                                " clients=" + std::to_string(clients),
                            result);
      bps_row.push_back(metrics::TablePrinter::Num(result.bps / 1e6, 2));
      cps_row.push_back(metrics::TablePrinter::Num(result.cps, 0));
      std::fflush(stdout);
    }
    bps_table.AddRow(bps_row);
    cps_table.AddRow(cps_row);
  }

  bench::PrintHeader("Figure 6(a): bytes per second (MB/s)");
  bps_table.Print(std::cout);
  bench::PrintHeader("Figure 6(b): connections per second");
  cps_table.Print(std::cout);
  std::printf(
      "\nPaper reference: 8 servers peak ~18.6 MB/s / ~7150 CPS;\n"
      "16 servers peak ~39.4 MB/s / ~15150 CPS. Expect matching shape\n"
      "(linear rise, plateau past saturation, ~2x peak per doubling),\n"
      "not matching absolute numbers.\n");
  metrics_writer.Write();
}

}  // namespace
}  // namespace dcws

int main(int argc, char** argv) {
  dcws::Run(dcws::bench::MetricsJsonPath(argc, argv));
  return 0;
}
