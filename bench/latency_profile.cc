// Client-perceived response time versus offered load — the paper names
// round-trip time as the third key web-server metric but could not
// measure it on the operational testbed ("difficult to measure for an
// operational web server", §5.3).  The simulator can: this harness
// sweeps client counts on LOD for 1 and 8 servers and reports the
// response-time distribution of successful exchanges (network + queue +
// service), showing the classic hockey-stick as the cluster saturates
// and how adding co-op servers pushes the knee to the right.

#include "bench/bench_util.h"

namespace dcws {
namespace {

void Run(const std::string& metrics_json) {
  bench::PrintHeader(
      "Client response time vs offered load (LOD) — the metric the "
      "paper could not measure");
  bench::MetricsJsonWriter metrics_writer(metrics_json);

  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);

  std::vector<int> server_counts = bench::FastMode()
                                       ? std::vector<int>{1}
                                       : std::vector<int>{1, 8};
  std::vector<int> client_counts =
      bench::FastMode() ? std::vector<int>{8, 32}
                        : std::vector<int>{8, 16, 32, 64, 128, 256};

  metrics::TablePrinter table({"servers", "clients", "CPS",
                               "p50 (ms)", "p95 (ms)", "p99 (ms)",
                               "drop rate"});
  for (int servers : server_counts) {
    for (int clients : client_counts) {
      sim::ExperimentConfig config;
      config.sim.servers = servers;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = bench::WarmupFor(site);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(20);
      sim::ExperimentResult r = sim::RunExperiment(site, config);
      metrics_writer.AddRun("servers=" + std::to_string(servers) +
                                " clients=" + std::to_string(clients),
                            r);
      table.AddRow({std::to_string(servers), std::to_string(clients),
                    metrics::TablePrinter::Num(r.cps, 0),
                    metrics::TablePrinter::Num(r.latency_ms.p50, 1),
                    metrics::TablePrinter::Num(r.latency_ms.p95, 1),
                    metrics::TablePrinter::Num(r.latency_ms.p99, 1),
                    metrics::TablePrinter::Num(r.drop_rate, 3)});
      std::fflush(stdout);
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: low and flat until the cluster saturates, then the\n"
      "socket queue dominates (~queue_depth x service time); with 8\n"
      "servers the knee moves to ~8x the client count.\n");
  metrics_writer.Write();
}

}  // namespace
}  // namespace dcws

int main(int argc, char** argv) {
  dcws::Run(dcws::bench::MetricsJsonPath(argc, argv));
  return 0;
}
