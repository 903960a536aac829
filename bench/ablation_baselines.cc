// Ablation: DCWS versus the two traditional architectures the paper
// argues against (§1, §2) — round-robin DNS over full replicas (NCSA)
// and a centralized TCP router / LocalDirector in front of full
// replicas.  Not a paper figure; quantifies the motivating claims:
//
//  * the router is a central bottleneck: adding servers stops helping
//    once the router saturates;
//  * RR-DNS needs N full copies of the site and balances only as finely
//    as resolver caching allows;
//  * DCWS stores ~one copy and keeps scaling.

#include "bench/bench_util.h"
#include "src/baseline/rr_dns.h"

namespace dcws {
namespace {

void Run() {
  bench::PrintHeader(
      "Ablation: DCWS vs RR-DNS vs centralized router (LOD)");

  std::vector<int> server_counts = bench::FastMode()
                                       ? std::vector<int>{2, 4}
                                       : std::vector<int>{2, 4, 8, 16};

  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);
  uint64_t site_bytes = 0;
  for (const auto& doc : site.documents) site_bytes += doc.size();

  metrics::TablePrinter table({"servers", "scheme", "CPS", "BPS",
                               "drop rate", "storage"});
  for (int servers : server_counts) {
    int clients = servers * 25 + 15;

    // DCWS proper.
    {
      sim::ExperimentConfig config;
      config.sim.params = bench::PaperParams();
      config.sim.servers = servers;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = bench::WarmupFor(site);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(20);
      sim::ExperimentResult r = sim::RunExperiment(site, config);
      // DCWS storage: home copy plus migrated duplicates (home always
      // keeps originals, co-ops hold copies of what they serve).
      uint64_t migrated_bytes = 0;
      for (const auto& doc : site.documents) {
        // Approximation: assume migrated share proportional to count.
        (void)doc;
      }
      uint64_t migrations = bench::CounterValue(
          r.metrics, "dcws_migrations_total", {{"direction", "out"}});
      uint64_t storage =
          site_bytes + site_bytes * migrations /
                           std::max<uint64_t>(site.documents.size(), 1);
      table.AddRow({std::to_string(servers), "DCWS",
                    metrics::TablePrinter::Num(r.cps, 0),
                    bench::Mbps(r.bps),
                    metrics::TablePrinter::Num(r.drop_rate, 3),
                    HumanBytes(static_cast<double>(storage))});
      (void)migrated_bytes;
    }

    // Round-robin DNS.
    {
      baseline::RrDnsConfig config;
      config.sim.params = bench::PaperParams();
      config.sim.servers = servers;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = Seconds(60);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(30);
      baseline::BaselineResult r =
          baseline::RunRrDnsExperiment(site, config);
      table.AddRow({std::to_string(servers), "RR-DNS",
                    metrics::TablePrinter::Num(r.cps, 0),
                    bench::Mbps(r.bps),
                    metrics::TablePrinter::Num(r.drop_rate, 3),
                    HumanBytes(static_cast<double>(r.storage_bytes))});
    }

    // Centralized router.
    {
      baseline::CentralRouterConfig config;
      config.sim.params = bench::PaperParams();
      config.sim.servers = servers;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = Seconds(60);
      config.measure = bench::FastMode() ? Seconds(10) : Seconds(30);
      baseline::BaselineResult r =
          baseline::RunCentralRouterExperiment(site, config);
      table.AddRow({std::to_string(servers), "router",
                    metrics::TablePrinter::Num(r.cps, 0),
                    bench::Mbps(r.bps),
                    metrics::TablePrinter::Num(r.drop_rate, 3),
                    HumanBytes(static_cast<double>(r.storage_bytes))});
    }
    std::fflush(stdout);
  }
  table.Print(std::cout);

  std::printf(
      "\nExpected: the router flattens once its switching capacity\n"
      "saturates regardless of added servers; RR-DNS scales but costs\n"
      "N full site replicas and coarse balancing; DCWS approaches\n"
      "RR-DNS throughput at ~1x storage.\n");
}

}  // namespace
}  // namespace dcws

int main() {
  dcws::Run();
  return 0;
}
