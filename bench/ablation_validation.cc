// Ablation: conditional revalidation (ETag / If-None-Match / 304).
// Table 2's T_val row says low values cause "more retransmission of
// unchanged documents".  With conditional GETs (an extension beyond the
// paper's prototype), unchanged documents revalidate with an empty 304,
// collapsing that overhead and making aggressive consistency cheap.
//
// We run LOD on 8 servers with a short validation interval and compare
// plain vs conditional revalidation: fetches, 304s, and steady CPS.

#include "bench/bench_util.h"

namespace dcws {
namespace {

void Run() {
  bench::PrintHeader(
      "Ablation: conditional revalidation (LOD, 8 servers, T_val sweep)");

  Rng rng(42);
  workload::SiteSpec site = workload::BuildLod(rng);
  int clients = bench::FastMode() ? 64 : 200;

  metrics::TablePrinter table({"T_val (s)", "conditional", "CPS",
                               "fetches", "304s", "stale window"});
  std::vector<MicroTime> intervals = bench::FastMode()
                                         ? std::vector<MicroTime>{Seconds(30)}
                                         : std::vector<MicroTime>{
                                               Seconds(30), Seconds(120)};
  for (MicroTime t_val : intervals) {
    for (bool conditional : {false, true}) {
      sim::ExperimentConfig config;
      config.sim.params = bench::PaperParams();
      config.sim.params.validation_interval = t_val;
      config.sim.params.conditional_validation = conditional;
      config.sim.servers = 8;
      config.sim.seed = 42;
      config.clients = clients;
      config.warmup = bench::WarmupFor(site);
      config.measure = bench::FastMode() ? Seconds(30) : Seconds(120);
      sim::ExperimentResult r = sim::RunExperiment(site, config);
      table.AddRow(
          {std::to_string(t_val / kMicrosPerSecond),
           conditional ? "on" : "off",
           metrics::TablePrinter::Num(r.cps, 0),
           std::to_string(bench::CounterValue(
               r.metrics, "dcws_coop_fetches_total")),
           std::to_string(bench::CounterValue(
               r.metrics, "dcws_not_modified_total")),
           std::string(conditional ? "= T_val" : "= T_val")});
      std::fflush(stdout);
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: with conditional revalidation on, most validation\n"
      "round trips end in 304 (no body), so a small T_val — tight\n"
      "consistency — no longer costs full document retransmissions.\n");
}

}  // namespace
}  // namespace dcws

int main() {
  dcws::Run();
  return 0;
}
