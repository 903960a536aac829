#ifndef DCWS_BENCH_BENCH_UTIL_H_
#define DCWS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/server_params.h"
#include "src/metrics/table_printer.h"
#include "src/obs/export.h"
#include "src/sim/experiment.h"
#include "src/util/string_util.h"
#include "src/workload/site.h"

namespace dcws::bench {

// DCWS_BENCH_FAST=1 shrinks sweep grids and windows (smoke runs); the
// default regenerates the full figures.
inline bool FastMode() {
  const char* env = std::getenv("DCWS_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline void PrintHeader(const std::string& title) {
  std::string rule(title.size(), '=');
  std::printf("\n%s\n%s\n", title.c_str(), rule.c_str());
}

// Every harness runs with the paper's Table 1 parameters unless a sweep
// overrides one of them.
inline core::ServerParams PaperParams() {
  core::ServerParams params;  // defaults ARE Table 1
  params.selection.hit_threshold = 4;
  return params;
}

inline void PrintTable1(const core::ServerParams& params) {
  PrintHeader("Table 1: server parameters (paper defaults)");
  std::printf("%s", core::FormatTable1(params).c_str());
}

// Warm-up long enough for accelerated migration (4 docs/s) to spread the
// dataset across the cluster before the measured window.
inline MicroTime WarmupFor(const workload::SiteSpec& site) {
  MicroTime by_size = Seconds(static_cast<double>(
      site.documents.size() / 3.5));
  return std::max(Seconds(180), by_size);
}

// A counter's cluster-wide value in a merged registry snapshot
// (ExperimentResult/GrowthResult::metrics); 0 when absent.
inline uint64_t CounterValue(const std::vector<obs::MetricSnapshot>& metrics,
                             std::string_view name,
                             const obs::Labels& labels = {}) {
  const obs::MetricSnapshot* metric = obs::FindMetric(metrics, name, labels);
  return metric == nullptr ? 0 : static_cast<uint64_t>(metric->value);
}

inline std::string Mbps(double bytes_per_sec) {
  return metrics::TablePrinter::Num(bytes_per_sec / 1e6, 2) + " MB/s";
}

// --metrics-json PATH on a bench command line: dump every run's merged
// cluster metric registry (obs::ExportJson schema) next to the
// client-side totals it must reconcile with, so scripted consumers can
// check served + redirected + dropped against what clients observed.
// Returns "" when the flag is absent.
inline std::string MetricsJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json") return argv[i + 1];
  }
  return "";
}

// Collects one labeled entry per experiment and writes
// {"runs":[{"label":..., "client_totals":{...},
//           "snapshot":{"metrics":[...]}}, ...]} on Write().
// A no-op when constructed with an empty path.
class MetricsJsonWriter {
 public:
  explicit MetricsJsonWriter(std::string path) : path_(std::move(path)) {}

  void AddRun(const std::string& label,
              const sim::ExperimentResult& result) {
    if (path_.empty()) return;
    const sim::ClientTotals& t = result.client_totals;
    std::string entry = "{\"label\":\"" + label + "\",";
    entry += "\"client_totals\":{";
    entry += "\"connections\":" + std::to_string(t.connections) + ",";
    entry += "\"ok\":" + std::to_string(t.ok) + ",";
    entry += "\"redirects\":" + std::to_string(t.redirects) + ",";
    entry += "\"drops\":" + std::to_string(t.drops) + ",";
    entry += "\"failures\":" + std::to_string(t.failures) + ",";
    entry += "\"bytes\":" + std::to_string(t.bytes) + "},";
    entry += "\"snapshot\":" + obs::ExportJson(result.metrics) + "}";
    runs_.push_back(std::move(entry));
  }

  // Writes the collected runs; prints the destination so a user sees
  // where the dump landed.  Safe to call with no runs (empty array).
  void Write() const {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return;
    }
    out << "{\"runs\":[";
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\n" << runs_[i];
    }
    out << "\n]}\n";
    std::printf("wrote metrics JSON: %s (%zu runs)\n", path_.c_str(),
                runs_.size());
  }

 private:
  std::string path_;
  std::vector<std::string> runs_;
};

}  // namespace dcws::bench

#endif  // DCWS_BENCH_BENCH_UTIL_H_
