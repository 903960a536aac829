#ifndef DCWS_E2EBENCH_LAYERS_H_
#define DCWS_E2EBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/obs/metrics.h"

namespace dcws::e2e {

// One server's registry at one instant, keyed "name{k=v,...}".
struct Reading {
  std::map<std::string, double> values;  // counters and gauges
  std::map<std::string, obs::Histogram::Snapshot> histograms;
};
Reading Read(const core::Server& server);
std::vector<Reading> ReadAll(const std::vector<const core::Server*>& group);

std::string Key(const std::string& name, const obs::Labels& labels = {});

// Window deltas between two readings of a whole group.
class Window {
 public:
  Window(std::vector<Reading> start, std::vector<Reading> end)
      : start_(std::move(start)), end_(std::move(end)) {}

  // Counter / gauge change on server i, or summed over the group.
  double Delta(size_t server, const std::string& key) const;
  double Delta(const std::string& key) const;
  // Histogram sum / count change, summed over the group.
  double HistSum(const std::string& key) const;
  double HistCount(const std::string& key) const;
  // Gauge value at the window end, summed over the group.
  double EndValue(const std::string& key) const;

  // Client connections the servers accounted for: the
  // dcws_requests_total outcome family, per server or summed.
  double Outcomes(size_t server) const;
  double Outcomes() const;
  // Sum of every dcws_phase_latency_us slice, and of both
  // dcws_request_latency_us kinds (the two must match).
  double PhaseSum() const;
  double LatencySum() const;

  size_t servers() const { return end_.size(); }

 private:
  std::vector<Reading> start_;
  std::vector<Reading> end_;
};

// A metric as printed: name, value, unit and how many samples back it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

// The per-layer table from registry deltas: phase slices and outcome
// counts per layer.  `connections` = client connections completed in
// the window (the divisor of every per-connection metric).
std::vector<Metric> LayerMetrics(const Window& window, double connections);

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_LAYERS_H_
