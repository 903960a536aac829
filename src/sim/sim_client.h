#ifndef DCWS_SIM_SIM_CLIENT_H_
#define DCWS_SIM_SIM_CLIENT_H_

#include <memory>
#include <vector>

#include "src/sim/sim_cluster.h"
#include "src/workload/browse.h"

namespace dcws::sim {

// Event-driven driver of the paper's custom client benchmark (Algorithm
// 2, Figure 5): an endless loop of workload::Walk access sequences, with
// embedded images fetched through `image_helpers` parallel helper
// threads and 503 back-off waited out in virtual time.
//
// Timing model: one benchmark instance owns one CPU slice; all of its
// request-issue and parse work serializes through that slice, so the
// helper threads overlap server latency but not client CPU (the paper's
// benchmark workstations are CPU-saturated).
class SimClient {
 public:
  // `entry` picks where each walk begins: a site entry point on the home
  // server (StartClients), or behind the baselines' DNS name or VIP.
  SimClient(SimWorld* world, workload::EntryPicker entry, uint64_t seed,
            workload::BrowseConfig config = workload::BrowseConfig());

  // Schedules the first walk; the client then runs forever.
  void Start();

  uint64_t walks_completed() const { return walk_.stats().walks; }

 private:
  using FetchId = workload::Walk::FetchId;

  // Starts every fetch the walk has now, beginning the next walk when
  // one ends.
  void Pump();
  // From the cache, or a request after this client's CPU and half an RTT.
  void Issue(FetchId id);
  void Send(FetchId id);
  void Receive(FetchId id, const http::Response& response);
  void Finish(FetchId id);
  // Reserves `cost` of this client's CPU; returns the completion time.
  MicroTime ReserveCpu(MicroTime cost);

  SimWorld* world_;
  workload::Walk walk_;
  MicroTime cpu_busy_until_ = 0;
};

// Convenience: create and start `count` clients walking from the loaded
// site's entry points.
std::vector<std::unique_ptr<SimClient>> StartClients(SimWorld* world,
                                                     int count,
                                                     uint64_t seed);

}  // namespace dcws::sim

#endif  // DCWS_SIM_SIM_CLIENT_H_
