#ifndef DCWS_CORE_SERVER_PARAMS_H_
#define DCWS_CORE_SERVER_PARAMS_H_

#include <cstdint>
#include <string>

#include "src/migrate/selection.h"
#include "src/util/clock.h"

namespace dcws::core {

// Server configuration.  The first block is the paper's Table 1 with its
// published default values; the second block holds policy knobs the paper
// leaves implicit ("it is determined that a migration should occur").
// Table 1's N_fe and N_pi are fixed at 1, not fields: a TCP host runs
// one front-end thread (it accepts into the L_sq queue while every
// worker is busy), and every host runs one duty (statistics + pinger)
// thread.
struct ServerParams {
  // ---- Table 1 ----
  int worker_threads = 12;                                // N_wk
  int socket_queue_length = 100;                          // L_sq
  MicroTime stats_interval = 10 * kMicrosPerSecond;       // T_st
  MicroTime pinger_interval = 20 * kMicrosPerSecond;      // T_pi
  MicroTime validation_interval = 120 * kMicrosPerSecond;  // T_val
  MicroTime remigrate_interval = 300 * kMicrosPerSecond;  // T_home
  MicroTime coop_accept_interval = 60 * kMicrosPerSecond;  // T_coop

  // ---- policy knobs ----
  migrate::SelectionConfig selection;
  // Load metric window (the paper suggests requests/minute; we default to
  // the statistics interval so the metric tracks demand shifts quickly).
  MicroTime load_window = 10 * kMicrosPerSecond;
  // Migrate when own CPS exceeds the best co-op candidate's by this
  // factor, and only above a demand floor.
  double imbalance_factor = 1.25;
  double min_load_cps = 1.0;
  // Revoke after T_home when the co-op is this much busier than us.
  double revoke_imbalance_factor = 2.0;
  int pinger_max_failures = 3;

  // ---- extensions (off by default) ----
  // Conditional revalidation: co-op validation sweeps send
  // If-None-Match so unchanged documents come back as an empty 304
  // instead of a full retransmission.  (Extension beyond the paper; its
  // Table 2 notes low T_val causes "more retransmission of unchanged
  // documents" — this removes most of that cost.)
  bool conditional_validation = false;

  // Requests for "/" map to this document when it exists.
  std::string index_path = "/index.html";

  // ---- observability ----
  // Completed requests slower than this are captured in the slow-trace
  // ring (served at GET /.dcws/traces alongside the recent ring).
  MicroTime slow_trace_threshold = 50 * kMicrosPerMilli;
  // Capacity of each trace ring (recent and slow).
  int trace_ring_capacity = 64;
  // Capacity of the structured event journal (GET /.dcws/events);
  // overflow evicts oldest and is reported as
  // dcws_event_journal_dropped, never silent.
  int event_journal_capacity = 256;
  // Metric-history sampler period (GET /.dcws/history): the duty tick
  // appends one sample per instrument field every interval.  0 disables
  // tick-driven sampling (drivers may still call SampleHistoryNow).
  MicroTime history_interval = 1 * kMicrosPerSecond;
  // Samples kept per history series; older samples fall off the ring.
  int history_ring_capacity = 128;
};

// Prints the Table-1 block in the paper's format (used by bench headers).
std::string FormatTable1(const ServerParams& params);

}  // namespace dcws::core

#endif  // DCWS_CORE_SERVER_PARAMS_H_
