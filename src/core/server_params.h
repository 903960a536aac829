#ifndef DCWS_CORE_SERVER_PARAMS_H_
#define DCWS_CORE_SERVER_PARAMS_H_

#include <cstdint>
#include <string>

#include "src/util/clock.h"

namespace dcws::core {

// Server configuration.  The first block is the paper's Table 1 with its
// published default values; the second block holds the policy knobs the
// paper leaves implicit ("it is determined that a migration should
// occur") that some caller sets to another value.  The defaults are the
// configuration every benchmark measures.  Table 1's N_fe and N_pi are
// fixed at 1, not fields: a TCP host runs one front-end thread (it
// accepts into the L_sq queue while every worker is busy), and every
// host runs one duty (statistics + pinger) thread.
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
  // Initial hit threshold T of Algorithm 1 step 3 (hits within the
  // current statistics window).
  uint64_t hit_threshold = 4;
  // Migrate only above this demand floor (CPS); an idle server
  // migrating documents would just churn.
  double min_load_cps = 1.0;
  // Load metric window (the paper suggests requests/minute; we default to
  // the statistics interval so the metric tracks demand shifts quickly).
  MicroTime load_window = 10 * kMicrosPerSecond;
  // Metric-history sampler period (GET /.dcws/history): the duty tick
  // appends one sample per instrument field every interval.  0 disables
  // tick-driven sampling (drivers may still call SampleHistoryNow).
  MicroTime history_interval = 1 * kMicrosPerSecond;
};

// Prints the Table-1 block in the paper's format (used by bench headers).
std::string FormatTable1(const ServerParams& params);

}  // namespace dcws::core

#endif  // DCWS_CORE_SERVER_PARAMS_H_
