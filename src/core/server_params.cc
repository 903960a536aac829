#include "src/core/server_params.h"

#include <sstream>

namespace dcws::core {

std::string FormatTable1(const ServerParams& params) {
  std::ostringstream os;
  auto seconds = [](MicroTime t) {
    return std::to_string(t / kMicrosPerSecond) + " seconds";
  };
  // N_fe and N_pi are fixed at 1 (see ServerParams).
  os << "Number of front-end threads (N_fe):            1\n"
     << "Number of pinger threads (N_pi):               1\n"
     << "Number of worker threads (N_wk):               "
     << params.worker_threads << "\n"
     << "Socket queue length (L_sq):                    "
     << params.socket_queue_length << "\n"
     << "Statistics re-calculation interval (T_st):     "
     << seconds(params.stats_interval) << "\n"
     << "Pinger thread activation interval (T_pi):      "
     << seconds(params.pinger_interval) << "\n"
     << "Co-op document validation interval (T_val):    "
     << seconds(params.validation_interval) << "\n"
     << "Home document re-migration interval (T_home):  "
     << seconds(params.remigrate_interval) << "\n"
     << "Min time between migrations to a co-op (T_coop): "
     << seconds(params.coop_accept_interval) << "\n";
  return os.str();
}

}  // namespace dcws::core
