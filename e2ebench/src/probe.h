#ifndef DCWS_E2EBENCH_PROBE_H_
#define DCWS_E2EBENCH_PROBE_H_

#include <cstdint>
#include <thread>
#include <vector>

namespace dcws::e2e {

// Process- and host-level readings for the run-health record.

// CPU time (user + system) of the whole process, in microseconds.
int64_t ProcessCpuMicros();
// CPU time of one thread of this process, in microseconds.
int64_t ThreadCpuMicros(std::thread& thread);
// Voluntary + involuntary context switches of the whole process.
int64_t ProcessContextSwitches();
// Peak resident set of the process, in MB.
double PeakRssMb();

// Host CPU jiffies from /proc/stat: all states, idle (with iowait), and
// time stolen by the hypervisor.  Shares are deltas over d(total).
struct HostCpu {
  uint64_t total = 0;
  uint64_t idle = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
double StealShare(const HostCpu& start, const HostCpu& end);
double IdleShare(const HostCpu& start, const HostCpu& end);

// Loopback/host sockets in TIME_WAIT (IPv4 and IPv6).
int64_t TimeWaitSockets();

// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();
// Binds the calling thread to `cpu`; false if the kernel refused.
bool PinCurrentThread(int cpu);
// Binds every other thread of this process, in creation order, to
// `cpus` round-robin.  Returns how many it bound.
int PinOtherThreads(const std::vector<int>& cpus);

// Exact quantile (nearest rank on sorted copy); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_PROBE_H_
