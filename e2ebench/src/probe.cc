#include "e2ebench/src/probe.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace dcws::e2e {

namespace {

int64_t TimevalMicros(const timeval& tv) {
  return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
}

int64_t CountTimeWait(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  int64_t count = 0;
  while (std::getline(in, line)) {
    // sl local_address rem_address st ...
    std::istringstream fields(line);
    std::string sl, local, remote, state;
    fields >> sl >> local >> remote >> state;
    if (state == "06") ++count;
  }
  return count;
}

}  // namespace

int64_t ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalMicros(usage.ru_utime) + TimevalMicros(usage.ru_stime);
}

int64_t ThreadCpuMicros(std::thread& thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

int64_t ProcessContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw + usage.ru_nivcsw;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  HostCpu cpu;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  // (guest time is already inside user/nice).
  for (int i = 0; i < 8; ++i) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    cpu.total += value;
    if (i == 3 || i == 4) cpu.idle += value;
    if (i == 7) cpu.steal = value;
  }
  return cpu;
}

double StealShare(const HostCpu& start, const HostCpu& end) {
  if (end.total <= start.total) return 0;
  return static_cast<double>(end.steal - start.steal) /
         static_cast<double>(end.total - start.total);
}

double IdleShare(const HostCpu& start, const HostCpu& end) {
  if (end.total <= start.total) return 0;
  return static_cast<double>(end.idle - start.idle) /
         static_cast<double>(end.total - start.total);
}

int64_t TimeWaitSockets() {
  return CountTimeWait("/proc/net/tcp") + CountTimeWait("/proc/net/tcp6");
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinCurrentThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

int PinOtherThreads(const std::vector<int>& cpus) {
  if (cpus.empty()) return 0;
  long self = syscall(SYS_gettid);
  std::vector<long> tids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    long tid = std::stol(entry.path().filename().string());
    if (tid != self) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());  // thread ids grow with creation
  int pinned = 0;
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i % cpus.size()], &set);
    if (sched_setaffinity(static_cast<pid_t>(tids[i]), sizeof(set), &set) == 0) {
      ++pinned;
    }
  }
  return pinned;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace dcws::e2e
