#ifndef DCWS_UTIL_CLOCK_H_
#define DCWS_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace dcws {

// All DCWS time is measured in microseconds on a 64-bit counter.
using MicroTime = int64_t;

constexpr MicroTime kMicrosPerMilli = 1'000;
constexpr MicroTime kMicrosPerSecond = 1'000'000;

constexpr MicroTime Seconds(double s) {
  return static_cast<MicroTime>(s * kMicrosPerSecond);
}
constexpr MicroTime Millis(double ms) {
  return static_cast<MicroTime>(ms * kMicrosPerMilli);
}
constexpr double ToSeconds(MicroTime t) {
  return static_cast<double>(t) / kMicrosPerSecond;
}

// Abstract time source.  Core server logic (statistics windows, migration
// rate limits, validation timeouts) reads time through a Clock so that the
// same code runs against wall time (TCP hosts, loopback tests) and
// virtual time (discrete-event simulator).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual MicroTime Now() const = 0;
};

// Wall-clock time (monotonic), for the threaded TCP hosts.
class WallClock : public Clock {
 public:
  MicroTime Now() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

// Manually advanced time, owned by the simulator (and handy in tests).
// Thread-safe reads; Advance/Set are intended to be called from the single
// simulation thread.
class ManualClock : public Clock {
 public:
  explicit ManualClock(MicroTime start = 0) : now_(start) {}

  MicroTime Now() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void Set(MicroTime t) { now_.store(t, std::memory_order_relaxed); }
  void Advance(MicroTime dt) {
    now_.fetch_add(dt, std::memory_order_relaxed);
  }

 private:
  std::atomic<MicroTime> now_;
};

}  // namespace dcws

#endif  // DCWS_UTIL_CLOCK_H_
