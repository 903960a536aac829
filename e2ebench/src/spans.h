#ifndef DCWS_E2EBENCH_SPANS_H_
#define DCWS_E2EBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/clock.h"

namespace dcws::e2e {

// Spans the benchmark records around its own calls into the layers of a
// traced run.  Nesting: page -> connection -> connect, write,
// first_byte, body, parse; page -> links; put_document stands alone.
enum class SpanName : uint8_t {
  kPage,
  kConnection,
  kConnect,     // net: socket + connect
  kWrite,       // http: Request::Serialize + send
  kFirstByte,   // server time: request sent -> first response byte
  kParse,       // http: response status line + headers
  kBody,        // net: first byte -> last body byte
  kLinks,       // html/workload: link extraction + content check
  kPutDocument, // core: Server::PutDocument (the author)
};
inline constexpr int kSpanNameCount = 9;
std::string_view SpanNameText(SpanName name);

// Span clock: steady_clock in nanoseconds (the servers' WallClock is
// the same clock in microseconds).
inline int64_t SpanNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t trace = 0;   // shared by every span of one page
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for roots
  SpanName name = SpanName::kPage;
  int64_t start = 0;    // SpanNow()
  int64_t end = 0;
};

// One thread's spans, kept in memory until the run ends.  Ids are
// unique across logs: the owner's index sits in the top bits.
class SpanLog {
 public:
  // Room for a traced run's spans up front: growing the vector midway
  // would stall its thread while it copies tens of MB.
  explicit SpanLog(uint32_t owner) : next_(uint64_t{owner + 1} << 48) {
    spans_.reserve(1 << 20);
  }

  // Switched by the run's main thread while the owner records.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  uint64_t NewId() { return ++next_; }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<bool> enabled_{false};
  uint64_t next_;
  std::vector<Span> spans_;
};

// What the walker and its fetcher share about the span being built:
// the page's trace id and the open connection span.  id 0 = untraced.
struct TraceContext {
  SpanLog* log = nullptr;
  uint64_t trace = 0;
  uint64_t connection = 0;
  bool active() const { return log != nullptr && connection != 0; }
};

// Per-name durations (p50/p99) and self time (duration minus the part
// covered by children) over a set of logs.
struct SpanSummary {
  struct PerName {
    uint64_t count = 0;
    double p50_us = 0;
    double p99_us = 0;
    double self_us = 0;  // mean self time
  };
  PerName by_name[kSpanNameCount];
  uint64_t total = 0;
};
SpanSummary Summarize(const std::vector<const SpanLog*>& logs);

// Writes spans as tab-separated lines (trace, id, parent, name, start
// and end in ns), logs in order, at most `limit` of them; the header line says how
// many were left out.  Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, uint64_t limit);

}  // namespace dcws::e2e

#endif  // DCWS_E2EBENCH_SPANS_H_
