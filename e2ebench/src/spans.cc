#include "e2ebench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "e2ebench/src/probe.h"

namespace dcws::e2e {

std::string_view SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kPage:
      return "page";
    case SpanName::kConnection:
      return "connection";
    case SpanName::kConnect:
      return "connect";
    case SpanName::kWrite:
      return "write";
    case SpanName::kFirstByte:
      return "first_byte";
    case SpanName::kParse:
      return "parse";
    case SpanName::kBody:
      return "body";
    case SpanName::kLinks:
      return "links";
    case SpanName::kPutDocument:
      return "put_document";
  }
  return "?";
}

SpanSummary Summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary summary;
  std::vector<double> durations[kSpanNameCount];
  double self_total[kSpanNameCount] = {};
  for (const SpanLog* log : logs) {
    // A log holds spans in completion order, so every child precedes its
    // parent: children's time waits here until the parent arrives.
    std::unordered_map<uint64_t, int64_t> child_time;
    for (const Span& span : log->spans()) {
      int i = static_cast<int>(span.name);
      int64_t duration = span.end - span.start;
      if (span.parent != 0 && span.parent != span.id) {
        child_time[span.parent] += duration;
      }
      int64_t covered = 0;
      if (auto child = child_time.find(span.id); child != child_time.end()) {
        covered = std::min(duration, child->second);
        child_time.erase(child);
      }
      durations[i].push_back(static_cast<double>(duration) / 1000.0);
      self_total[i] += static_cast<double>(duration - covered) / 1000.0;
      ++summary.total;
    }
  }
  for (int i = 0; i < kSpanNameCount; ++i) {
    SpanSummary::PerName& out = summary.by_name[i];
    out.count = durations[i].size();
    if (out.count == 0) continue;
    out.p50_us = Quantile(durations[i], 0.5);
    out.p99_us = Quantile(durations[i], 0.99);
    out.self_us = self_total[i] / static_cast<double>(out.count);
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, uint64_t limit) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t total = 0;
  for (const SpanLog* log : logs) total += log->spans().size();
  std::fprintf(out, "# %llu spans, %llu written\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(std::min(total, limit)));
  std::fprintf(out, "trace\tid\tparent\tname\tstart_ns\tend_ns\n");
  uint64_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (written >= limit) break;
      ++written;
      std::fprintf(out, "%016llx\t%016llx\t%016llx\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(span.trace),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   std::string(SpanNameText(span.name)).c_str(),
                   static_cast<long long>(span.start),
                   static_cast<long long>(span.end));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace dcws::e2e
