#include "src/obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dcws::obs {

namespace {

// Integral values print without a decimal point (counter semantics);
// everything else gets shortest-round-trip-ish %.6g.
std::string NumberToString(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string LabelBlock(const Labels& labels, const Labels& extra) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const Labels* set : {&labels, &extra}) {
    for (const auto& [name, value] : *set) {
      if (!first) out += ",";
      first = false;
      out += name + "=\"" + value + "\"";
    }
  }
  out += "}";
  return out;
}

// One extra label appended to an existing block (the histogram `le`).
std::string LabelBlockWith(const Labels& labels, const Labels& extra,
                           std::string_view key, std::string_view value) {
  Labels merged = labels;
  merged.emplace_back(std::string(key), std::string(value));
  return LabelBlock(merged, extra);
}

void AppendJsonString(std::string& out, std::string_view text) {
  out += "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += "\"";
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// One-line HELP text per metric family (the DESIGN.md "Observability"
// schema).  Unknown names get a generic line so the exposition is
// always HELP+TYPE complete, including for test-local metrics.
std::string_view MetricHelp(std::string_view name) {
  struct Entry {
    std::string_view name;
    std::string_view help;
  };
  static constexpr Entry kHelp[] = {
      {"dcws_requests_total",
       "Client-facing request outcomes; sums to offered load."},
      {"dcws_client_requests_total",
       "Client-facing requests handled."},
      {"dcws_internal_requests_total",
       "Server-to-server requests served (pings, fetches, revokes)."},
      {"dcws_stale_serves_total",
       "Best-effort serves of cached bytes while home was unreachable."},
      {"dcws_regenerations_total",
       "Dirty-document reconstructions (link rewrites)."},
      {"dcws_coop_fetches_total",
       "Documents fetched from their home server (migration or "
       "validation)."},
      {"dcws_migrations_total",
       "Logical migrations committed, by direction."},
      {"dcws_revocations_total", "Documents recalled home."},
      {"dcws_pings_total", "Pinger probes sent."},
      {"dcws_piggyback_absorbs_total",
       "Piggybacked load-info headers absorbed from peers."},
      {"dcws_request_latency_us",
       "End-to-end request latency in microseconds, by kind."},
      {"dcws_phase_latency_us",
       "Exclusive per-phase request time in microseconds "
       "(attribution; phase sums add up to dcws_request_latency_us)."},
      {"dcws_net_write_us",
       "Time writing the serialized response to the client socket."},
      {"dcws_html_parse_us", "HTML parse time in microseconds."},
      {"dcws_html_reconstruct_us",
       "HTML reconstruction time in microseconds."},
      {"dcws_documents", "Documents in the local store."},
      {"dcws_migrated_documents",
       "Documents currently migrated to a co-op."},
      {"dcws_dirty_documents",
       "Documents awaiting link regeneration."},
      {"dcws_coop_hosted_documents",
       "Documents hosted here on behalf of other homes."},
      {"dcws_glt_peers", "Servers known to the global load table."},
      {"dcws_load_cps", "Load metric: connections per second."},
      {"dcws_load_bps", "Load metric: bytes per second."},
      {"dcws_event_journal_depth", "Events held in the journal ring."},
      {"dcws_event_journal_dropped",
       "Events evicted by journal ring wrap."},
      {"dcws_events", "Events emitted, by type."},
  };
  for (const Entry& entry : kHelp) {
    if (entry.name == name) return entry.help;
  }
  return "DCWS metric.";
}

void AppendFamilyHeader(std::string& out, std::string_view name,
                        std::string_view type, std::string_view help) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string ExportText(const std::vector<MetricSnapshot>& snapshots) {
  std::string out;
  for (const MetricSnapshot& snap : snapshots) {
    out += snap.name + LabelBlock(snap.labels, {});
    if (snap.type == MetricType::kHistogram) {
      out += " count=" + std::to_string(snap.hist.count);
      out += " mean=" + NumberToString(snap.hist.Mean());
      out += " p50=" + NumberToString(snap.hist.Percentile(0.50));
      out += " p95=" + NumberToString(snap.hist.Percentile(0.95));
      out += " p99=" + NumberToString(snap.hist.Percentile(0.99));
      out += " max=" + std::to_string(snap.hist.max);
    } else {
      out += " ";
      out += NumberToString(snap.value);
    }
    out += "\n";
  }
  return out;
}

std::string ExportJson(const std::vector<MetricSnapshot>& snapshots) {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const MetricSnapshot& snap = snapshots[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(out, snap.name);
    out += ",\"labels\":{";
    for (size_t j = 0; j < snap.labels.size(); ++j) {
      if (j > 0) out += ",";
      AppendJsonString(out, snap.labels[j].first);
      out += ":";
      AppendJsonString(out, snap.labels[j].second);
    }
    out += "},\"type\":\"";
    out += TypeName(snap.type);
    out += "\"";
    if (snap.type == MetricType::kHistogram) {
      out += ",\"count\":" + std::to_string(snap.hist.count);
      out += ",\"sum\":" + std::to_string(snap.hist.sum);
      out += ",\"max\":" + std::to_string(snap.hist.max);
      out += ",\"p50\":" + NumberToString(snap.hist.Percentile(0.50));
      out += ",\"p95\":" + NumberToString(snap.hist.Percentile(0.95));
      out += ",\"p99\":" + NumberToString(snap.hist.Percentile(0.99));
      out += ",\"buckets\":[";
      bool first = true;
      for (int b = 0; b < Histogram::kBucketCount; ++b) {
        if (snap.hist.buckets[b] == 0) continue;
        if (!first) out += ",";
        first = false;
        out += "[";
        out += std::to_string(Histogram::BucketUpperBound(b));
        out += ",";
        out += std::to_string(snap.hist.buckets[b]);
        out += "]";
      }
      out += "]";
    } else {
      out += ",\"value\":" + NumberToString(snap.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ExportPrometheus(
    const std::vector<MetricSnapshot>& snapshots,
    const Labels& extra_labels) {
  // Prometheus exposition format requires every family to appear as one
  // contiguous block headed by exactly one # HELP and one # TYPE line.
  // Snapshots arrive sorted by (name, labels), so families are already
  // contiguous runs; histograms additionally fan out into four derived
  // quantile-gauge families (name_p50/_p95/_p99/_max), which must each
  // be grouped ACROSS the run's label sets, not interleaved per set.
  std::string out;
  size_t i = 0;
  while (i < snapshots.size()) {
    // One family = the run of snapshots sharing a name.
    size_t j = i;
    while (j < snapshots.size() &&
           snapshots[j].name == snapshots[i].name) {
      ++j;
    }
    const std::string& family = snapshots[i].name;

    AppendFamilyHeader(out, family, TypeName(snapshots[i].type),
                       MetricHelp(family));
    for (size_t k = i; k < j; ++k) {
      const MetricSnapshot& snap = snapshots[k];
      if (snap.type != MetricType::kHistogram) {
        out += snap.name + LabelBlock(snap.labels, extra_labels) + " " +
               NumberToString(snap.value) + "\n";
        continue;
      }
      const Histogram::Snapshot& hist = snap.hist;
      uint64_t cumulative = 0;
      for (int b = 0; b < Histogram::kBucketCount; ++b) {
        cumulative += hist.buckets[b];
        if (hist.buckets[b] == 0 && b + 1 != Histogram::kBucketCount) {
          continue;  // keep the exposition compact; cumulative is intact
        }
        std::string le =
            b + 1 == Histogram::kBucketCount
                ? "+Inf"
                : std::to_string(Histogram::BucketUpperBound(b));
        out += snap.name + "_bucket" +
               LabelBlockWith(snap.labels, extra_labels, "le", le) + " " +
               std::to_string(cumulative) + "\n";
      }
      out += snap.name + "_sum" + LabelBlock(snap.labels, extra_labels) +
             " " + std::to_string(hist.sum) + "\n";
      out += snap.name + "_count" +
             LabelBlock(snap.labels, extra_labels) + " " +
             std::to_string(hist.count) + "\n";
    }

    // Derived quantile gauges: scrapable p50/p95/p99/max without
    // server-side histogram_quantile().  Each derived family groups the
    // whole run so its own HELP/TYPE header appears exactly once.
    if (snapshots[i].type == MetricType::kHistogram) {
      struct Derived {
        const char* suffix;
        const char* what;
        double q;  // < 0 means max
      };
      static constexpr Derived kDerived[] = {
          {"_p50", "p50", 0.50},
          {"_p95", "p95", 0.95},
          {"_p99", "p99", 0.99},
          {"_max", "max", -1},
      };
      for (const Derived& d : kDerived) {
        std::string help = std::string(d.what) + " of " + family +
                           " (derived gauge).";
        AppendFamilyHeader(out, family + d.suffix, "gauge", help);
        for (size_t k = i; k < j; ++k) {
          const Histogram::Snapshot& hist = snapshots[k].hist;
          double value = d.q < 0 ? static_cast<double>(hist.max)
                                 : hist.Percentile(d.q);
          out += family + d.suffix +
                 LabelBlock(snapshots[k].labels, extra_labels) + " " +
                 NumberToString(value) + "\n";
        }
      }
    }
    i = j;
  }
  return out;
}

const MetricSnapshot* FindMetric(
    const std::vector<MetricSnapshot>& snapshots, std::string_view name,
    const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const MetricSnapshot& snap : snapshots) {
    if (snap.name == name && snap.labels == sorted) return &snap;
  }
  return nullptr;
}

}  // namespace dcws::obs
