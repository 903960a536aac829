// dcws_e2e: closed-loop Algorithm 2 users against a four-server DCWS
// group on real loopback TCP.
//
//   dcws_e2e --workload lod_browse|sequoia_bulk|lod_edit|mapug_edit
//            --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// One run: generate the site from the seed; set the group up several
// times (setup_s is the median); run the users (and, on the *_edit
// workloads, the author) through a warm-up at 50 ms statistics pacing
// until placement stops changing; restore Table 1 pacing; measure a
// window of S seconds.  With --trace 1 the window alternates untraced
// and traced one-second slices, and the result carries the per-layer
// metrics instead of the end-to-end ones.
// The last line of stdout is the JSON result; everything above it is
// the human-readable report.  Notes: e2ebench/NOTES.md.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "e2ebench/src/content_check.h"
#include "e2ebench/src/group.h"
#include "e2ebench/src/layers.h"
#include "e2ebench/src/probe.h"
#include "e2ebench/src/spans.h"
#include "e2ebench/src/walker.h"

using namespace dcws;
using namespace dcws::e2e;

namespace {

constexpr int kServers = 4;
constexpr int kUsers = 4;  // one per CPU of the reference box (nproc 4)
// Warm-up pacing (Server::SetPacing): statistics and migration every
// 50 ms, co-op acceptance every 100 ms.
constexpr MicroTime kWarmupPacing = 50 * kMicrosPerMilli;
// Warm-up ends once no migration happened for this long...
constexpr MicroTime kPlacementQuiet = 3 * kMicrosPerSecond;
// ...but runs at least this long (statistics need hits to decide on)
// and at most this long (LOD and MAPUG are still migrating at 15 s;
// 15 s at 50 ms pacing brings LOD's max_server_share to about 0.31).
constexpr MicroTime kWarmupMin = 4 * kMicrosPerSecond;
constexpr MicroTime kWarmupMax = 15 * kMicrosPerSecond;
constexpr uint64_t kSpanFileLimit = 200'000;
// Connections per user a window keeps without growing its buffers
// (LOD completes ~45k/s over four users: 20 s fit with room to spare).
constexpr size_t kSampleCapacity = 1 << 19;
// Set-ups per run: at least kMinSetups, and more while they total under
// kSetupBudgetSeconds, so a site that sets up in milliseconds still gets
// a steady median.
constexpr size_t kMinSetups = 5;
// Slices of the window with at most this much host steal count as calm.
constexpr double kCalmSteal = 0.02;
constexpr size_t kMinCalmSlices = 3;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr size_t kMaxSetups = 31;

struct WorkloadSpec {
  const char* name;
  workload::Dataset dataset;
  int users;           // browsing load threads
  bool author;         // one more load thread edits at the home
  double edits_per_s;  // author pacing
};

constexpr WorkloadSpec kWorkloads[] = {
    {"lod_browse", workload::Dataset::kLod, kUsers, false, 0},
    {"sequoia_bulk", workload::Dataset::kSequoia, kUsers, false, 0},
    // lod_browse plus the author: the difference is the cost of writes.
    {"lod_edit", workload::Dataset::kLod, kUsers, true, 1000},
    // Not in BENCHMARK.json: it shows the co-op self-link 404 (NOTES.md).
    // The author takes the place of a user here.
    {"mapug_edit", workload::Dataset::kMapug, kUsers - 1, true, 1000},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: dcws_e2e --workload lod_browse|sequoia_bulk|"
               "lod_edit|mapug_edit\n"
               "                --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !options->workload.empty() && options->seconds > 0;
}

MicroTime Now() {
  static const WallClock clock;
  return clock.Now();
}

void SleepMicros(MicroTime micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

double HomeMigrations(const core::Server& home) {
  Reading reading = Read(home);
  return reading.values[Key("dcws_migrations_total", {{"direction", "out"}})];
}

// The author: Server::PutDocument on the home at a fixed rate.  Each
// edit starts from the source page and changes only text (a revision
// paragraph before </body>), so every page keeps its links.
class Author {
 public:
  Author(const workload::SiteSpec& site, uint64_t seed, double per_second,
         SpanLog* log)
      : rng_(seed),
        period_(static_cast<MicroTime>(kMicrosPerSecond / per_second)),
        log_(log) {
    for (const storage::Document& doc : site.documents) {
      if (doc.is_html()) pages_.push_back(&doc);
    }
  }

  void Run(core::Server& home, const std::atomic<bool>& stop) {
    MicroTime next = Now();
    while (!stop.load(std::memory_order_relaxed)) {
      next += period_;
      MicroTime now = Now();
      if (next > now) {
        SleepMicros(next - now);
      } else if (now - next > 10 * period_) {
        next = now;  // fell far behind: do not burst
      }
      const storage::Document& source =
          *pages_[rng_.NextBelow(pages_.size())];
      storage::Document edit = source;
      std::string revision =
          "<p>revision " + std::to_string(edits_) + "</p>\n";
      size_t body_end = edit.content.rfind("</body>");
      edit.content.insert(
          body_end == std::string::npos ? edit.content.size() : body_end,
          revision);
      int64_t start = SpanNow();
      if (home.PutDocument(std::move(edit)).ok()) {
        ++edits_;
      } else {
        ++failures_;
      }
      if (log_->enabled()) {
        uint64_t id = log_->NewId();
        log_->Add({id, id, 0, SpanName::kPutDocument, start, SpanNow()});
      }
    }
  }

  uint64_t edits() const { return edits_; }
  uint64_t failures() const { return failures_; }

 private:
  Rng rng_;
  MicroTime period_;
  SpanLog* log_;
  std::vector<const storage::Document*> pages_;
  uint64_t edits_ = 0;
  uint64_t failures_ = 0;
};

// Everything read at one window edge.
struct Edge {
  MicroTime at = 0;    // before the readings
  MicroTime done = 0;  // after them
  std::vector<Reading> registries;
  int64_t context_switches = 0;
  HostCpu host;
};

// Client-side totals of one window, from the users' samples.
struct ClientWindow {
  MicroTime start = 0;
  MicroTime end = 0;
  uint64_t connections = 0;  // completed (any outcome)
  uint64_t failed = 0;
  uint64_t transport_failed = 0;  // never reached a server
  uint64_t bytes = 0;
  std::vector<double> conn_micros;
  std::vector<double> page_micros;
  double seconds() const { return ToSeconds(end - start); }
};

ClientWindow Collect(const std::vector<std::unique_ptr<UserStats>>& users,
                     MicroTime start, MicroTime end) {
  ClientWindow w;
  w.start = start;
  w.end = end;
  for (const auto& user : users) {
    for (const Sample& s : user->connections) {
      if (s.end < start || s.end >= end) continue;
      ++w.connections;
      w.bytes += s.bytes;
      w.conn_micros.push_back(s.micros);
      if (s.failed) ++w.failed;
      if (!s.reached) ++w.transport_failed;
    }
    for (const Sample& s : user->pages) {
      if (s.end >= start && s.end < end) w.page_micros.push_back(s.micros);
    }
  }
  return w;
}

// Host and process readings at one slice boundary of the window.
struct Tick {
  MicroTime at = 0;
  HostCpu host;
  int64_t process_cpu = 0;
  int64_t user_cpu = 0;
};

Tick TickNow(std::vector<std::thread>& user_threads) {
  Tick t;
  t.at = Now();
  t.host = ReadHostCpu();
  t.process_cpu = ProcessCpuMicros();
  for (auto& thread : user_threads) t.user_cpu += ThreadCpuMicros(thread);
  return t;
}

size_t SliceCount(MicroTime window) {
  return std::max<size_t>(2, static_cast<size_t>(ToSeconds(window) + 0.5));
}

// End-to-end numbers of one one-second slice of the window, with the
// host steal it saw.
struct SliceStats {
  double cps = 0;
  double goodput_mbps = 0;
  double conn_p50_us = 0;
  double conn_p99_us = 0;
  double page_p50_us = 0;
  double server_cpu_us = 0;  // per connection
  double client_cpu_us = 0;  // per connection
  double steal = 0;
  double idle = 0;
};

std::vector<SliceStats> Slices(
    const std::vector<std::unique_ptr<UserStats>>& users,
    const std::vector<Tick>& ticks) {
  std::vector<SliceStats> out;
  for (size_t i = 0; i + 1 < ticks.size(); ++i) {
    const Tick& a = ticks[i];
    const Tick& b = ticks[i + 1];
    ClientWindow w = Collect(users, a.at, b.at);
    double conns = static_cast<double>(w.connections);
    double user = static_cast<double>(b.user_cpu - a.user_cpu);
    double process = static_cast<double>(b.process_cpu - a.process_cpu);
    out.push_back({conns / w.seconds(),
                   static_cast<double>(w.bytes) / 1e6 / w.seconds(),
                   Quantile(w.conn_micros, 0.5), Quantile(w.conn_micros, 0.99),
                   Quantile(w.page_micros, 0.5),
                   conns > 0 ? (process - user) / conns : 0,
                   conns > 0 ? user / conns : 0, StealShare(a.host, b.host),
                   IdleShare(a.host, b.host)});
  }
  return out;
}

// The slices the host left alone, among those `eligible` admits: every
// slice with steal at most kCalmSteal, or, when fewer than a quarter of
// them (and at least kMinCalmSlices) are that calm, the calmest ones.
// A second whose vCPUs were descheduled measures the hypervisor, not
// the servers.
template <typename Eligible>
std::vector<size_t> CalmSlices(const std::vector<SliceStats>& slices,
                               Eligible eligible) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (eligible(i)) candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](size_t a, size_t b) {
                     return slices[a].steal < slices[b].steal;
                   });
  size_t want = std::min(candidates.size(),
                         std::max(kMinCalmSlices, candidates.size() / 4));
  size_t calm = 0;
  while (calm < candidates.size() &&
         slices[candidates[calm]].steal <= kCalmSteal) {
    ++calm;
  }
  candidates.resize(std::max(calm, want));
  return candidates;
}

// Each number as the median over the chosen slices.
SliceStats MedianOf(const std::vector<SliceStats>& slices,
                    const std::vector<size_t>& chosen) {
  auto median = [&](double SliceStats::*field) {
    std::vector<double> values;
    for (size_t i : chosen) values.push_back(slices[i].*field);
    return Median(values);
  };
  return {median(&SliceStats::cps),           median(&SliceStats::goodput_mbps),
          median(&SliceStats::conn_p50_us),   median(&SliceStats::conn_p99_us),
          median(&SliceStats::page_p50_us),   median(&SliceStats::server_cpu_us),
          median(&SliceStats::client_cpu_us), median(&SliceStats::steal),
          median(&SliceStats::idle)};
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %14s %-7s (n=%llu)\n", m.name.c_str(),
              Number(m.value).c_str(), m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage();

  // ---- inputs: everything derives from the seed ----
  Rng master(options.seed);
  Rng site_rng(master.NextUint64());
  workload::SiteSpec site = workload::BuildDataset(spec->dataset, site_rng);
  int users = spec->users;
  std::vector<uint64_t> user_seeds;
  for (int i = 0; i < users; ++i) user_seeds.push_back(master.NextUint64());
  uint64_t author_seed = master.NextUint64();
  uint64_t site_bytes = 0;
  for (const auto& doc : site.documents) site_bytes += doc.size();
  std::printf("e2ebench %s seed=%llu window=%gs users=%d author=%s\n",
              spec->name, static_cast<unsigned long long>(options.seed),
              options.seconds, users,
              spec->author ? "PutDocument" : "none");
  std::printf("site: %s, %zu documents, %.2f MB\n", site.name.c_str(),
              site.documents.size(), static_cast<double>(site_bytes) / 1e6);

  core::ServerParams params = bench::PaperParams();
  WallClock clock;
  std::vector<http::ServerAddress> addresses;
  for (int i = 0; i < kServers; ++i) {
    addresses.push_back({"dcws" + std::to_string(i + 1),
                         static_cast<uint16_t>(8001 + i)});
  }
  ContentCheck check(site, addresses[0], addresses);

  // ---- set-up, several times; the last group is the one measured ----
  std::vector<double> setup_seconds;
  std::unique_ptr<ServerGroup> group;
  double setup_total = 0;
  while (setup_seconds.size() < kMinSetups ||
         (setup_total < kSetupBudgetSeconds &&
          setup_seconds.size() < kMaxSetups)) {
    group.reset();
    malloc_trim(0);  // each set-up starts from the same heap
    MicroTime start = Now();
    auto started = ServerGroup::Start(site, params, kServers, &clock);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(ToSeconds(Now() - start));
    setup_total += setup_seconds.back();
    group = std::move(started).value();
  }
  std::vector<const core::Server*> servers;
  for (size_t i = 0; i < group->size(); ++i) servers.push_back(&group->server(i));

  int64_t timewait_at_start = TimeWaitSockets();

  // ---- load threads ----
  // Every thread but this one is bound to a CPU: the servers' threads
  // round-robin in creation order, and load thread i to the i-th CPU
  // (modulo their number; the author comes after the users), as each
  // client would run on a machine of its own.  Left free, the kernel's
  // wake-affine placement could pull the hand-off chains (user, accept
  // thread, worker) onto one or two CPUs and keep them there for a whole
  // run: with every thread on CPU 0, LOD ran at 15k instead of 37k
  // conn/s.  Binding only the load threads still left a third of the
  // LOD runs of one ten-run set half idle at 24k.
  std::vector<int> cpus = AllowedCpus();
  int server_threads_pinned = PinOtherThreads(cpus);
  std::atomic<int> pinned{0};
  auto pin = [&](int thread) {
    if (!cpus.empty() && PinCurrentThread(cpus[thread % cpus.size()])) {
      pinned.fetch_add(1);
    }
  };
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<UserStats>> user_stats;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<std::thread> user_threads;
  std::vector<http::Url> entries = group->EntryUrls(site);
  for (int i = 0; i < users; ++i) {
    user_stats.push_back(std::make_unique<UserStats>());
    user_stats.back()->recording = false;  // until the window opens
    // Sample buffers are touched up front, so the generator's share of
    // peak_rss_mb is the same in every run instead of growing with the
    // window's throughput.
    user_stats.back()->connections.resize(kSampleCapacity);
    user_stats.back()->connections.clear();
    user_stats.back()->pages.resize(kSampleCapacity / 4);
    user_stats.back()->pages.clear();
    logs.push_back(std::make_unique<SpanLog>(i));
  }
  logs.push_back(std::make_unique<SpanLog>(users));  // the author's
  for (int i = 0; i < users; ++i) {
    user_threads.emplace_back([&, i] {
      pin(i);
      BodyPool pool;
      TraceContext trace{logs[i].get()};
      SocketFetcher fetcher(&group->network(), &pool, &trace);
      workload::BrowseConfig config;
      config.sleeper = SleepMicros;  // a real user waits out the back-off
      Walker walker(entries, user_seeds[i], &check, user_stats[i].get(),
                    &trace, &pool, config);
      while (!stop.load(std::memory_order_relaxed)) walker.RunWalk(fetcher);
    });
  }
  std::unique_ptr<Author> author;
  std::thread author_thread;
  if (spec->author) {
    author = std::make_unique<Author>(site, author_seed, spec->edits_per_s,
                                      logs.back().get());
    author_thread = std::thread([&] {
      pin(users);
      author->Run(group->home(), stop);
    });
  }

  // ---- warm-up: fast pacing until placement stops changing ----
  group->SetPacing(kWarmupPacing, kWarmupPacing, 2 * kWarmupPacing);
  MicroTime warm_start = Now();
  MicroTime last_change = warm_start;
  double migrations = HomeMigrations(group->home());
  while (true) {
    SleepMicros(100 * kMicrosPerMilli);
    MicroTime now = Now();
    double m = HomeMigrations(group->home());
    if (m != migrations) {
      migrations = m;
      last_change = now;
    }
    if (now - warm_start >= kWarmupMax) break;
    if (now - warm_start >= kWarmupMin && now - last_change >= kPlacementQuiet) {
      break;
    }
  }
  group->SetPacing(params.stats_interval, params.stats_interval,
                   params.coop_accept_interval);
  double warm_seconds = ToSeconds(Now() - warm_start);
  std::vector<Reading> after_warmup = ReadAll(servers);
  double migrations_warmup = HomeMigrations(group->home());
  std::printf(
      "warm-up: %.1f s at %lld ms pacing, %.0f migrations, last %.1f s in\n",
      warm_seconds, static_cast<long long>(kWarmupPacing / kMicrosPerMilli),
      migrations_warmup, ToSeconds(last_change - warm_start));
  std::printf("placement after warm-up:");
  for (size_t i = 0; i < servers.size(); ++i) {
    const Reading& r = after_warmup[i];
    double docs = i == 0 ? r.values.at(Key("dcws_documents")) -
                               r.values.at(Key("dcws_migrated_documents"))
                         : r.values.at(Key("dcws_coop_hosted_documents"));
    std::printf(" %s=%.0f", servers[i]->address().host.c_str(), docs);
  }
  std::printf(" documents\n");

  // ---- measured window(s) ----
  auto edge = [&] {
    Edge e;
    e.at = Now();
    e.host = ReadHostCpu();
    e.context_switches = ProcessContextSwitches();
    e.registries = ReadAll(servers);
    e.done = Now();
    return e;
  };
  // A traced run alternates one-second slices, untraced then traced,
  // so that both sets of slices see the same host conditions and their
  // difference is the tracing overhead.
  MicroTime window = static_cast<MicroTime>(options.seconds *
                                            kMicrosPerSecond);
  size_t slice_count = SliceCount(window);
  for (auto& u : user_stats) u->recording = true;
  Edge a0 = edge();
  std::vector<Tick> ticks = {TickNow(user_threads)};
  for (size_t i = 0; i < slice_count; ++i) {
    bool traced = options.trace && i % 2 == 1;
    for (auto& log : logs) log->set_enabled(traced);
    MicroTime slice_end =
        ticks[0].at + window * static_cast<MicroTime>(i + 1) /
                          static_cast<MicroTime>(slice_count);
    SleepMicros(std::max<MicroTime>(0, slice_end - Now()));
    ticks.push_back(TickNow(user_threads));
  }
  for (auto& log : logs) log->set_enabled(false);
  Edge a1 = edge();
  stop.store(true);
  for (auto& t : user_threads) t.join();
  if (author_thread.joinable()) author_thread.join();
  double peak_rss = PeakRssMb();

  // ---- results ----
  ClientWindow cw = Collect(user_stats, a0.at, a1.at);
  Window sw(a0.registries, a1.registries);
  uint64_t transport_errors = 0, bad_status = 0, loops = 0, content = 0;
  uint64_t memo_lookups = 0, memo_hits = 0, walks = 0;
  for (const auto& u : user_stats) {
    transport_errors += u->transport_errors;
    bad_status += u->bad_status;
    loops += u->redirect_loops;
    content += u->content_errors;
    memo_lookups += u->memo_lookups;
    memo_hits += u->memo_hits;
    walks += u->walks;
  }
  double conns = static_cast<double>(cw.connections);
  double seconds = cw.seconds();

  double max_share = 0;
  double outcomes = sw.Outcomes();
  for (size_t i = 0; i < sw.servers(); ++i) {
    if (outcomes > 0) max_share = std::max(max_share, sw.Outcomes(i) / outcomes);
  }
  uint64_t n = cw.connections;
  // End-to-end timings and CPU costs: medians over the calm untraced
  // slices.
  std::vector<SliceStats> slices = Slices(user_stats, ticks);
  std::vector<size_t> calm = CalmSlices(
      slices, [&](size_t i) { return !options.trace || i % 2 == 0; });
  SliceStats timings = MedianOf(slices, calm);
  std::vector<Metric> e2e = {
      {"cps", timings.cps, "conn/s", n},
      {"goodput_mbps", timings.goodput_mbps, "MB/s", n},
      {"conn_p50_us", timings.conn_p50_us, "us", n},
      {"page_p50_us", timings.page_p50_us, "us", cw.page_micros.size()},
      {"server_cpu_us_per_conn", timings.server_cpu_us, "us", n},
      {"max_server_share", max_share, "share",
       static_cast<uint64_t>(outcomes)},
      {"setup_s", Median(setup_seconds), "s", setup_seconds.size()},
      {"peak_rss_mb", peak_rss, "MB", 1},
  };
  // Reported every run but not part of the JSON result: the tail moves
  // with the host more than any bound allows (NOTES.md), and the error
  // rate is already failed / attempted there.
  std::vector<Metric> reported = {
      {"conn_p99_us", timings.conn_p99_us, "us", n},
      {"error_rate",
       conns > 0 ? static_cast<double>(cw.failed) / conns : 0, "share", n},
  };

  std::vector<Metric> layers = LayerMetrics(sw, conns);
  layers.push_back({"net.ctx_switches",
                    conns > 0 ? (a1.context_switches - a0.context_switches) /
                                    conns
                              : 0,
                    "1/conn", n});
  layers.push_back({"migrate.migrations_warmup", migrations_warmup, "count", 1});
  layers.push_back({"gen.client_cpu_us", timings.client_cpu_us, "us", n});
  layers.push_back({"gen.link_memo_hit_ratio",
                    memo_lookups > 0 ? static_cast<double>(memo_hits) /
                                           static_cast<double>(memo_lookups)
                                     : 0,
                    "share", memo_lookups});
  layers.push_back({"gen.host_steal_share", StealShare(a0.host, a1.host),
                    "share", 1});
  layers.push_back({"gen.timewait_at_start",
                    static_cast<double>(timewait_at_start), "count", 1});
  layers.push_back({"gen.walks", static_cast<double>(walks), "count", walks});

  // Reconciliation: connections the users saw reach a server against
  // the servers' outcome counts.  At each window edge, up to one
  // connection per user is in flight, and connections that complete
  // while the registries are being read may fall on either side.
  double client_seen = static_cast<double>(cw.connections -
                                           cw.transport_failed);
  double tolerance =
      2.0 * users +
      static_cast<double>(Collect(user_stats, a0.at, a0.done).connections +
                          Collect(user_stats, a1.at, a1.done).connections);
  bool reconciled = std::abs(client_seen - outcomes) <= tolerance;
  double phase_sum = sw.PhaseSum();
  double latency_sum = sw.LatencySum();
  bool phases_ok = std::abs(phase_sum - latency_sum) <=
                   0.01 * latency_sum + 1000.0;

  bool correct = reconciled && phases_ok && cw.connections > 0;

  std::printf("set-up: median %.4f s, range %.4f-%.4f s over %zu set-ups\n",
              Median(setup_seconds),
              *std::min_element(setup_seconds.begin(), setup_seconds.end()),
              *std::max_element(setup_seconds.begin(), setup_seconds.end()),
              setup_seconds.size());
  std::printf("health: steal %.2f%%, TIME_WAIT at start %lld, generator CPU "
              "%.1f us/conn, %d of %d load threads and %d server threads "
              "bound to a CPU\n",
              100 * StealShare(a0.host, a1.host),
              static_cast<long long>(timewait_at_start), timings.client_cpu_us,
              pinned.load(), users + (author ? 1 : 0), server_threads_pinned);
  if (author) {
    std::printf("author: %llu edits (%llu failed)\n",
                static_cast<unsigned long long>(author->edits()),
                static_cast<unsigned long long>(author->failures()));
  }
  std::printf("slices (cps @ steal%%/idle%%, * = calm):");
  for (size_t i = 0; i < slices.size(); ++i) {
    bool used = std::find(calm.begin(), calm.end(), i) != calm.end();
    std::printf(" %.0f@%.0f/%.0f%s", slices[i].cps, 100 * slices[i].steal,
                100 * slices[i].idle, used ? "*" : "");
  }
  std::printf("\n");
  std::printf("end-to-end (window %.3f s; timings and CPU costs are medians "
              "over %zu calm%s one-second slices, steal %.2f%%):\n",
              seconds, calm.size(), options.trace ? " untraced" : "",
              100 * timings.steal);
  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : reported) PrintMetric(m);
  std::printf("  failed connections: %llu of %llu (whole run: transport %llu, "
              "status %llu, 301 loop %llu, content %llu)\n",
              static_cast<unsigned long long>(cw.failed),
              static_cast<unsigned long long>(cw.connections),
              static_cast<unsigned long long>(transport_errors),
              static_cast<unsigned long long>(bad_status),
              static_cast<unsigned long long>(loops),
              static_cast<unsigned long long>(content));
  std::map<std::string, uint64_t> notes;
  for (const auto& u : user_stats) {
    for (const auto& [note, count] : u->failure_notes) notes[note] += count;
  }
  for (const auto& [note, count] : notes) {
    std::printf("  failure x%llu: %s\n",
                static_cast<unsigned long long>(count), note.c_str());
  }
  std::printf("per-layer (registry deltas over the window):\n");
  for (const Metric& m : layers) PrintMetric(m);
  std::printf("reconciliation: users %.0f connections, servers %.0f "
              "(tolerance %.0f) %s; phases %.0f us vs latency %.0f us %s\n",
              client_seen, outcomes, tolerance, reconciled ? "ok" : "MISMATCH",
              phase_sum, latency_sum, phases_ok ? "ok" : "MISMATCH");

  uint64_t attempted = cw.connections;
  uint64_t failed = cw.failed;
  std::vector<Metric> result = e2e;
  if (options.trace) {
    std::vector<const SpanLog*> span_logs;
    for (const auto& log : logs) span_logs.push_back(log.get());
    SpanSummary summary = Summarize(span_logs);
    auto by = [&](SpanName name) {
      return summary.by_name[static_cast<int>(name)];
    };
    const SliceStats& untraced = timings;
    SliceStats traced_slices = MedianOf(
        slices, CalmSlices(slices, [](size_t i) { return i % 2 == 1; }));
    std::vector<Metric> traced = {
        {"http.client_parse_us_p50", by(SpanName::kParse).p50_us, "us",
         by(SpanName::kParse).count},
        {"http.client_parse_us_p99", by(SpanName::kParse).p99_us, "us",
         by(SpanName::kParse).count},
        {"net.client_connect_us_p50", by(SpanName::kConnect).p50_us, "us",
         by(SpanName::kConnect).count},
        {"net.client_connect_us_p99", by(SpanName::kConnect).p99_us, "us",
         by(SpanName::kConnect).count},
        {"net.client_ttfb_us_p50", by(SpanName::kFirstByte).p50_us, "us",
         by(SpanName::kFirstByte).count},
        {"net.client_ttfb_us_p99", by(SpanName::kFirstByte).p99_us, "us",
         by(SpanName::kFirstByte).count},
        {"net.client_body_us_p50", by(SpanName::kBody).p50_us, "us",
         by(SpanName::kBody).count},
        {"net.client_body_us_p99", by(SpanName::kBody).p99_us, "us",
         by(SpanName::kBody).count},
        {"core.put_document_us_p50", by(SpanName::kPutDocument).p50_us, "us",
         by(SpanName::kPutDocument).count},
        {"core.put_document_us_p99", by(SpanName::kPutDocument).p99_us, "us",
         by(SpanName::kPutDocument).count},
        {"trace.overhead_cps_share",
         untraced.cps > 0
             ? (untraced.cps - traced_slices.cps) / untraced.cps
             : 0,
         "share", slice_count},
        {"trace.spans", static_cast<double>(summary.total), "count",
         summary.total},
    };
    std::printf("traced slices: cps %.1f vs %.1f untraced; conn_p50 %.1f vs "
                "%.1f us\n",
                traced_slices.cps, untraced.cps, traced_slices.conn_p50_us,
                untraced.conn_p50_us);
    std::printf("spans (name: count, p50, p99, mean self time):\n");
    for (int i = 0; i < kSpanNameCount; ++i) {
      const SpanSummary::PerName& s = summary.by_name[i];
      std::printf("  %-14s %10llu %10.1f %10.1f %10.1f us\n",
                  std::string(SpanNameText(static_cast<SpanName>(i))).c_str(),
                  static_cast<unsigned long long>(s.count), s.p50_us, s.p99_us,
                  s.self_us);
    }
    for (const Metric& m : traced) PrintMetric(m);
    if (!options.spans_out.empty()) {
      if (WriteSpans(options.spans_out, span_logs, kSpanFileLimit)) {
        std::printf("spans written to %s\n", options.spans_out.c_str());
      } else {
        std::printf("cannot write spans to %s\n", options.spans_out.c_str());
      }
    }
    result = layers;
    result.insert(result.end(), traced.begin(), traced.end());
  }

  group.reset();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(result).c_str());
  return 0;
}
