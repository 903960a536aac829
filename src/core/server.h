#ifndef DCWS_CORE_SERVER_H_
#define DCWS_CORE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/server_params.h"
#include "src/graph/ldg.h"
#include "src/html/links.h"
#include "src/http/address.h"
#include "src/http/message.h"
#include "src/load/glt.h"
#include "src/load/pinger.h"
#include "src/metrics/rate_window.h"
#include "src/migrate/coop_table.h"
#include "src/migrate/home_policy.h"
#include "src/migrate/naming.h"
#include "src/obs/events.h"
#include "src/obs/history.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/document_store.h"
#include "src/util/clock.h"
#include "src/util/mutex.h"
#include "src/util/result.h"

namespace dcws::core {

// Server-to-server transport hook.  The TCP network implements it with
// blocking HTTP/1.0 exchanges over loopback sockets; the simulator
// implements it by invoking the target server directly and charging the
// modelled resources.
class PeerClient {
 public:
  virtual ~PeerClient() = default;
  // Sends `request` to `target` and waits for the response.  Transport
  // failures (peer down, timeout) surface as non-OK status.
  virtual Result<http::Response> Execute(
      const http::ServerAddress& target,
      const http::Request& request) = 0;
};

// Per-request annotations for transports/simulators that model costs.
// The first block is written by the server for the transport to read;
// the second block is filled IN by the transport before HandleRequest so
// the span tree covers time spent before the worker picked the request
// up (socket-queue wait, wire parsing).
struct RequestTrace {
  bool regenerated = false;    // HTML parse + reconstruction happened
  bool coop_fetch = false;     // a synchronous home-server fetch happened
  uint64_t fetch_bytes = 0;    // bytes pulled from the home server
  bool internal = false;       // server-to-server request
  obs::TraceId trace_id = 0;   // id assigned (or propagated) for this
                               // request; 0 until HandleRequest runs

  // Transport inputs (both default to 0 — unknown / not modelled).
  MicroTime queue_wait = 0;    // accept-to-dispatch wait
  MicroTime parse_micros = 0;  // wire framing + parse cost

  // Set by HandleRequest for its own helpers (FetchFromHome adds the
  // co-op span here); points at a stack-local builder and is nulled
  // before HandleRequest returns.  Not for transport use.
  obs::TraceBuilder* spans = nullptr;
};

// One DCWS server process: front end, worker logic, statistics module and
// pinger rolled into a transport-agnostic object (paper §5.1 modules).
// It is simultaneously a home server for the site it was seeded with and
// a co-op server for any document another home migrates to it (§3.3,
// "fully symmetric").
//
// Thread-safe: HandleRequest may be called from many worker threads while
// one statistics/pinger thread calls Tick.
class Server {
 public:
  Server(http::ServerAddress self, ServerParams params,
         const Clock* clock);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- setup ----
  // Seeds the store with site content and builds the LDG.  `entry_points`
  // are the well-known entry points that must never migrate.
  Status LoadSite(const std::vector<storage::Document>& documents,
                  const std::vector<std::string>& entry_points);
  // Makes a cooperating server known to the GLT.
  void RegisterPeer(const http::ServerAddress& peer);

  // ---- membership changes (cluster control) ----
  // Handles `peer` leaving the server group: every document currently
  // placed at it is recalled — logical location back here, dependents
  // dirtied — and the peer is dropped from the GLT and pinger tables so
  // it is never again selected as a co-op target.  Safe to call while
  // worker threads serve requests.
  void ForgetPeer(const http::ServerAddress& peer, PeerClient* peers);

  // Recalls every document this server has migrated out, notifying
  // reachable holders (graceful self-drain before this server leaves
  // the cluster, so co-ops do not keep revalidating against a ghost).
  void RecallAll(PeerClient* peers);

  // ---- request path (worker threads) ----
  http::Response HandleRequest(const http::Request& request,
                               PeerClient* peers,
                               RequestTrace* trace = nullptr);

  // Called by transports when they shed a connection with 503 BEFORE it
  // reaches HandleRequest (socket queue full), so the registry's
  // request-outcome counters still add up to what clients observed.
  // When the transport already parsed the request (the simulator), pass
  // it so the kQueueDrop journal event records the shed target and any
  // X-DCWS-Trace id; TCP drops happen before parsing and pass nullptr.
  void CountQueueDrop(const http::Request* request = nullptr);

  // Called by transports after writing a serialized response to the
  // client socket (dcws_net_write_us).  Kept outside the request trace:
  // the trace — and the phase attribution derived from it — closes when
  // HandleRequest returns, so folding the write in would break the
  // "phases sum to dcws_request_latency_us" invariant.
  void ObserveNetWrite(MicroTime micros);

  // ---- periodic duties (statistics + pinger thread) ----
  // Runs any duties that have come due: statistics recalculation and
  // migration decisions every T_st, co-op validation sweeps, pinger
  // probes every T_pi.  Call at least once per second of (virtual) time.
  // Also drives the metric-history sampler (every history_interval; the
  // first tick takes sample zero).
  void Tick(PeerClient* peers);

  // Appends one history sample per instrument right now, bypassing the
  // tick pacing — experiment drivers sample on their epoch boundaries,
  // tests force deterministic rings.  Thread-safe.
  void SampleHistoryNow();

  // ---- content management (author actions) ----
  // Adds or replaces a document at runtime; link structure is refreshed
  // and dependents regenerate lazily.
  Status PutDocument(storage::Document doc, bool entry_point = false);

  // Adjusts statistics/migration pacing at runtime.  Experiment drivers
  // accelerate warm-up with this and restore the Table-1 values before
  // the measured window.  Call from a single thread.
  void SetPacing(MicroTime stats_interval, MicroTime migration_interval,
                 MicroTime coop_accept_interval);

  // Installs an access-log sink invoked once per client-facing request
  // with a Common-Log-Format line (real servers write this to disk; the
  // hook keeps the library I/O-free).  Pass nullptr to disable.
  void SetAccessLogSink(std::function<void(const std::string&)> sink);

  // ---- introspection ----
  const http::ServerAddress& address() const { return self_; }
  const ServerParams& params() const { return params_; }
  const Clock* clock() const { return clock_; }
  graph::LocalDocumentGraph& ldg() { return ldg_; }
  load::GlobalLoadTable& glt() { return glt_; }
  storage::DocumentStore& store() { return store_; }
  migrate::CoopHostTable& coop_table() { return coop_table_; }
  load::PingerPolicy& pinger() { return pinger_; }
  // The server's metric registry (counters, gauges, latency histograms;
  // schema in DESIGN.md "Observability").  Also rendered live at
  // GET /.dcws/status?format=text|json|prometheus.
  const obs::Registry& metrics() const { return registry_; }
  // Recent/slow completed request traces (GET /.dcws/traces).
  const obs::TraceRing& recent_traces() const { return recent_traces_; }
  const obs::TraceRing& slow_traces() const { return slow_traces_; }
  // Periodic metric samples (GET /.dcws/history), fed by Tick and
  // SampleHistoryNow (internally synchronized).
  const obs::MetricHistory& history() const { return history_; }
  // Structured decision/event journal (GET /.dcws/events); tests and
  // tools may also Emit through it (it is internally synchronized).
  obs::EventJournal& journal() { return journal_; }
  const obs::EventJournal& journal() const { return journal_; }

  // Current load metric (CPS over the load window) as the statistics
  // module computes it.
  double LoadMetric() const;
  double BytesMetric() const;

  struct Counters {
    uint64_t requests = 0;          // client-facing requests handled
    uint64_t served_local = 0;      // 200s from our own documents
    uint64_t served_coop = 0;       // 200s for documents hosted as co-op
    uint64_t redirects = 0;         // 301s for migrated documents
    uint64_t not_found = 0;
    uint64_t regenerations = 0;     // dirty-document reconstructions
    uint64_t coop_fetches = 0;      // physical migrations + validations
    uint64_t migrations = 0;        // logical migrations committed
    uint64_t revocations = 0;
    uint64_t pings_sent = 0;
    uint64_t internal_requests = 0;  // server-to-server requests served
    uint64_t stale_serves = 0;       // best-effort serves of cached bytes
    uint64_t not_modified = 0;       // validations answered/received 304
  };
  Counters counters() const;

 private:
  // -- request-path helpers --
  http::Response HandleMigratedRequest(const http::Request& request,
                                       const std::string& target,
                                       PeerClient* peers,
                                       RequestTrace* trace);
  http::Response HandleLocalRequest(const http::Request& request,
                                    const std::string& path,
                                    bool internal, RequestTrace* trace);
  http::Response HandlePing();
  http::Response HandleRevoke(const std::string& target);
  // Plain-text operational snapshot served at /~status (admin surface:
  // counters, graph statistics, the GLT view).
  http::Response HandleStatus();
  // Live introspection endpoints.  `query` is the raw query string
  // (?format=text|json|prometheus); they work over every transport
  // because routing happens here, above the transport layer.
  http::Response HandleDcwsStatus(const std::string& query);
  http::Response HandleDcwsTraces(const std::string& query);
  http::Response HandleDcwsEvents(const std::string& query);
  http::Response HandleDcwsHistory(const std::string& query);
  // Blocking profile capture (?seconds=N&hz=H): holds this worker for N
  // wall seconds, then returns folded stacks.  503 unless DCWS_PROFILE
  // is set (or while another capture runs).
  http::Response HandleDcwsProfile(const std::string& query);

  // Regenerates a dirty document: rewrites hyperlinks whose targets
  // migrated to their current URLs, stores the result as the document's
  // new version and clears the dirty bit.  Returns the stored version.
  Result<storage::DocumentPtr> RegenerateDocument(const std::string& path);

  // Renders a document for transfer to another server: every internal
  // link (the page's self link included) becomes an absolute URL at its
  // current location, so the copy is position-independent on the co-op.
  // Non-HTML documents transfer as the stored version itself.
  Result<storage::DocumentPtr> RenderForTransfer(const std::string& path);

  // Returns `page`'s HTML with every internal hyperlink at its target's
  // current URL: a migrated target's ~migrate URL at its co-op, and
  // `local_prefix` + path for a target still here ("" keeps links
  // site-absolute; "http://<self>" makes them absolute).  Observes the
  // parse/reconstruct histograms and counts one regeneration.
  std::string RewriteInternalLinks(const storage::Document& page,
                                   std::string_view local_prefix);

  // Maps a link occurrence back to the site path of one of OUR documents,
  // seeing through earlier rewrites: plain internal references, absolute
  // URLs at our own authority, and ~migrate URLs naming us as home all
  // resolve to the original document path.  nullopt for genuinely
  // external links.
  std::optional<std::string> InternalPathFor(
      const html::LinkOccurrence& link) const;

  // Attaches piggybacked load info (refreshing our own GLT row first).
  void AttachPiggyback(http::HeaderMap& headers);
  // Absorbs piggybacked info; marks the sender fresh.
  void AbsorbPiggyback(const http::HeaderMap& headers);

  // Issues an internal server-to-server request with piggybacking both
  // ways.  Counts pinger bookkeeping on failure when `for_ping`.
  Result<http::Response> InternalCall(PeerClient* peers,
                                      const http::ServerAddress& target,
                                      http::Request request);

  // Recalls one migrated document: logical location back to self, and
  // the co-op told to revoke unless it is in `skip_notify`.  Shared by
  // the §4.5 revocation sweep and the membership-change paths.
  void RecallDocument(const std::string& doc, PeerClient* peers,
                      const std::vector<http::ServerAddress>& skip_notify)
      DCWS_REQUIRES(duty_mutex_);

  // -- periodic duties (Tick holds duty_mutex_ across each of these) --
  void RunStatistics(PeerClient* peers, MicroTime now)
      DCWS_REQUIRES(duty_mutex_);
  void RunValidationSweep(PeerClient* peers, MicroTime now)
      DCWS_REQUIRES(duty_mutex_);
  void RunPinger(PeerClient* peers, MicroTime now)
      DCWS_REQUIRES(duty_mutex_);
  // Fetches a hosted document from its home server; updates store/table.
  // Returns true on success.
  bool FetchFromHome(PeerClient* peers, const std::string& target,
                     const migrate::MigratedName& name,
                     RequestTrace* trace);

  void CountConnection(uint64_t bytes);

  // Folds a completed trace's per-phase attribution into the
  // dcws_phase_latency_us histogram family (handles pre-resolved by
  // InitMetrics; unknown phase names fall back to the registry).
  void ObservePhases(const obs::Trace& trace);

  // Creates every instrument handle up front (ctor) so a scrape of a
  // fresh server already lists the full schema at zero, and the hot path
  // only ever touches pre-resolved atomic handles.
  void InitMetrics();

  // Concurrency map (see DESIGN.md "Concurrency model & checking"):
  // self_/clock_ are immutable after construction; store_, ldg_, glt_,
  // coop_table_ and pinger_ are internally synchronized
  // (each owns an annotated lock); registry_ and the trace rings are
  // internally synchronized, and the instrument handles below them are
  // set-once pointers to relaxed atomics (lock-free hot path);
  // everything else below is guarded by one of the three Server mutexes.
  // params_ is written only by SetPacing (stats_interval, under
  // duty_mutex_) and read for that field only under duty_mutex_; all
  // other fields are set-once configuration.
  const http::ServerAddress self_;
  // dcws-lint: allow(guarded-by): only stats_interval mutates (SetPacing,
  ServerParams params_;  // under duty_mutex_); everything else is set-once
  const Clock* const clock_;

  storage::DocumentStore store_;
  graph::LocalDocumentGraph ldg_;
  load::GlobalLoadTable glt_;
  migrate::CoopHostTable coop_table_;
  load::PingerPolicy pinger_;

  // Serializes the periodic duties; also guards the policy object the
  // statistics module mutates (HomeMigrationPolicy is documented
  // single-threaded).
  mutable Mutex duty_mutex_;
  migrate::HomeMigrationPolicy home_policy_ DCWS_GUARDED_BY(duty_mutex_);
  MicroTime last_stats_ DCWS_GUARDED_BY(duty_mutex_) = -1;
  MicroTime last_validation_ DCWS_GUARDED_BY(duty_mutex_) = -1;
  MicroTime last_ping_ DCWS_GUARDED_BY(duty_mutex_) = -1;
  MicroTime last_history_ DCWS_GUARDED_BY(duty_mutex_) = -1;

  mutable Mutex window_mutex_;
  metrics::RateWindow rate_window_ DCWS_GUARDED_BY(window_mutex_);

  // Observability.  Handles are created once by InitMetrics (ctor) and
  // never change; increments are relaxed atomics, so the request path
  // takes no lock for counting.
  obs::Registry registry_;
  obs::TraceIdGenerator trace_ids_;
  obs::TraceRing recent_traces_;
  obs::TraceRing slow_traces_;
  // Structured event journal (internally synchronized).  The ctor hands
  // set-once pointers to home_policy_/pinger_/glt_ so policy verdicts
  // are recorded at the point of decision.
  obs::EventJournal journal_;
  // Periodic samples of every registry instrument (internally
  // synchronized); Tick decides WHEN under duty_mutex_ (last_history_)
  // but samples after releasing it, so registry callbacks never run
  // under the duty lock.
  obs::MetricHistory history_;

  obs::Counter* ctr_client_requests_ = nullptr;
  obs::Counter* ctr_served_local_ = nullptr;
  obs::Counter* ctr_served_coop_ = nullptr;
  obs::Counter* ctr_redirects_ = nullptr;
  obs::Counter* ctr_not_found_ = nullptr;
  obs::Counter* ctr_overloaded_ = nullptr;
  obs::Counter* ctr_queue_drops_ = nullptr;
  obs::Counter* ctr_internal_requests_ = nullptr;
  obs::Counter* ctr_stale_serves_ = nullptr;
  obs::Counter* ctr_not_modified_ = nullptr;
  obs::Counter* ctr_regenerations_ = nullptr;
  obs::Counter* ctr_coop_fetches_ = nullptr;
  obs::Counter* ctr_migrations_out_ = nullptr;
  obs::Counter* ctr_migrations_in_ = nullptr;
  obs::Counter* ctr_revocations_ = nullptr;
  obs::Counter* ctr_pings_sent_ = nullptr;
  obs::Counter* ctr_piggyback_absorbs_ = nullptr;
  obs::Histogram* hist_latency_client_ = nullptr;
  obs::Histogram* hist_latency_internal_ = nullptr;
  obs::Histogram* hist_net_write_ = nullptr;
  obs::Histogram* hist_html_parse_ = nullptr;
  obs::Histogram* hist_html_reconstruct_ = nullptr;
  // dcws_phase_latency_us{phase=...} handles, keyed by phase name and
  // filled by InitMetrics (set-once; lock-free lookup in ObservePhases).
  std::map<std::string, obs::Histogram*, std::less<>> hist_phases_;

  mutable Mutex log_mutex_;
  std::function<void(const std::string&)> access_log_
      DCWS_GUARDED_BY(log_mutex_);
};

}  // namespace dcws::core

#endif  // DCWS_CORE_SERVER_H_
