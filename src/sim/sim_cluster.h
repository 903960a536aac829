#ifndef DCWS_SIM_SIM_CLUSTER_H_
#define DCWS_SIM_SIM_CLUSTER_H_

#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/server.h"
#include "src/core/server_params.h"
#include "src/http/url.h"
#include "src/sim/calibration.h"
#include "src/sim/event_queue.h"
#include "src/workload/site.h"

namespace dcws::sim {

class SimWorld;

// One simulated workstation running a DCWS server process, modelled as a
// single FIFO station whose service time covers connection CPU, NIC
// transmission and any document-engineering work the request triggered.
// The paper's socket backlog (L_sq = 100) bounds the queue; arrivals
// beyond it are answered 503 ("dropped gracefully").
class SimHost {
 public:
  using ResponseCallback = std::function<void(http::Response)>;

  SimHost(SimWorld* world, std::unique_ptr<core::Server> server,
          HostProfile profile);

  core::Server& server() { return *server_; }
  const HostProfile& profile() const { return profile_; }
  const http::ServerAddress& address() const { return server_->address(); }

  // Client-side entry point: queues the request; `done` fires when the
  // response has been fully transmitted by the server (propagation delay
  // is the caller's business).
  void Submit(http::Request request, ResponseCallback done);

  // Adds service-time debt for work done on behalf of a remote peer
  // (document fetches, pings).  Folded into the next service period.
  void ChargeBackground(MicroTime cost);

  // Computes the modelled service time for a handled request.
  MicroTime ServiceTime(const http::Response& response,
                        const core::RequestTrace& trace) const;

  uint64_t drops() const { return drops_; }
  size_t queue_length() const { return queue_.size(); }

 private:
  friend class SimWorld;
  struct Pending {
    http::Request request;
    ResponseCallback done;
    MicroTime enqueued = 0;  // arrival time, for the accept_wait span
  };

  void StartNext();

  SimWorld* world_;
  std::unique_ptr<core::Server> server_;
  HostProfile profile_;
  std::deque<Pending> queue_;
  bool serving_ = false;
  MicroTime background_debt_ = 0;
  uint64_t drops_ = 0;
};

// Cluster-wide totals of client-visible traffic, sampled by experiment
// drivers to produce CPS/BPS series.
struct ClientTotals {
  uint64_t connections = 0;  // completed 200/301 exchanges
  uint64_t ok = 0;
  uint64_t redirects = 0;
  uint64_t drops = 0;     // 503s received by clients
  uint64_t failures = 0;  // unreachable / 404
  uint64_t bytes = 0;     // body bytes delivered to clients
};

struct SimConfig {
  core::ServerParams params;
  SimCalibration calib;
  int servers = 1;
  uint64_t seed = 1;
  // Baselines (RR-DNS, central router) replicate the full site onto
  // every server; DCWS proper loads it onto host 0 only and lets
  // migration spread it.
  bool replicate_site_everywhere = false;
  // Optional per-host profile (index = host); hosts beyond the vector
  // use the defaults.  Enables heterogeneous and geo-distributed
  // experiments.
  std::vector<HostProfile> host_profiles;
};

// The virtual cluster: event queue, hosts, the site (loaded onto host 0,
// the home server) and the peer transport that charges modelled costs.
class SimWorld : public core::PeerClient {
 public:
  SimWorld(const workload::SiteSpec& site, SimConfig config);

  EventQueue& queue() { return queue_; }
  MicroTime Now() const { return queue_.Now(); }
  const SimConfig& config() const { return config_; }
  const SimCalibration& calib() const { return config_.calib; }

  size_t host_count() const { return hosts_.size(); }
  SimHost& host(size_t i) { return *hosts_[i]; }
  SimHost* FindHost(const http::ServerAddress& address);

  // Entry-point URLs of the loaded site (all on the home server).
  const std::vector<http::Url>& entry_urls() const { return entry_urls_; }

  // Round-trip time from a (LAN-local) client to `address`, including
  // the host's WAN distance.
  MicroTime RttTo(const http::ServerAddress& address);

  // Crash injection.
  void SetDown(const http::ServerAddress& address, bool down);
  bool IsDown(const http::ServerAddress& address) const;

  // PeerClient: synchronous server-to-server call with modelled charge.
  Result<http::Response> Execute(const http::ServerAddress& target,
                                 const http::Request& request) override;

  // Client-side submission path.  Baselines install an interceptor to
  // stand virtual addresses (a DNS name, a router VIP) in front of the
  // physical hosts; when it declines (returns false) the request goes to
  // the physical host directly.
  using SubmitInterceptor =
      std::function<bool(const http::ServerAddress& target,
                         const http::Request& request,
                         SimHost::ResponseCallback done)>;
  void SetSubmitInterceptor(SubmitInterceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }
  // Routes a client request to `target` (through the interceptor, if
  // any).  Returns false when no such host exists (client-level
  // failure).
  bool SubmitRequest(const http::ServerAddress& target,
                     http::Request request,
                     SimHost::ResponseCallback done);

  // Client bookkeeping (called by SimClient).
  void CountClientResponse(const http::Response& response);
  void CountClientFailure();
  const ClientTotals& totals() const { return totals_; }

  // Client-perceived response times (request submission to last byte,
  // network included), which the paper lists as the third key metric but
  // could not measure on its operational testbed (§5.3) — the simulator
  // can.  Sampled 1-in-8 to bound memory; successful (200) exchanges
  // only.  Reset at the start of a measured window.
  void ResetLatencySamples();
  std::vector<double> TakeLatencySamplesMs() const {
    return latency_samples_ms_;
  }

  // Cluster-wide metric snapshot: every host's registry merged by
  // (name, labels) — counters/gauges summed, histograms bucket-merged.
  // Schema-identical to a live server's /.dcws/status, so bench JSON
  // dumps compare directly against real scrapes.
  std::vector<obs::MetricSnapshot> AggregateMetrics() const;

  // Per-host structured event journals (schema-identical to a live
  // server's GET /.dcws/events), so simulated experiments keep the
  // same decision audit as the real transports.
  struct HostEvents {
    std::string server;
    std::vector<obs::Event> events;
    uint64_t total = 0;    // events ever emitted by this host
    uint64_t dropped = 0;  // evicted by ring wrap (total > capacity)
  };
  std::vector<HostEvents> CollectEventStreams() const;

  // Per-host metric history rings (schema-identical to a live server's
  // GET /.dcws/history).  The scheduled ticks drive each server's
  // sampler on virtual time, so a finished run carries the trailing
  // ring of every instrument — per-host load/latency trends the
  // aggregate CPS/BPS series cannot show.  `metric` "" = all series.
  struct HostHistory {
    std::string server;
    std::vector<obs::HistorySeries> series;
  };
  std::vector<HostHistory> CollectHistory(
      std::string_view metric = {}) const;

 private:
  void ScheduleTicks();

  SimConfig config_;
  EventQueue queue_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::unordered_map<http::ServerAddress, SimHost*,
                     http::ServerAddressHash>
      index_;
  std::set<http::ServerAddress> down_;
  std::vector<http::Url> entry_urls_;
  ClientTotals totals_;
  SubmitInterceptor interceptor_;
  // Owns the per-host rescheduling tick closures; the closures
  // themselves hold only weak references (see ScheduleTicks).
  std::vector<std::shared_ptr<std::function<void()>>> ticks_;
  uint64_t latency_decimator_ = 0;
  std::vector<double> latency_samples_ms_;
};

}  // namespace dcws::sim

#endif  // DCWS_SIM_SIM_CLUSTER_H_
