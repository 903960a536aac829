#include "src/sim/sim_cluster.h"

#include <cassert>

namespace dcws::sim {

SimHost::SimHost(SimWorld* world, std::unique_ptr<core::Server> server,
                 HostProfile profile)
    : world_(world), server_(std::move(server)), profile_(profile) {}

MicroTime SimHost::ServiceTime(const http::Response& response,
                               const core::RequestTrace& trace) const {
  const SimCalibration& calib = world_->calib();
  double cpu_scale = profile_.cpu_scale > 0 ? profile_.cpu_scale : 1.0;
  uint64_t nic = profile_.nic_bytes_per_sec > 0
                     ? profile_.nic_bytes_per_sec
                     : calib.server_nic_bytes_per_sec;

  MicroTime cpu = response.status_code == 200 ? calib.connection_cpu
                                              : calib.redirect_cpu;
  if (trace.regenerated) cpu += calib.regen_cpu;
  MicroTime cost =
      static_cast<MicroTime>(static_cast<double>(cpu) / cpu_scale);
  // NIC transmission of the body (the switch fabric is modelled as the
  // aggregate cap checked by experiment drivers; per-connection we pay
  // the server NIC, the slower of the two for any single transfer).
  cost += static_cast<MicroTime>(
      static_cast<double>(response.entity().size()) * kMicrosPerSecond /
      static_cast<double>(nic));
  if (trace.coop_fetch) {
    // Synchronous pull from the home server: connection round trip plus
    // receiving the document on our NIC.
    cost += calib.rtt + 2 * profile_.extra_rtt;
    cost += static_cast<MicroTime>(
        static_cast<double>(trace.fetch_bytes) * kMicrosPerSecond /
        static_cast<double>(nic));
  }
  return cost;
}

void SimHost::Submit(http::Request request, ResponseCallback done) {
  const core::ServerParams& params = world_->config().params;
  if (queue_.size() >=
      static_cast<size_t>(params.socket_queue_length)) {
    // Socket queue overflow: graceful 503 (§5.2 request drop behaviour).
    // The server never sees the request; feed its outcome counters and
    // event journal so the registry adds up to what clients observed
    // (mirrors the real transports' kQueueDrop emission).
    drops_ += 1;
    server_->CountQueueDrop(&request);
    ChargeBackground(world_->calib().redirect_cpu);
    world_->queue().ScheduleAfter(
        world_->calib().redirect_cpu,
        [done = std::move(done)]() { done(http::MakeOverloadedResponse()); });
    return;
  }
  queue_.push_back(
      Pending{std::move(request), std::move(done), world_->Now()});
  if (!serving_) StartNext();
}

void SimHost::ChargeBackground(MicroTime cost) {
  background_debt_ += cost;
}

void SimHost::StartNext() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  serving_ = true;
  // Service begins now: handle the request at the current virtual time,
  // then hold the station for the modelled duration.
  Pending pending = std::move(queue_.front());
  core::RequestTrace trace;
  if (world_->Now() > pending.enqueued) {
    trace.queue_wait = world_->Now() - pending.enqueued;
  }
  http::Response response =
      server_->HandleRequest(pending.request, world_, &trace);
  MicroTime service = ServiceTime(response, trace) + background_debt_;
  background_debt_ = 0;

  world_->queue().ScheduleAfter(
      service, [this, done = std::move(pending.done),
                response = std::move(response)]() mutable {
        queue_.pop_front();
        done(std::move(response));
        StartNext();
      });
}

SimWorld::SimWorld(const workload::SiteSpec& site, SimConfig config)
    : config_(std::move(config)) {
  assert(config_.servers >= 1);
  for (int i = 0; i < config_.servers; ++i) {
    http::ServerAddress address{"node" + std::to_string(i + 1),
                                static_cast<uint16_t>(8001 + i)};
    auto server = std::make_unique<core::Server>(address, config_.params,
                                                 queue_.clock());
    HostProfile profile =
        static_cast<size_t>(i) < config_.host_profiles.size()
            ? config_.host_profiles[i]
            : HostProfile{};
    hosts_.push_back(
        std::make_unique<SimHost>(this, std::move(server), profile));
    index_[address] = hosts_.back().get();
  }
  // Full peering.
  for (auto& a : hosts_) {
    for (auto& b : hosts_) {
      if (a != b) a->server().RegisterPeer(b->address());
    }
  }
  // Host 0 is the home server for the site; baselines replicate the
  // whole site onto every host instead.
  size_t seeded_hosts = config_.replicate_site_everywhere
                            ? hosts_.size()
                            : size_t{1};
  for (size_t i = 0; i < seeded_hosts; ++i) {
    Status status =
        hosts_[i]->server().LoadSite(site.documents, site.entry_points);
    assert(status.ok());
    (void)status;
  }
  for (const std::string& entry : site.entry_points) {
    entry_urls_.push_back(http::Url{hosts_[0]->address().host,
                                    hosts_[0]->address().port, entry});
  }
  ScheduleTicks();
}

void SimWorld::ScheduleTicks() {
  // Each host runs its periodic duties four times per virtual second
  // (fine enough for accelerated warm-up pacing), staggered so
  // statistics recalculations do not all land on one event timestamp.
  for (size_t i = 0; i < hosts_.size(); ++i) {
    MicroTime offset = static_cast<MicroTime>(i + 1) * 7'001;
    auto tick = std::make_shared<std::function<void()>>();
    SimHost* host = hosts_[i].get();
    // The rescheduling closure must not own `tick` (capturing the
    // shared_ptr it is stored in makes a reference cycle and leaks the
    // whole chain); the world owns the tick functions, the closure holds
    // a weak reference that goes dead when the world is torn down.
    std::weak_ptr<std::function<void()>> weak = tick;
    *tick = [this, host, weak]() {
      if (!down_.contains(host->address())) {
        host->server().Tick(this);
      }
      if (auto self = weak.lock()) {
        queue_.ScheduleAfter(kMicrosPerSecond / 4, *self);
      }
    };
    ticks_.push_back(tick);
    queue_.ScheduleAfter(offset, *tick);
  }
}

MicroTime SimWorld::RttTo(const http::ServerAddress& address) {
  SimHost* host = FindHost(address);
  MicroTime rtt = config_.calib.rtt;
  if (host != nullptr) rtt += 2 * host->profile().extra_rtt;
  return rtt;
}

SimHost* SimWorld::FindHost(const http::ServerAddress& address) {
  auto it = index_.find(address);
  return it == index_.end() ? nullptr : it->second;
}

void SimWorld::SetDown(const http::ServerAddress& address, bool down) {
  if (down) {
    down_.insert(address);
  } else {
    down_.erase(address);
  }
}

bool SimWorld::IsDown(const http::ServerAddress& address) const {
  return down_.contains(address);
}

Result<http::Response> SimWorld::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  if (IsDown(target)) {
    return Status::Unavailable("server down: " + target.ToString());
  }
  SimHost* host = FindHost(target);
  if (host == nullptr) {
    return Status::NotFound("no such server: " + target.ToString());
  }
  // Synchronous execution with cost folded into the remote station as
  // background debt.  Internal transfers are rare (one migration per
  // statistics interval, validations every T_val), so the approximation
  // of not queueing through the remote backlog is benign — and DCWS
  // deliberately piggybacks on these transfers rather than adding more.
  core::RequestTrace trace;
  http::Response response =
      host->server().HandleRequest(request, this, &trace);
  host->ChargeBackground(host->ServiceTime(response, trace));
  return response;
}

bool SimWorld::SubmitRequest(const http::ServerAddress& target,
                             http::Request request,
                             SimHost::ResponseCallback done) {
  // Sample client-perceived response time for a fraction of requests:
  // queueing + service at the server plus the network round trip.
  if (latency_decimator_++ % 8 == 0) {
    MicroTime submitted = Now();
    MicroTime rtt = RttTo(target);
    done = [this, submitted, rtt, inner = std::move(done)](
               http::Response response) {
      if (response.status_code == 200) {
        latency_samples_ms_.push_back(
            static_cast<double>(Now() - submitted + rtt) /
            kMicrosPerMilli);
      }
      inner(std::move(response));
    };
  }
  if (interceptor_ && interceptor_(target, request, done)) return true;
  if (IsDown(target)) return false;
  SimHost* host = FindHost(target);
  if (host == nullptr) return false;
  host->Submit(std::move(request), std::move(done));
  return true;
}

void SimWorld::ResetLatencySamples() { latency_samples_ms_.clear(); }

void SimWorld::CountClientResponse(const http::Response& response) {
  if (response.status_code == 200) {
    totals_.connections += 1;
    totals_.ok += 1;
    totals_.bytes += response.entity().size();
  } else if (response.IsRedirect()) {
    totals_.connections += 1;
    totals_.redirects += 1;
  } else if (response.status_code == 503) {
    totals_.drops += 1;
  } else {
    totals_.failures += 1;
  }
}

void SimWorld::CountClientFailure() { totals_.failures += 1; }

std::vector<SimWorld::HostEvents> SimWorld::CollectEventStreams() const {
  std::vector<HostEvents> streams;
  streams.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    const obs::EventJournal& journal = host->server_->journal();
    streams.push_back(HostEvents{journal.server(), journal.Snapshot(),
                                 journal.total(), journal.dropped()});
  }
  return streams;
}

std::vector<SimWorld::HostHistory> SimWorld::CollectHistory(
    std::string_view metric) const {
  std::vector<HostHistory> histories;
  histories.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    const core::Server& server = *host->server_;
    histories.push_back(HostHistory{server.address().ToString(),
                                    server.history().Snapshot(metric)});
  }
  return histories;
}

std::vector<obs::MetricSnapshot> SimWorld::AggregateMetrics() const {
  std::vector<std::vector<obs::MetricSnapshot>> per_host;
  per_host.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    per_host.push_back(host->server_->metrics().Snapshot());
  }
  return obs::MergeSnapshots(per_host);
}

}  // namespace dcws::sim
