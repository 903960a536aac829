#include "src/sim/sim_client.h"

#include <algorithm>

namespace dcws::sim {

SimClient::SimClient(SimWorld* world, workload::EntryPicker entry,
                     uint64_t seed, workload::BrowseConfig config)
    : world_(world),
      walk_(std::move(entry), seed, std::move(config),
            static_cast<size_t>(world->calib().image_helpers)) {}

MicroTime SimClient::ReserveCpu(MicroTime cost) {
  MicroTime now = world_->Now();
  cpu_busy_until_ = std::max(cpu_busy_until_, now) + cost;
  return cpu_busy_until_;
}

void SimClient::Start() {
  // Stagger client start-up over one second so 400 clients do not fire
  // their first request on the same event timestamp.
  world_->queue().ScheduleAfter(
      static_cast<MicroTime>(walk_.rng().NextBelow(kMicrosPerSecond)),
      [this]() { Pump(); });
}

void SimClient::Pump() {
  while (true) {
    if (std::optional<FetchId> id = walk_.NextFetch()) {
      Issue(*id);
    } else if (walk_.walking()) {
      return;  // helpers still busy; the last completion re-enters here
    } else {
      walk_.Begin();
    }
  }
}

void SimClient::Issue(FetchId id) {
  if (walk_.FromCache(id)) {
    // Cache hit: a sliver of client CPU, no connection.
    world_->queue().ScheduleAt(ReserveCpu(100), [this, id]() { Finish(id); });
    return;
  }
  // The issuing thread spends its per-request CPU (serialized on this
  // instance's CPU slice), then the request travels half an RTT, queues
  // at the server, and the response returns.
  const http::Url& url = walk_.url(id);
  MicroTime issue_done = ReserveCpu(world_->calib().client_request_cpu);
  MicroTime half_rtt = world_->RttTo({url.host, url.port}) / 2;
  world_->queue().ScheduleAt(issue_done + half_rtt,
                             [this, id]() { Send(id); });
}

void SimClient::Send(FetchId id) {
  const http::Url& url = walk_.url(id);
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  http::ServerAddress target{url.host, url.port};
  MicroTime half_rtt = world_->RttTo(target) / 2;
  bool routed = world_->SubmitRequest(
      target, std::move(request),
      [this, id, half_rtt](http::Response response) {
        world_->queue().ScheduleAfter(
            half_rtt, [this, id, response = std::move(response)]() {
              Receive(id, response);
            });
      });
  if (!routed) {
    world_->CountClientFailure();
    walk_.OnFailure(id);
    Finish(id);
  }
}

void SimClient::Receive(FetchId id, const http::Response& response) {
  world_->CountClientResponse(response);
  switch (walk_.OnResponse(id, response)) {
    case workload::Walk::Verdict::kRetry:
      world_->queue().ScheduleAfter(walk_.backoff(id),
                                    [this, id]() { Issue(id); });
      return;
    case workload::Walk::Verdict::kRedirect:
      Issue(id);
      return;
    case workload::Walk::Verdict::kFailed:
      // A 301 the walk could not follow fails on the client side.
      if (response.IsRedirect()) world_->CountClientFailure();
      Finish(id);
      return;
    case workload::Walk::Verdict::kDone: {
      // The parse of an HTML page costs client CPU.
      MicroTime ready = walk_.parsed(id)
                            ? ReserveCpu(world_->calib().client_parse_cpu)
                            : world_->Now();
      world_->queue().ScheduleAt(ready, [this, id]() { Finish(id); });
      return;
    }
  }
}

void SimClient::Finish(FetchId id) {
  walk_.Complete(id);
  Pump();
}

std::vector<std::unique_ptr<SimClient>> StartClients(SimWorld* world,
                                                     int count,
                                                     uint64_t seed) {
  std::vector<std::unique_ptr<SimClient>> clients;
  Rng seeds(seed);
  for (int i = 0; i < count; ++i) {
    clients.push_back(std::make_unique<SimClient>(
        world, workload::PickUniformly(world->entry_urls()),
        seeds.NextUint64()));
    clients.back()->Start();
  }
  return clients;
}

}  // namespace dcws::sim
