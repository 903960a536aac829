#include "src/net/inproc.h"

#include "src/util/logging.h"

namespace dcws::net {

InprocServerHost::InprocServerHost(core::Server* server,
                                   InprocNetwork* network)
    : server_(server), network_(network) {}

InprocServerHost::~InprocServerHost() { Stop(); }

void InprocServerHost::Start() {
  MutexLock lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  draining_ = false;
  int workers = server_->params().worker_threads;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  duty_thread_ = std::thread([this]() { DutyLoop(); });
}

void InprocServerHost::Stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  StopThreads();
}

void InprocServerHost::Drain() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    draining_ = true;
    // Workers notify after every pop; wait for the queue to empty.
    while (!queue_.empty() && !stopping_) queue_cv_.Wait(mutex_);
    stopping_ = true;
  }
  StopThreads();
}

void InprocServerHost::StopThreads() {
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (duty_thread_.joinable()) duty_thread_.join();
  {
    MutexLock lock(mutex_);
    // Fail whatever is still queued (empty after a drain).
    for (auto& job : queue_) {
      job->promise.set_value(
          Status::Unavailable("server stopped: " +
                              server_->address().ToString()));
    }
    queue_.clear();
    running_ = false;
  }
  // Workers and duties are quiesced, so no more Emits: settle the JSONL
  // mirror before Stop/Drain returns (artifact collectors read it next).
  server_->journal().Flush();
}

Result<http::Response> InprocServerHost::Call(
    const http::Request& request) {
  std::future<Result<http::Response>> future;
  bool shed = false;
  {
    MutexLock lock(mutex_);
    if (!running_ || stopping_ || draining_) {
      return Status::Unavailable("server not running: " +
                                 server_->address().ToString());
    }
    if (queue_.size() >=
        static_cast<size_t>(server_->params().socket_queue_length)) {
      dropped_ += 1;
      shed = true;
    } else {
      auto job = std::make_unique<Job>();
      job->request = request;
      job->enqueued = server_->clock()->Now();
      future = job->promise.get_future();
      queue_.push_back(std::move(job));
      accepted_ += 1;
    }
  }
  if (shed) {
    // Socket queue overflow: graceful 503 (§5.2).  The server never
    // sees the request, so feed its outcome counters and event journal
    // directly (the request is already parsed here, so the kQueueDrop
    // event carries the shed target and trace id).  The emit happens
    // outside mutex_: it locks journal slots and may write the JSONL
    // sink, and the queue must keep moving meanwhile.
    server_->CountQueueDrop(&request);
    return http::MakeOverloadedResponse();
  }
  queue_cv_.NotifyOne();
  return future.get();
}

void InprocServerHost::WorkerLoop() {
  while (true) {
    std::unique_ptr<Job> job;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(mutex_);
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      // A Drain() waiter watches for the queue to empty.
      if (queue_.empty()) queue_cv_.NotifyAll();
    }
    // The handler may itself call back into the network (co-op fetch),
    // blocking this worker on another host's queue — exactly as a real
    // worker thread blocks on an upstream HTTP connection.
    core::RequestTrace trace;
    MicroTime now = server_->clock()->Now();
    if (now > job->enqueued) trace.queue_wait = now - job->enqueued;
    http::Response response =
        server_->HandleRequest(job->request, network_, &trace);
    // The caller reads `body` once the promise hands the response over.
    response.OwnEntity();
    job->promise.set_value(std::move(response));
  }
}

void InprocServerHost::DutyLoop() {
  // The statistics module and pinger thread of the paper, folded into
  // one duty thread that polls Tick (Tick itself spaces the real work by
  // T_st / T_pi / T_val).
  while (true) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
    }
    server_->Tick(network_);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

uint64_t InprocServerHost::accepted() const {
  MutexLock lock(mutex_);
  return accepted_;
}

uint64_t InprocServerHost::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

InprocNetwork::~InprocNetwork() { StopAll(); }

InprocServerHost& InprocNetwork::AddServer(core::Server* server) {
  MutexLock lock(mutex_);
  auto host = std::make_unique<InprocServerHost>(server, this);
  host->Start();
  auto [it, inserted] =
      hosts_.emplace(server->address(), std::move(host));
  return *it->second;
}

InprocServerHost* InprocNetwork::Find(
    const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  auto it = hosts_.find(address);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void InprocNetwork::RemoveServer(const http::ServerAddress& address) {
  std::unique_ptr<InprocServerHost> host;
  {
    MutexLock lock(mutex_);
    auto it = hosts_.find(address);
    if (it == hosts_.end()) return;
    host = std::move(it->second);
    hosts_.erase(it);
    down_.erase(address);
  }
  // Drain outside the map lock (workers may be blocked in Execute).
  host->Drain();
  MutexLock lock(mutex_);
  retired_.push_back(std::move(host));
}

void InprocNetwork::SetDown(const http::ServerAddress& address,
                            bool down) {
  MutexLock lock(mutex_);
  if (down) {
    down_.insert(address);
  } else {
    down_.erase(address);
  }
}

bool InprocNetwork::IsDown(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  return down_.contains(address);
}

void InprocNetwork::StopAll() {
  // Stop outside the map lock: workers may be blocked in Execute, which
  // needs Find.
  std::vector<InprocServerHost*> hosts;
  {
    MutexLock lock(mutex_);
    for (auto& [address, host] : hosts_) hosts.push_back(host.get());
  }
  for (InprocServerHost* host : hosts) host->Stop();
}

Result<http::Response> InprocNetwork::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  InprocServerHost* host = nullptr;
  {
    MutexLock lock(mutex_);
    if (down_.contains(target)) {
      return Status::Unavailable("server down: " + target.ToString());
    }
    auto it = hosts_.find(target);
    if (it == hosts_.end()) {
      return Status::NotFound("no such server: " + target.ToString());
    }
    host = it->second.get();
  }
  return host->Call(request);
}

Result<http::Response> InprocFetcher::Fetch(const http::Url& url) {
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  return network_->Execute({url.host, url.port}, request);
}

}  // namespace dcws::net
