#include "src/load/pinger.h"

#include <algorithm>

namespace dcws::load {

std::vector<http::ServerAddress> PingerPolicy::PeersToProbe(
    const GlobalLoadTable& table, MicroTime now) const {
  std::vector<http::ServerAddress> stale =
      table.StalePeers(now, staleness_limit_);
  // Snapshot the down set (sorted) in one lock acquisition, then filter
  // outside the lock — keeps the capability out of the erase_if lambda,
  // which the thread-safety analysis cannot see into.
  std::vector<http::ServerAddress> down = DownPeers();
  std::erase_if(stale, [&down](const http::ServerAddress& peer) {
    return std::binary_search(down.begin(), down.end(), peer);
  });
  return stale;
}

void PingerPolicy::RecordProbeResult(const http::ServerAddress& peer,
                                     bool success) {
  bool was_down;
  bool is_down;
  int failures = 0;
  {
    MutexLock lock(mutex_);
    if (injected_failures_.contains(peer)) success = false;
    was_down = IsDownLocked(peer);
    if (success) {
      consecutive_failures_.erase(peer);
    } else {
      failures = consecutive_failures_[peer] += 1;
    }
    is_down = IsDownLocked(peer);
  }
  // Transition edges are detected under the lock, so exactly one of the
  // concurrently-recording threads emits each verdict; the journal emit
  // itself happens outside (journal slot mutexes stay leaf-level).
  if (journal_ == nullptr || is_down == was_down) return;
  obs::Event event;
  event.type = is_down ? obs::EventType::kPeerDown
                       : obs::EventType::kPeerUp;
  event.peer = peer.ToString();
  event.detail =
      is_down ? std::to_string(failures) +
                    " consecutive probe failures (threshold " +
                    std::to_string(kMaxConsecutiveFailures) + ")"
              : "probe succeeded; peer back up";
  journal_->Emit(std::move(event));
}

bool PingerPolicy::IsDown(const http::ServerAddress& peer) const {
  MutexLock lock(mutex_);
  return IsDownLocked(peer);
}

bool PingerPolicy::IsDownLocked(const http::ServerAddress& peer) const {
  auto it = consecutive_failures_.find(peer);
  return it != consecutive_failures_.end() &&
         it->second >= kMaxConsecutiveFailures;
}

std::vector<http::ServerAddress> PingerPolicy::DownPeers() const {
  std::vector<http::ServerAddress> down;
  {
    MutexLock lock(mutex_);
    for (const auto& [peer, failures] : consecutive_failures_) {
      if (failures >= kMaxConsecutiveFailures) {
        down.push_back(peer);
      }
    }
  }
  std::sort(down.begin(), down.end());
  return down;
}

int PingerPolicy::ConsecutiveFailures(
    const http::ServerAddress& peer) const {
  MutexLock lock(mutex_);
  auto it = consecutive_failures_.find(peer);
  return it == consecutive_failures_.end() ? 0 : it->second;
}

void PingerPolicy::InjectProbeFailure(const http::ServerAddress& peer,
                                      bool fail) {
  MutexLock lock(mutex_);
  if (fail) {
    injected_failures_.insert(peer);
  } else {
    injected_failures_.erase(peer);
  }
}

bool PingerPolicy::IsProbeFailureInjected(
    const http::ServerAddress& peer) const {
  MutexLock lock(mutex_);
  return injected_failures_.contains(peer);
}

void PingerPolicy::Forget(const http::ServerAddress& peer) {
  MutexLock lock(mutex_);
  consecutive_failures_.erase(peer);
  injected_failures_.erase(peer);
}

}  // namespace dcws::load
