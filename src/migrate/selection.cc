#include "src/migrate/selection.h"

#include <limits>
#include <unordered_map>

namespace dcws::migrate {

using SelectionView = graph::LocalDocumentGraph::SelectionView;

// Step 3 repeats "with reduced value of T": we halve it.
constexpr uint64_t kThresholdDivisor = 2;

std::optional<std::string> SelectDocumentForMigration(
    const std::vector<SelectionView>& views, uint64_t hit_threshold) {
  // Steps 1 + 2: candidates are local, non-entry-point documents.
  std::vector<const SelectionView*> candidates;
  candidates.reserve(views.size());
  for (const SelectionView& v : views) {
    if (!v.local) continue;  // already migrated
    if (v.entry_point) continue;
    candidates.push_back(&v);
  }
  if (candidates.empty()) return std::nullopt;

  // Step 3: threshold filter with geometric back-off.
  uint64_t threshold = hit_threshold;
  std::vector<const SelectionView*> hot;
  while (true) {
    hot.clear();
    for (const SelectionView* v : candidates) {
      if (v->window_hits >= threshold) hot.push_back(v);
    }
    if (!hot.empty()) break;
    if (threshold == 0) {
      // Even T = 0 found nothing only if candidates was empty — handled
      // above — so this cannot happen; keep the guard for safety.
      return std::nullopt;
    }
    threshold /= kThresholdDivisor;
  }

  // Step 4: fewest remote LinkFrom documents.
  size_t best_remote = std::numeric_limits<size_t>::max();
  std::vector<const SelectionView*> step4;
  for (const SelectionView* v : hot) {
    if (v->remote_link_from_count < best_remote) {
      best_remote = v->remote_link_from_count;
      step4.clear();
    }
    if (v->remote_link_from_count == best_remote) step4.push_back(v);
  }

  // Step 5: fewest LinkTo documents; names break ties.
  const SelectionView* best = nullptr;
  for (const SelectionView* v : step4) {
    if (best == nullptr || v->link_to_count < best->link_to_count ||
        (v->link_to_count == best->link_to_count &&
         v->name < best->name)) {
      best = v;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->name;
}

std::optional<std::string> SelectDocumentForMigration(
    const std::vector<graph::DocumentRecord>& records,
    const http::ServerAddress& home, uint64_t hit_threshold) {
  std::unordered_map<std::string_view, const graph::DocumentRecord*>
      index;
  index.reserve(records.size());
  for (const graph::DocumentRecord& r : records) index[r.name] = &r;

  std::vector<SelectionView> views;
  views.reserve(records.size());
  for (const graph::DocumentRecord& r : records) {
    SelectionView view;
    view.name = r.name;
    view.window_hits = r.window_hits;
    view.link_to_count = r.link_to.size();
    view.entry_point = r.entry_point;
    view.local = r.location == home;
    for (const std::string& from : r.link_from) {
      auto it = index.find(from);
      if (it != index.end() && !(it->second->location == home)) {
        ++view.remote_link_from_count;
      }
    }
    views.push_back(std::move(view));
  }
  return SelectDocumentForMigration(views, hit_threshold);
}

}  // namespace dcws::migrate
