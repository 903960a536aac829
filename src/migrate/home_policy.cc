#include "src/migrate/home_policy.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace dcws::migrate {

namespace {

std::string LoadToString(double load) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", load);
  return buf;
}

}  // namespace

std::optional<HomeMigrationPolicy::Decision> HomeMigrationPolicy::Decide(
    const std::vector<graph::LocalDocumentGraph::SelectionView>& views,
    const load::GlobalLoadTable& glt, double own_load, MicroTime now,
    const std::vector<http::ServerAddress>& down_peers) {
  if (own_load < config_.min_load_cps) return std::nullopt;
  if (last_migration_ >= 0 &&
      now - last_migration_ < config_.migration_interval) {
    return std::nullopt;
  }

  // Candidate co-ops from least to most loaded; skip ourselves, peers in
  // their T_coop cool-down, and peers already too loaded to help.
  std::vector<load::LoadEntry> peers = glt.Snapshot();
  std::sort(peers.begin(), peers.end(),
            [](const load::LoadEntry& a, const load::LoadEntry& b) {
              if (a.load_metric != b.load_metric) {
                return a.load_metric < b.load_metric;
              }
              return a.server < b.server;
            });

  for (const load::LoadEntry& peer : peers) {
    if (peer.server == self_) continue;
    if (std::find(down_peers.begin(), down_peers.end(), peer.server) !=
        down_peers.end()) {
      continue;
    }
    if (own_load <= kImbalanceFactor * peer.load_metric) {
      // Peers are sorted by load: if the least-loaded does not justify a
      // migration, none will.
      return std::nullopt;
    }
    auto it = last_migration_to_.find(peer.server);
    if (it != last_migration_to_.end() &&
        now - it->second < config_.coop_accept_interval) {
      continue;
    }
    auto doc = SelectDocumentForMigration(views, config_.hit_threshold);
    if (!doc.has_value()) return std::nullopt;
    Decision decision{std::move(*doc), peer.server};
    RecordDecision(decision, peers, own_load, peer.load_metric, now);
    return decision;
  }
  return std::nullopt;
}

void HomeMigrationPolicy::RecordDecision(
    const Decision& decision, const std::vector<load::LoadEntry>& peers,
    double own_load, double peer_load, MicroTime now) {
  if (journal_ == nullptr) return;
  obs::Event event;
  event.type = obs::EventType::kMigrationDecided;
  event.doc = decision.doc;
  event.peer = decision.target.ToString();
  event.own_load = own_load;
  event.peer_load = peer_load;
  // The threshold comparison that made this a migration: the paper's
  // "determination that a migration should occur".
  event.detail = "own " + LoadToString(own_load) + " cps > " +
                 LoadToString(kImbalanceFactor) + " x " +
                 LoadToString(peer_load) + " cps at " +
                 decision.target.ToString();
  event.glt.reserve(peers.size());
  for (const load::LoadEntry& row : peers) {
    event.glt.push_back(obs::GltRow{
        row.server.ToString(), row.load_metric,
        row.updated_at < 0 ? -1 : now - row.updated_at});
  }
  journal_->Emit(std::move(event));
}

std::optional<HomeMigrationPolicy::Decision> HomeMigrationPolicy::Decide(
    const std::vector<graph::DocumentRecord>& snapshot,
    const load::GlobalLoadTable& glt, double own_load, MicroTime now,
    const std::vector<http::ServerAddress>& down_peers) {
  std::unordered_map<std::string_view, const graph::DocumentRecord*>
      index;
  index.reserve(snapshot.size());
  for (const graph::DocumentRecord& r : snapshot) index[r.name] = &r;
  std::vector<graph::LocalDocumentGraph::SelectionView> views;
  views.reserve(snapshot.size());
  for (const graph::DocumentRecord& r : snapshot) {
    graph::LocalDocumentGraph::SelectionView view;
    view.name = r.name;
    view.window_hits = r.window_hits;
    view.link_to_count = r.link_to.size();
    view.entry_point = r.entry_point;
    view.local = r.location == self_;
    for (const std::string& from : r.link_from) {
      auto it = index.find(from);
      if (it != index.end() && !(it->second->location == self_)) {
        ++view.remote_link_from_count;
      }
    }
    views.push_back(std::move(view));
  }
  return Decide(views, glt, own_load, now, down_peers);
}

void HomeMigrationPolicy::RecordMigration(const Decision& decision,
                                          MicroTime now) {
  last_migration_ = now;
  last_migration_to_[decision.target] = now;
  placements_[decision.doc] = Placement{decision.target, now};
  ++migrations_started_;
}

std::vector<std::string> HomeMigrationPolicy::DocsToRevoke(
    const std::vector<graph::LocalDocumentGraph::MigratedView>& migrated,
    const load::GlobalLoadTable& glt, double own_load,
    const std::vector<http::ServerAddress>& down_peers, MicroTime now) {
  std::vector<std::string> revoke;
  // Load-shift revocations are paced like migrations — one document per
  // statistics run — so a transiently hot co-op does not trigger a mass
  // recall that thrashes placements.  Crash recalls are not paced: a
  // dead server's documents are unreachable until they come home.
  bool load_revoke_budget = true;
  for (const auto& record : migrated) {
    // Case 3 (§4.5): the co-op crashed; recall its documents.
    bool down = std::find(down_peers.begin(), down_peers.end(),
                          record.location) != down_peers.end();
    if (down) {
      revoke.push_back(record.name);
      continue;
    }

    // Case 2: workload changed.  Only after the T_home interval may the
    // home server abandon a migration.
    if (!load_revoke_budget) continue;
    auto it = placements_.find(record.name);
    if (it == placements_.end()) continue;  // e.g. restored from disk
    if (now - it->second.migrated_at < config_.remigrate_interval) {
      continue;
    }
    auto coop_load = glt.Get(record.location);
    if (coop_load.ok() &&
        coop_load->load_metric >
            kRevokeImbalanceFactor * std::max(own_load, 1.0)) {
      revoke.push_back(record.name);
      load_revoke_budget = false;
    }
  }
  return revoke;
}

std::vector<std::string> HomeMigrationPolicy::DocsToRevoke(
    const std::vector<graph::DocumentRecord>& snapshot,
    const load::GlobalLoadTable& glt, double own_load,
    const std::vector<http::ServerAddress>& down_peers, MicroTime now) {
  std::vector<graph::LocalDocumentGraph::MigratedView> migrated;
  for (const graph::DocumentRecord& record : snapshot) {
    if (record.location == self_) continue;
    migrated.push_back(graph::LocalDocumentGraph::MigratedView{
        record.name, record.location, record.total_hits});
  }
  return DocsToRevoke(migrated, glt, own_load, down_peers, now);
}

void HomeMigrationPolicy::RecordRevocation(const std::string& doc) {
  placements_.erase(doc);
  ++revocations_;
}

}  // namespace dcws::migrate
