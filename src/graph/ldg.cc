#include "src/graph/ldg.h"

#include <algorithm>
#include <unordered_set>

#include "src/html/links.h"

namespace dcws::graph {

namespace {

// Removes `value` from `list` (at most one occurrence is ever present).
void EraseFrom(std::vector<std::string>& list, const std::string& value) {
  auto it = std::find(list.begin(), list.end(), value);
  if (it != list.end()) list.erase(it);
}

void AddUnique(std::vector<std::string>& list, const std::string& value) {
  if (std::find(list.begin(), list.end(), value) == list.end()) {
    list.push_back(value);
  }
}

}  // namespace

std::vector<std::string> ExtractInternalTargets(
    const storage::Document& doc) {
  std::vector<std::string> targets;
  if (!doc.is_html()) return targets;
  std::unordered_set<std::string> seen;
  for (const html::LinkOccurrence& link :
       html::ExtractLinks(doc.content, doc.path)) {
    if (link.external) continue;
    if (link.resolved == doc.path) continue;  // self-links are not edges
    if (seen.insert(link.resolved).second) {
      targets.push_back(link.resolved);
    }
  }
  return targets;
}

Status LocalDocumentGraph::Build(
    const storage::DocumentStore& store, const http::ServerAddress& home,
    const std::vector<std::string>& entry_points) {
  MutexLock lock(mutex_);
  home_ = home;
  records_.clear();

  std::unordered_set<std::string> entry_set(entry_points.begin(),
                                            entry_points.end());
  // Pass 1: one record per stored document, with its outgoing links.
  store.ForEach([&](const storage::Document& doc) {
    DocumentRecord record;
    record.name = doc.path;
    record.location = home;
    record.size = doc.size();
    record.is_html = doc.is_html();
    record.entry_point = entry_set.contains(doc.path);
    record.link_to = ExtractInternalTargets(doc);
    records_.emplace(doc.path, std::move(record));
  });

  // Drop links to documents we do not host, then invert for link_from.
  for (auto& [name, record] : records_) {
    std::erase_if(record.link_to, [&](const std::string& target) {
      return !records_.contains(target);
    });
  }
  for (auto& [name, record] : records_) {
    for (const std::string& target : record.link_to) {
      AddUnique(records_[target].link_from, name);
    }
  }

  for (const std::string& entry : entry_points) {
    if (!records_.contains(entry)) {
      return Status::InvalidArgument("entry point not in store: " + entry);
    }
  }
  return Status::Ok();
}

Status LocalDocumentGraph::AddDocument(const storage::Document& doc,
                                       const http::ServerAddress& home,
                                       bool entry_point) {
  MutexLock lock(mutex_);
  if (records_.contains(doc.path)) {
    return Status::AlreadyExists("document already in graph: " + doc.path);
  }
  DocumentRecord record;
  record.name = doc.path;
  record.location = home;
  record.size = doc.size();
  record.is_html = doc.is_html();
  record.entry_point = entry_point;
  records_.emplace(doc.path, std::move(record));

  // Wire links both ways.  Existing documents that already pointed at
  // this name (dangling until now) are not re-discovered — the paper's
  // graph is refreshed by UpdateContent when authors edit pages.
  std::vector<std::string> targets = ExtractInternalTargets(doc);
  std::erase_if(targets, [&](const std::string& t) {
    return !records_.contains(t);
  });
  return UpdateLinksLocked(doc.path, std::move(targets));
}

Status LocalDocumentGraph::UpdateContent(const std::string& name,
                                         const storage::Document& doc) {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) {
    return Status::NotFound("no record for " + name);
  }
  it->second.size = doc.size();
  it->second.dirty = true;  // force regeneration with current locations
  std::vector<std::string> targets = ExtractInternalTargets(doc);
  std::erase_if(targets, [&](const std::string& t) {
    return !records_.contains(t);
  });
  return UpdateLinksLocked(name, std::move(targets));
}

Status LocalDocumentGraph::UpdateLinksLocked(
    const std::string& name, std::vector<std::string> new_link_to) {
  DocumentRecord& record = records_.at(name);
  for (const std::string& old_target : record.link_to) {
    auto it = records_.find(old_target);
    if (it != records_.end()) EraseFrom(it->second.link_from, name);
  }
  record.link_to = std::move(new_link_to);
  for (const std::string& target : record.link_to) {
    AddUnique(records_.at(target).link_from, name);
  }
  return Status::Ok();
}

Result<DocumentRecord> LocalDocumentGraph::Lookup(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) {
    return Status::NotFound("no record for " + name);
  }
  return it->second;
}

Result<LocalDocumentGraph::RecordBrief> LocalDocumentGraph::Brief(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) {
    return Status::NotFound("no record for " + name);
  }
  const DocumentRecord& r = it->second;
  return RecordBrief{r.location, r.size, r.dirty, r.entry_point,
                     r.is_html};
}

bool LocalDocumentGraph::Contains(const std::string& name) const {
  MutexLock lock(mutex_);
  return records_.contains(name);
}

bool LocalDocumentGraph::RecordHit(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) return false;
  it->second.total_hits += 1;
  it->second.window_hits += 1;
  return true;
}

void LocalDocumentGraph::ResetWindowHits() {
  MutexLock lock(mutex_);
  for (auto& [name, record] : records_) record.window_hits = 0;
}

Status LocalDocumentGraph::SetLocation(
    const std::string& name, const http::ServerAddress& location) {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) {
    return Status::NotFound("no record for " + name);
  }
  if (it->second.location == location) return Status::Ok();
  it->second.location = location;
  // "For each document referenced by the LinkFrom field of the tuple, the
  // Dirty bit is set for that tuple" (§4.2).
  for (const std::string& from : it->second.link_from) {
    auto from_it = records_.find(from);
    if (from_it != records_.end()) from_it->second.dirty = true;
  }
  return Status::Ok();
}

Status LocalDocumentGraph::SetDirty(const std::string& name, bool dirty) {
  MutexLock lock(mutex_);
  auto it = records_.find(name);
  if (it == records_.end()) {
    return Status::NotFound("no record for " + name);
  }
  it->second.dirty = dirty;
  return Status::Ok();
}

std::vector<DocumentRecord> LocalDocumentGraph::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<DocumentRecord> out;
  out.reserve(records_.size());
  for (const auto& [name, record] : records_) out.push_back(record);
  return out;
}

std::vector<LocalDocumentGraph::SelectionView>
LocalDocumentGraph::SelectionSnapshot() const {
  MutexLock lock(mutex_);
  std::vector<SelectionView> out;
  out.reserve(records_.size());
  for (const auto& [name, record] : records_) {
    SelectionView view;
    view.name = name;
    view.window_hits = record.window_hits;
    view.link_to_count = record.link_to.size();
    view.entry_point = record.entry_point;
    view.local = record.location == home_;
    for (const std::string& from : record.link_from) {
      auto it = records_.find(from);
      if (it != records_.end() && !(it->second.location == home_)) {
        ++view.remote_link_from_count;
      }
    }
    out.push_back(std::move(view));
  }
  return out;
}

std::vector<LocalDocumentGraph::MigratedView>
LocalDocumentGraph::MigratedSnapshot() const {
  MutexLock lock(mutex_);
  std::vector<MigratedView> out;
  for (const auto& [name, record] : records_) {
    if (record.location == home_) continue;
    out.push_back(MigratedView{name, record.location, record.total_hits});
  }
  return out;
}

LocalDocumentGraph::Stats LocalDocumentGraph::GetStats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.documents = records_.size();
  for (const auto& [name, record] : records_) {
    stats.links += record.link_to.size();
    stats.total_bytes += record.size;
    if (record.is_html) ++stats.html_documents;
    if (record.entry_point) ++stats.entry_points;
    if (!(record.location == home_)) ++stats.migrated;
    if (record.dirty) ++stats.dirty;
  }
  return stats;
}

size_t LocalDocumentGraph::size() const {
  MutexLock lock(mutex_);
  return records_.size();
}

}  // namespace dcws::graph
