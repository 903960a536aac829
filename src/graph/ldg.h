#ifndef DCWS_GRAPH_LDG_H_
#define DCWS_GRAPH_LDG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/http/address.h"
#include "src/storage/document_store.h"
#include "src/util/mutex.h"
#include "src/util/result.h"

namespace dcws::graph {

// One tuple of the Local Document Graph (paper §3.3, Figure 2):
//   (Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty)
// augmented with the entry-point flag Algorithm 1 needs and a split of
// Hits into lifetime and current-statistics-window counts (the selection
// metric wants recent demand, the figures want totals).
struct DocumentRecord {
  std::string name;               // site-absolute path, the tuple key
  http::ServerAddress location;   // server currently hosting the document
  uint64_t size = 0;              // bytes
  uint64_t total_hits = 0;        // lifetime request count
  uint64_t window_hits = 0;       // hits since the last stats recalculation
  std::vector<std::string> link_to;    // documents this one points at
  std::vector<std::string> link_from;  // documents pointing at this one
  bool dirty = false;     // some LinkTo target moved; needs regeneration
  bool entry_point = false;  // well-known entry point (never migrated)
  bool is_html = false;
};

// The Local Document Graph: every document whose *home* is this server,
// hash-indexed by name ("It is important to optimize with a hash table
// because retrieving the tuple is necessary for each request").
//
// Thread-safe; lock scopes are single lookups or single mutations, so the
// 12-worker front end never serializes on long operations.
class LocalDocumentGraph {
 public:
  LocalDocumentGraph() = default;
  LocalDocumentGraph(const LocalDocumentGraph&) = delete;
  LocalDocumentGraph& operator=(const LocalDocumentGraph&) = delete;

  // Builds the graph by scanning `store` and parsing every HTML document
  // (paper: "computed upon initialization of the web server by scanning
  // its disk and parsing the documents").  Initial Location of every
  // record is `home`.  Links resolving outside the store are dropped.
  Status Build(const storage::DocumentStore& store,
               const http::ServerAddress& home,
               const std::vector<std::string>& entry_points);

  // Registers one document (used when an author adds content at runtime).
  // Recomputes link_to for the new document and splices it into the
  // link_from lists of its targets.
  Status AddDocument(const storage::StoredDocument& doc,
                     const http::ServerAddress& home, bool entry_point);

  // Replaces link_to of `name` after a content change, fixing up the
  // link_from lists on both the old and new target sets, and marks the
  // document dirty so it is regenerated on next request.
  Status UpdateContent(const std::string& name,
                       const storage::StoredDocument& doc);

  Result<DocumentRecord> Lookup(const std::string& name) const;

  // Vector-free view for the per-request hot path ("retrieving the tuple
  // is necessary for each request that the server processes"): copying
  // LinkTo/LinkFrom on every hit would dominate service cost.
  struct RecordBrief {
    http::ServerAddress location;
    uint64_t size = 0;
    bool dirty = false;
    bool entry_point = false;
    bool is_html = false;
  };
  Result<RecordBrief> Brief(const std::string& name) const;

  bool Contains(const std::string& name) const;

  // Records a request for `name`; returns false if unknown.
  bool RecordHit(const std::string& name);

  // Zeroes every window_hits counter (called each statistics interval).
  void ResetWindowHits();

  // Moves `name` to `location`; every LinkFrom document becomes dirty so
  // its hyperlinks are regenerated lazily (§4.2).  No-op status error if
  // the name is unknown.
  Status SetLocation(const std::string& name,
                     const http::ServerAddress& location);

  Status SetDirty(const std::string& name, bool dirty);

  // Copies of all records (debugging, tests). O(n) including vectors.
  std::vector<DocumentRecord> Snapshot() const;

  // What Algorithm 1 needs, computed in one pass under the lock —
  // far cheaper than Snapshot() when the statistics module runs every
  // few hundred milliseconds during accelerated warm-up.
  struct SelectionView {
    std::string name;
    uint64_t window_hits = 0;
    size_t link_to_count = 0;
    // LinkFrom documents currently NOT residing on the home server
    // (Algorithm 1 step 4 minimizes remote hyperlink updates).
    size_t remote_link_from_count = 0;
    bool entry_point = false;
    bool local = true;  // location == home
  };
  std::vector<SelectionView> SelectionSnapshot() const;

  // The currently-migrated documents (revocation policy, recall).
  struct MigratedView {
    std::string name;
    http::ServerAddress location;
    uint64_t total_hits = 0;
  };
  std::vector<MigratedView> MigratedSnapshot() const;

  struct Stats {
    size_t documents = 0;
    size_t html_documents = 0;
    size_t links = 0;
    size_t entry_points = 0;
    size_t migrated = 0;   // records whose location != home
    size_t dirty = 0;
    uint64_t total_bytes = 0;
  };
  Stats GetStats() const;

  http::ServerAddress home() const {
    MutexLock lock(mutex_);
    return home_;
  }
  size_t size() const;

 private:
  Status UpdateLinksLocked(const std::string& name,
                           std::vector<std::string> new_link_to)
      DCWS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // home_ is written only by Build() before the worker pool starts; the
  // lock still guards it because Build may legally be re-run.
  http::ServerAddress home_ DCWS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, DocumentRecord> records_
      DCWS_GUARDED_BY(mutex_);
};

// Parses `doc` (if HTML) and returns the site-internal documents it
// references, resolved and deduplicated, in first-occurrence order.
// Non-HTML documents reference nothing.
std::vector<std::string> ExtractInternalTargets(
    const storage::StoredDocument& doc);

}  // namespace dcws::graph

#endif  // DCWS_GRAPH_LDG_H_
