#ifndef DCWS_STORAGE_DOCUMENT_STORE_H_
#define DCWS_STORAGE_DOCUMENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/storage/document.h"
#include "src/util/mutex.h"
#include "src/util/result.h"

namespace dcws::storage {

// Bodies of at least this many bytes are stored sealed (StoredDocument).
// Each sealed version holds a descriptor for as long as it lives, so the
// threshold keeps sealing to large bodies: sealing every body would hold
// one descriptor per document (MAPUG: 1,534 per holder) against the
// common soft limit of 1,024.  It caps nothing by itself, though; the
// store also keeps a version on the heap once the process's live sealed
// versions reach half the soft RLIMIT_NOFILE (DocumentStore::Put).
// Every LOD, MAPUG and SBLog body is below the threshold (largest 3,755,
// 6,208 and 36,008 B); every Sequoia raster (1-2.8 MB) is above, and
// there sending sealed bodies halved e2ebench's server_cpu_us_per_conn
// (228.9 -> 113.1 us, median of ten pairs).
// Speed does not set the threshold: sealing every LOD body left
// lod_browse within noise (cps -6%, +4%, +1% over three pairs), and on
// one loopback round trip (bench/micro_core BM_TcpRoundTrip), which the
// client's read of the body dominates, sendfile(2) gains at no size:
// 64 KiB was within noise and 2 MB took 43% longer, nearly all of it in
// the client thread's CPU.
inline constexpr size_t kSealedBodyBytes = 64 * 1024;

// One stored version of a document.  Versions are immutable: Put swaps
// in a new version instead of editing the old one, so a reader (a
// response still being written, say) keeps the bytes it was handed for
// as long as it holds the pointer.
//
// A version the store seals keeps its bytes in a memfd (memfd_create(2))
// sealed against writes, growth and shrinking, mapped read-only; that
// memfd is the bytes' only copy, and the TCP host sends it with
// sendfile(2).  Other versions keep their bytes on the heap.  Stored-side
// code reads the bytes through bytes() alone.
class StoredDocument {
 public:
  // A version whose bytes stay on the heap: what the store keeps below
  // kSealedBodyBytes or when sealing fails, and what a caller builds for
  // a response it does not store.
  StoredDocument(std::string path, std::string content,
                 std::string content_type);
  ~StoredDocument();
  StoredDocument(const StoredDocument&) = delete;
  StoredDocument& operator=(const StoredDocument&) = delete;

  const std::string& path() const { return path_; }
  const std::string& content_type() const { return content_type_; }
  // The version's bytes: the heap string or the read-only mapping.
  std::string_view bytes() const { return bytes_; }
  uint64_t size() const { return bytes_.size(); }
  bool is_html() const { return content_type_ == "text/html"; }
  // The sealed memfd holding exactly bytes(), or -1 on the heap.
  int sealed_fd() const { return sealed_fd_; }

 private:
  friend class DocumentStore;
  // Takes ownership of `sealed_fd` and of its mapping `bytes`.
  StoredDocument(std::string path, std::string content_type, int sealed_fd,
                 std::string_view bytes);

  std::string path_;
  std::string content_type_;
  std::string heap_;
  int sealed_fd_ = -1;
  std::string_view bytes_;  // over heap_, or over the mapping
};

using DocumentPtr = std::shared_ptr<const StoredDocument>;

// In-memory virtual disk for one server.  Home servers are seeded with
// their site's documents; co-op servers start empty and fill lazily as
// migrated documents are physically fetched (§4.2).
//
// Thread-safe: server worker threads read concurrently while the
// migration/regeneration paths write.
class DocumentStore {
 public:
  DocumentStore() = default;
  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  // Inserts or replaces the document at `doc.path`; returns the stored
  // version.  A body of at least kSealedBodyBytes is written into a
  // sealed memfd, its only copy; a smaller one moves in, and so does a
  // large one when sealing fails or the process's sealed versions
  // already hold half the soft RLIMIT_NOFILE, which leaves the other
  // half to sockets.  A replaced version is released after the writer
  // lock, so freeing a large body never stalls readers.
  DocumentPtr Put(Document doc);
  // The same from the caller's bytes: a large body is written straight
  // into its memfd, a small one is copied.
  DocumentPtr Put(std::string path, std::string_view content,
                  std::string content_type);

  // The current version at `path`.  The reader lock covers only taking
  // the pointer; no bytes are copied.
  [[nodiscard]] Result<DocumentPtr> Get(std::string_view path) const;

  bool Contains(std::string_view path) const;
  [[nodiscard]] Status Remove(std::string_view path);

  // Sorted list of stored paths.
  std::vector<std::string> ListPaths() const;

  size_t Count() const;
  uint64_t TotalBytes() const;

  // Invokes `fn` on every document under the lock (read-only).
  void ForEach(const std::function<void(const StoredDocument&)>& fn) const;

 private:
  // The sealed version of `content`, or nullptr when it stays on the
  // heap: below kSealedBodyBytes, over the descriptor budget, or a step
  // of sealing failed.
  static DocumentPtr Seal(const std::string& path, std::string_view content,
                          const std::string& content_type);
  DocumentPtr Insert(DocumentPtr version);

  mutable SharedMutex mutex_;
  std::unordered_map<std::string, DocumentPtr> documents_
      DCWS_GUARDED_BY(mutex_);
  uint64_t total_bytes_ DCWS_GUARDED_BY(mutex_) = 0;
};

}  // namespace dcws::storage

#endif  // DCWS_STORAGE_DOCUMENT_STORE_H_
