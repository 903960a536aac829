#ifndef DCWS_STORAGE_DOCUMENT_STORE_H_
#define DCWS_STORAGE_DOCUMENT_STORE_H_

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

// One stored version of a document.  Versions are immutable: Put swaps
// in a new version instead of editing the old one, so a reader (a
// response still being written, say) keeps the bytes it was handed for
// as long as it holds the pointer.
using DocumentPtr = std::shared_ptr<const Document>;

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
  // version.  A replaced version is released after the writer lock, so
  // freeing a large body never stalls readers.
  DocumentPtr Put(Document doc);

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
  void ForEach(
      const std::function<void(const Document&)>& fn) const;

 private:
  mutable SharedMutex mutex_;
  std::unordered_map<std::string, DocumentPtr> documents_
      DCWS_GUARDED_BY(mutex_);
  uint64_t total_bytes_ DCWS_GUARDED_BY(mutex_) = 0;
};

}  // namespace dcws::storage

#endif  // DCWS_STORAGE_DOCUMENT_STORE_H_
