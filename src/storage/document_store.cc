#include "src/storage/document_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>

#include "src/util/string_util.h"

namespace dcws::storage {

std::string GuessContentType(std::string_view path) {
  size_t dot = path.rfind('.');
  if (dot == std::string_view::npos) return "application/octet-stream";
  std::string ext = ToLower(path.substr(dot + 1));
  if (ext == "html" || ext == "htm") return "text/html";
  if (ext == "txt") return "text/plain";
  if (ext == "gif") return "image/gif";
  if (ext == "jpg" || ext == "jpeg") return "image/jpeg";
  if (ext == "png") return "image/png";
  if (ext == "css") return "text/css";
  if (ext == "js") return "application/javascript";
  return "application/octet-stream";
}

namespace {

// Sealed versions alive in this process; each holds one descriptor.
std::atomic<size_t> sealed_versions{0};

// Half the soft descriptor limit, read at every seal so that a changed
// limit holds at once: the other half stays free for sockets.
size_t SealedVersionBudget() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 0;
  return static_cast<size_t>(limit.rlim_cur / 2);
}

// Writes `content` into a new memfd named after `path`, seals it and
// maps it read-only.  Returns the memfd and sets `*map`, or -1 after
// undoing every step.
int WriteSealedMemfd(const std::string& path, std::string_view content,
                     const char** map) {
  // The name only labels the fd in /proc/<pid>/fd; the kernel caps it at
  // 249 bytes.
  int fd = ::memfd_create(path.substr(0, 200).c_str(),
                          MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) return -1;
  // write(2), not a writable mapping: F_SEAL_WRITE refuses a memfd with
  // one, and the pages stay out of this process's RSS until read.
  for (size_t written = 0; written < content.size();) {
    ssize_t n = ::write(fd, content.data() + written,
                        content.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return -1;
    }
    written += static_cast<size_t>(n);
  }
  void* mapped = MAP_FAILED;
  if (::fcntl(fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE) ==
      0) {
    mapped = ::mmap(nullptr, content.size(), PROT_READ, MAP_SHARED, fd, 0);
  }
  if (mapped == MAP_FAILED) {
    ::close(fd);
    return -1;
  }
  *map = static_cast<const char*>(mapped);
  return fd;
}

}  // namespace

StoredDocument::StoredDocument(std::string path, std::string content,
                               std::string content_type)
    : path_(std::move(path)),
      content_type_(std::move(content_type)),
      heap_(std::move(content)),
      bytes_(heap_) {}

StoredDocument::StoredDocument(std::string path, std::string content_type,
                               int sealed_fd, std::string_view bytes)
    : path_(std::move(path)),
      content_type_(std::move(content_type)),
      sealed_fd_(sealed_fd),
      bytes_(bytes) {}

StoredDocument::~StoredDocument() {
  if (sealed_fd_ < 0) return;
  ::munmap(const_cast<char*>(bytes_.data()), bytes_.size());
  ::close(sealed_fd_);
  sealed_versions.fetch_sub(1);
}

DocumentPtr DocumentStore::Seal(const std::string& path,
                                std::string_view content,
                                const std::string& content_type) {
  if (content.size() < kSealedBodyBytes) return nullptr;
  // Take this version's place in the budget before its descriptor, so
  // that sealers running at once cannot overshoot it together.
  if (sealed_versions.fetch_add(1) >= SealedVersionBudget()) {
    sealed_versions.fetch_sub(1);
    return nullptr;
  }
  const char* map = nullptr;
  int fd = WriteSealedMemfd(path, content, &map);
  if (fd < 0) {
    sealed_versions.fetch_sub(1);
    return nullptr;
  }
  return DocumentPtr(new StoredDocument(
      path, content_type, fd, std::string_view(map, content.size())));
}

DocumentPtr DocumentStore::Put(Document doc) {
  DocumentPtr version = Seal(doc.path, doc.content, doc.content_type);
  if (version == nullptr) {
    version = std::make_shared<const StoredDocument>(
        std::move(doc.path), std::move(doc.content),
        std::move(doc.content_type));
  }
  return Insert(std::move(version));
}

DocumentPtr DocumentStore::Put(std::string path, std::string_view content,
                               std::string content_type) {
  DocumentPtr version = Seal(path, content, content_type);
  if (version == nullptr) {
    version = std::make_shared<const StoredDocument>(
        std::move(path), std::string(content), std::move(content_type));
  }
  return Insert(std::move(version));
}

DocumentPtr DocumentStore::Insert(DocumentPtr version) {
  DocumentPtr replaced;  // dropped after the lock is released
  {
    WriterMutexLock lock(mutex_);
    auto [it, inserted] = documents_.try_emplace(version->path());
    if (!inserted) {
      total_bytes_ -= it->second->size();
      replaced = std::move(it->second);
    }
    total_bytes_ += version->size();
    it->second = version;
  }
  return version;
}

Result<DocumentPtr> DocumentStore::Get(std::string_view path) const {
  ReaderMutexLock lock(mutex_);
  auto it = documents_.find(std::string(path));
  if (it == documents_.end()) {
    return Status::NotFound("no document at " + std::string(path));
  }
  return it->second;
}

bool DocumentStore::Contains(std::string_view path) const {
  ReaderMutexLock lock(mutex_);
  return documents_.contains(std::string(path));
}

Status DocumentStore::Remove(std::string_view path) {
  DocumentPtr removed;  // dropped after the lock is released
  {
    WriterMutexLock lock(mutex_);
    auto it = documents_.find(std::string(path));
    if (it == documents_.end()) {
      return Status::NotFound("no document at " + std::string(path));
    }
    total_bytes_ -= it->second->size();
    removed = std::move(it->second);
    documents_.erase(it);
  }
  return Status::Ok();
}

std::vector<std::string> DocumentStore::ListPaths() const {
  ReaderMutexLock lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(documents_.size());
  for (const auto& [path, doc] : documents_) paths.push_back(path);
  std::sort(paths.begin(), paths.end());
  return paths;
}

size_t DocumentStore::Count() const {
  ReaderMutexLock lock(mutex_);
  return documents_.size();
}

uint64_t DocumentStore::TotalBytes() const {
  ReaderMutexLock lock(mutex_);
  return total_bytes_;
}

void DocumentStore::ForEach(
    const std::function<void(const StoredDocument&)>& fn) const {
  ReaderMutexLock lock(mutex_);
  for (const auto& [path, doc] : documents_) fn(*doc);
}

}  // namespace dcws::storage
