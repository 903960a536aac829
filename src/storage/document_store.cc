#include "src/storage/document_store.h"

#include <algorithm>

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

DocumentPtr DocumentStore::Put(Document doc) {
  auto version = std::make_shared<const Document>(std::move(doc));
  DocumentPtr replaced;  // dropped after the lock is released
  {
    WriterMutexLock lock(mutex_);
    auto [it, inserted] = documents_.try_emplace(version->path);
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
    const std::function<void(const Document&)>& fn) const {
  ReaderMutexLock lock(mutex_);
  for (const auto& [path, doc] : documents_) fn(*doc);
}

}  // namespace dcws::storage
