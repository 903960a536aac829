#include "e2ebench/src/walker.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/html/links.h"
#include "src/http/message.h"
#include "src/migrate/naming.h"
#include "src/obs/trace.h"
#include "src/storage/document.h"
#include "src/util/string_util.h"

namespace dcws::e2e {

namespace {

constexpr size_t kHeadBuffer = 16 * 1024;
// Largest body a response may declare; the biggest document of any
// workload is a 2.8 MB Sequoia raster.
constexpr uint64_t kMaxBody = 64 << 20;
constexpr size_t kFailureNotes = 16;

// Closes with SO_LINGER 0: a reset instead of a FIN, so neither end
// keeps the connection in TIME_WAIT.
class AbortiveSocket {
 public:
  explicit AbortiveSocket(int fd) : fd_(fd) {}
  ~AbortiveSocket() {
    if (fd_ < 0) return;
    linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd_);
  }
  AbortiveSocket(const AbortiveSocket&) = delete;
  AbortiveSocket& operator=(const AbortiveSocket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Status line and header fields of a response head (everything before
// the blank line); the body length comes from Content-Length.
Status ParseHead(std::string_view head, http::Response* response,
                 uint64_t* body_length) {
  size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::Corruption("response head without CRLF");
  }
  std::string_view status_line = head.substr(0, line_end);
  size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::Corruption("malformed status line");
  }
  std::string_view rest = status_line.substr(sp1 + 1);
  auto code = ParseUint64(rest.substr(0, rest.find(' ')));
  if (!code.has_value() || *code < 100 || *code > 599) {
    return Status::Corruption("bad status code");
  }
  response->version = std::string(status_line.substr(0, sp1));
  response->status_code = static_cast<int>(*code);
  size_t at = line_end + 2;
  while (at < head.size()) {
    size_t end = head.find("\r\n", at);
    if (end == std::string_view::npos) end = head.size();
    std::string_view line = head.substr(at, end - at);
    at = end + 2;
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption("malformed header line");
    }
    response->headers.Add(std::string(Trim(line.substr(0, colon))),
                          std::string(Trim(line.substr(colon + 1))));
  }
  *body_length = 0;
  if (auto length = response->headers.Get(http::kHeaderContentLength)) {
    auto parsed = ParseUint64(*length);
    if (!parsed.has_value()) return Status::Corruption("bad Content-Length");
    *body_length = *parsed;
  }
  return Status::Ok();
}

}  // namespace

// ------------------------------------------------------------ fetcher

SocketFetcher::SocketFetcher(const net::TcpNetwork* network, BodyPool* pool,
                             TraceContext* trace)
    : network_(network), pool_(pool), trace_(trace) {
  head_.resize(kHeadBuffer);
}

uint16_t SocketFetcher::Resolve(const http::ServerAddress& address) {
  auto it = ports_.find(address);
  if (it != ports_.end()) return it->second;
  uint16_t port = network_->Resolve(address);
  if (port != 0) ports_.emplace(address, port);
  return port;
}

Result<http::Response> SocketFetcher::Fetch(const http::Url& url) {
  uint16_t port = Resolve({url.host, url.port});
  if (port == 0) return Status::NotFound("no such server: " + url.Authority());
  bool traced = trace_ != nullptr && trace_->active();
  int64_t started = traced ? SpanNow() : 0;

  AbortiveSocket conn(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (conn.fd() < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  ::setsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(conn.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::Unavailable(Errno("connect"));
  }
  int64_t connected = traced ? SpanNow() : 0;

  http::Request request;
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  if (traced) {
    request.headers.Set(std::string(http::kHeaderDcwsTrace),
                        obs::FormatTraceId(trace_->connection));
  }
  std::string wire = request.Serialize();
  for (size_t sent = 0; sent < wire.size();) {
    ssize_t n = ::send(conn.fd(), wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  int64_t written = traced ? SpanNow() : 0;

  size_t have = 0;
  size_t header_end = std::string_view::npos;
  int64_t first_byte = 0;
  while (header_end == std::string_view::npos) {
    if (have == head_.size()) {
      return Status::Corruption("response head exceeds buffer");
    }
    ssize_t n = ::recv(conn.fd(), head_.data() + have, head_.size() - have,
                       0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    if (n == 0) return Status::Unavailable("closed before response head");
    if (have == 0 && traced) first_byte = SpanNow();
    size_t scan_from = have > 3 ? have - 3 : 0;
    have += static_cast<size_t>(n);
    size_t blank = std::string_view(head_.data(), have).find("\r\n\r\n",
                                                             scan_from);
    if (blank != std::string_view::npos) header_end = blank + 4;
  }

  int64_t parse_start = traced ? SpanNow() : 0;
  http::Response response;
  uint64_t length = 0;
  DCWS_RETURN_IF_ERROR(ParseHead(
      std::string_view(head_.data(), header_end), &response, &length));
  int64_t parsed = traced ? SpanNow() : 0;

  if (length > kMaxBody) return Status::Corruption("Content-Length too large");
  size_t got = have - header_end;
  if (got > length) return Status::Corruption("bytes past Content-Length");
  response.body = pool_ != nullptr ? pool_->Take() : std::string();
  response.body.resize(length);
  std::memcpy(response.body.data(), head_.data() + header_end, got);
  while (got < length) {
    ssize_t n = ::recv(conn.fd(), response.body.data() + got, length - got,
                       0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    if (n == 0) return Status::Unavailable("closed mid-body");
    got += static_cast<size_t>(n);
  }

  if (traced) {
    int64_t done = SpanNow();
    SpanLog* log = trace_->log;
    auto add = [&](SpanName name, int64_t start, int64_t end) {
      log->Add({trace_->trace, log->NewId(), trace_->connection, name,
                start, end});
    };
    add(SpanName::kConnect, started, connected);
    add(SpanName::kWrite, connected, written);
    add(SpanName::kFirstByte, written, first_byte);
    add(SpanName::kParse, parse_start, parsed);
    add(SpanName::kBody, first_byte, done);
  }
  return response;
}

// ------------------------------------------------------------- walker

Walker::Walker(std::vector<http::Url> entry_points, uint64_t seed,
               const ContentCheck* check, UserStats* stats,
               TraceContext* trace, BodyPool* pool,
               workload::BrowseConfig config)
    : entry_points_(std::move(entry_points)),
      rng_(seed),
      check_(check),
      stats_(stats),
      trace_(trace),
      pool_(pool),
      config_(std::move(config)) {}

void Walker::Note(std::string note) {
  auto it = stats_->failure_notes.find(note);
  if (it != stats_->failure_notes.end()) {
    it->second += 1;
  } else if (stats_->failure_notes.size() < kFailureNotes) {
    stats_->failure_notes.emplace(std::move(note), 1);
  }
}

void Walker::RecordConnection(int64_t start_ns, uint64_t bytes, bool failed,
                              bool reached) {
  if (!stats_->recording.load(std::memory_order_relaxed)) return;
  int64_t end_ns = SpanNow();
  stats_->connections.push_back(
      {end_ns / 1000, static_cast<float>(end_ns - start_ns) / 1000.0f,
       static_cast<uint32_t>(bytes), failed, reached});
}

Walker::PagePtr Walker::Accept(const http::Url& served_at, std::string body,
                               bool* content_ok, std::string* why) {
  std::optional<std::string> doc_path = check_->DocPathFor(served_at);
  // The HTML decision follows BrowsingClient: by the content type of the
  // document path, whoever served it.
  std::string type_path = served_at.path;
  if (migrate::IsMigratedTarget(type_path)) {
    auto decoded = migrate::DecodeMigratedTarget(type_path);
    if (decoded.ok()) type_path = decoded->doc_path;
  }
  if (storage::GuessContentType(type_path) != "text/html") {
    *content_ok = doc_path.has_value() && check_->CheckBytes(*doc_path, body);
    if (!*content_ok) {
      *why = doc_path.has_value() ? "body differs from the generated document"
                                  : "URL names no document of the home";
    }
    if (pool_ != nullptr) pool_->Give(std::move(body));
    return nullptr;
  }

  std::string key = served_at.ToString();
  stats_->memo_lookups += 1;
  auto memo = memo_.find(key);
  if (memo != memo_.end() && memo->second->body == body) {
    stats_->memo_hits += 1;
    *content_ok = memo->second->content_ok;
    *why = memo->second->why;
    return memo->second;
  }

  bool traced = trace_ != nullptr && trace_->log != nullptr &&
                trace_->trace != 0;
  int64_t links_start = traced ? SpanNow() : 0;
  auto page = std::make_shared<Page>();
  std::vector<html::LinkOccurrence> links =
      html::ExtractLinks(body, served_at.path);
  for (const html::LinkOccurrence& link : links) {
    // BindUrl of workload::FollowableLinks / EmbeddedImages.
    http::Url bound = served_at;
    if (link.external) {
      auto parsed = http::Url::Parse(link.resolved);
      if (!parsed.ok()) continue;
      bound = std::move(parsed).value();
    } else {
      bound.path = link.resolved;
    }
    (link.kind == html::LinkKind::kHyperlink ? page->hyperlinks
                                             : page->images)
        .push_back(std::move(bound));
  }
  page->content_ok =
      doc_path.has_value() &&
      check_->CheckLinks(*doc_path, links, served_at, &page->why);
  if (!doc_path.has_value()) page->why = "URL names no document of the home";
  page->body = std::move(body);
  if (traced) {
    trace_->log->Add({trace_->trace, trace_->log->NewId(), trace_->trace,
                      SpanName::kLinks, links_start, SpanNow()});
  }
  *content_ok = page->content_ok;
  *why = page->why;
  memo_[key] = page;
  return page;
}

Result<Walker::PagePtr> Walker::FetchDocument(workload::Fetcher& fetcher,
                                              const http::Url& url,
                                              http::Url* final_url) {
  http::Url current = url;
  int redirects_left = config_.max_redirect_hops;
  int retries_left = config_.max_drop_retries;
  MicroTime backoff = kMicrosPerSecond;  // 1 s, 2 s, 4 s, ...
  bool traced = trace_ != nullptr && trace_->log != nullptr &&
                trace_->trace != 0;

  while (true) {
    auto cached = cache_.find(current.ToString());
    if (cached != cache_.end()) {
      stats_->cache_hits += 1;
      if (final_url != nullptr) *final_url = current;
      return cached->second;
    }

    int64_t start = SpanNow();
    if (traced) trace_->connection = trace_->log->NewId();
    auto response = fetcher.Fetch(current);
    if (traced) {
      trace_->log->Add({trace_->trace, trace_->connection, trace_->trace,
                        SpanName::kConnection, start, SpanNow()});
      trace_->connection = 0;
    }
    if (!response.ok()) {
      RecordConnection(start, 0, /*failed=*/true, /*reached=*/false);
      stats_->transport_errors += 1;
      Note(current.ToString() + ": " + response.status().ToString());
      return response.status();
    }
    uint64_t bytes = response->body.size();

    if (response->status_code == 503) {
      RecordConnection(start, bytes, /*failed=*/true);
      stats_->bad_status += 1;
      if (retries_left-- <= 0) {
        return Status::Unavailable("gave up after repeated 503s");
      }
      if (config_.sleeper) config_.sleeper(backoff);
      backoff *= 2;
      continue;
    }

    if (response->IsRedirect()) {
      auto location = response->headers.Get(http::kHeaderLocation);
      std::optional<http::Url> next;
      if (location.has_value()) {
        if (auto parsed = http::Url::Parse(*location); parsed.ok()) {
          next = std::move(parsed).value();
        }
      }
      bool loop = redirects_left-- <= 0;
      RecordConnection(start, bytes, loop || !next.has_value());
      if (loop) {
        stats_->redirect_loops += 1;
        Note("redirect loop at " + current.ToString());
        return Status::Internal("redirect loop at " + current.ToString());
      }
      if (!next.has_value()) {
        stats_->bad_status += 1;
        Note("301 without a usable Location at " + current.ToString());
        return Status::Corruption("301 without a usable Location");
      }
      current = std::move(*next);
      continue;
    }

    if (response->status_code != 200) {
      RecordConnection(start, bytes, /*failed=*/true);
      stats_->bad_status += 1;
      Note(current.ToString() + ": status " +
           std::to_string(response->status_code));
      return Status::NotFound("status " +
                              std::to_string(response->status_code) +
                              " for " + current.ToString());
    }

    bool content_ok = true;
    std::string why;
    PagePtr page =
        Accept(current, std::move(response->body), &content_ok, &why);
    RecordConnection(start, bytes, !content_ok);
    if (!content_ok) {
      stats_->content_errors += 1;
      Note(current.ToString() + ": content check: " + why);
    }
    cache_[current.ToString()] = page;
    if (!(current == url)) cache_[url.ToString()] = page;
    if (final_url != nullptr) *final_url = current;
    return page;
  }
}

bool Walker::RunWalk(workload::Fetcher& fetcher) {
  if (entry_points_.empty()) return false;
  cache_.clear();  // "reset cache"
  stats_->walks += 1;

  http::Url current = entry_points_[rng_.NextBelow(entry_points_.size())];
  int steps = static_cast<int>(
      rng_.NextInRange(config_.min_steps, config_.max_steps));
  bool tracing = trace_ != nullptr && trace_->log != nullptr &&
                 trace_->log->enabled();

  for (int step = 0; step < steps; ++step) {
    int64_t step_start = SpanNow();
    size_t connections_before = stats_->connections.size();
    if (tracing) trace_->trace = trace_->log->NewId();

    http::Url served_at = current;
    auto page = FetchDocument(fetcher, current, &served_at);
    if (!page.ok()) {
      if (tracing) trace_->trace = 0;
      return step > 0;
    }
    std::optional<http::Url> next;
    if (*page != nullptr) {
      for (const http::Url& image : (*page)->images) {
        (void)FetchDocument(fetcher, image, nullptr);
      }
      if (!(*page)->hyperlinks.empty()) {
        next = (*page)->hyperlinks[rng_.NextBelow(
            (*page)->hyperlinks.size())];
      }
    }

    // A step served wholly from the walk's cache made no connection and
    // is not a sample of server-facing page time.
    if (stats_->connections.size() > connections_before &&
        stats_->recording.load(std::memory_order_relaxed)) {
      int64_t end_ns = SpanNow();
      stats_->pages.push_back(
          {end_ns / 1000, static_cast<float>(end_ns - step_start) / 1000.0f});
    }
    if (tracing) {
      trace_->log->Add({trace_->trace, trace_->trace, 0, SpanName::kPage,
                        step_start, SpanNow()});
      trace_->trace = 0;
    }
    if (!next.has_value()) break;  // non-HTML leaf or dead end
    current = std::move(*next);
  }
  return true;
}

}  // namespace dcws::e2e
