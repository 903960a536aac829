// Tests for the real-socket transport: a DCWS group on 127.0.0.1 with
// genuine HTTP/1.0 wire traffic between clients and servers and between
// the cooperating servers themselves.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <csignal>
#include <thread>

#include "src/migrate/naming.h"
#include "src/net/tcp.h"
#include "src/obs/export.h"
#include "src/storage/fs.h"
#include "src/workload/browse.h"

namespace dcws::net {
namespace {

core::ServerParams FastParams() {
  core::ServerParams params;
  params.stats_interval = Millis(100);
  params.load_window = Millis(100);
  params.pinger_interval = Millis(200);
  params.hit_threshold = 1;
  params.min_load_cps = 5;
  params.worker_threads = 4;
  return params;
}

storage::Document Doc(std::string path, std::string content) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

http::Request Get(const std::string& target) {
  http::Request req;
  req.target = target;
  return req;
}

// `size` pseudo-random bytes: a write resumed at the wrong byte, or in
// the wrong buffer, cannot reproduce them.
std::string Pattern(size_t size, uint32_t seed) {
  std::string out(size, '\0');
  uint32_t x = seed;
  for (char& c : out) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return out;
}

std::string ReadToEof(const Socket& conn) {
  std::string wire;
  char buffer[4096];
  while (true) {
    auto read = ReadInto(conn, buffer);
    EXPECT_TRUE(read.ok()) << read.status();
    if (!read.ok() || *read == 0) return wire;
    wire.append(buffer, *read);
  }
}

// A HEAD of `path` answers 200 with the GET's Content-Length and no
// body.  The reply is read to EOF: a framer would wait for the
// advertised length.
void ExpectHeadHasGetLengthAndNoBody(uint16_t port, const std::string& path,
                                     size_t get_length) {
  auto conn = ConnectLoopback(port);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteAll(*conn, "HEAD " + path + " HTTP/1.0\r\n\r\n").ok());
  std::string wire = ReadToEof(*conn);
  EXPECT_EQ(wire.rfind("HTTP/1.0 200", 0), 0u) << wire;
  EXPECT_NE(wire.find("Content-Length: " + std::to_string(get_length) +
                      "\r\n"),
            std::string::npos)
      << wire;
  size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << wire;
  EXPECT_EQ(wire.size(), head_end + 4) << "HEAD reply carried body bytes";
}

// The seals on a stored version's memfd, or -1 when it is on the heap.
int SealsOf(core::Server& server, const std::string& path) {
  auto version = server.store().Get(path);
  EXPECT_TRUE(version.ok()) << version.status();
  if (!version.ok() || (*version)->sealed_fd() < 0) return -1;
  return ::fcntl((*version)->sealed_fd(), F_GET_SEALS);
}

// While alive, the soft RLIMIT_NOFILE is `soft_limit`.  The kernel hands
// out the lowest free descriptor number, so a limit of
// LowestFreeDescriptor() leaves none free.  A test probes that number
// before a host opens its descriptors, so that none the host closes
// fits under the limit either.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(int soft_limit) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(soft_limit);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~DescriptorLimit() { Restore(); }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

  void Restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  static int LowestFreeDescriptor() {
    int probe = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    EXPECT_GE(probe, 0);
    ::close(probe);
    return probe;
  }

 private:
  rlimit saved_{};
};

class TcpTest : public ::testing::Test {
 protected:
  TcpTest()
      : home_({"tcp-home", 8001}, FastParams(), &clock_),
        coop_({"tcp-coop", 8002}, FastParams(), &clock_) {
    home_.RegisterPeer(coop_.address());
    coop_.RegisterPeer(home_.address());
    EXPECT_TRUE(home_
                    .LoadSite({Doc("/index.html",
                                   "<a href=\"deep.html\">go</a>"),
                               Doc("/deep.html", "<img src=\"pic.gif\">"),
                               Doc("/pic.gif", std::string(1000, 'Z'))},
                              {"/index.html"})
                    .ok());
    auto home_host = network_.AddServer(&home_);
    auto coop_host = network_.AddServer(&coop_);
    EXPECT_TRUE(home_host.ok());
    EXPECT_TRUE(coop_host.ok());
    home_port_ = (*home_host)->port();
    coop_port_ = (*coop_host)->port();
  }

  ~TcpTest() override { network_.StopAll(); }

  WallClock clock_;
  core::Server home_;
  core::Server coop_;
  TcpNetwork network_;
  uint16_t home_port_ = 0;
  uint16_t coop_port_ = 0;
};

TEST_F(TcpTest, ServesOverRealSockets) {
  auto response = TcpCall(home_port_, Get("/index.html"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "<a href=\"deep.html\">go</a>");
  EXPECT_EQ(response->headers.Get("Content-Type").value(), "text/html");
}

TEST_F(TcpTest, BinaryBodySurvivesTheWire) {
  auto response = TcpCall(home_port_, Get("/pic.gif"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, std::string(1000, 'Z'));
}

TEST_F(TcpTest, StoredMultiMegabyteDocumentArrivesByteExact) {
  const std::string raster = Pattern(3 * 1024 * 1024 + 17, 7);
  ASSERT_TRUE(home_.PutDocument(Doc("/raster.gif", raster)).ok());
  auto response = TcpCall(home_port_, Get("/raster.gif"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->headers.Get("Content-Length").value(),
            std::to_string(raster.size()));
  EXPECT_EQ(response->body.size(), raster.size());
  EXPECT_TRUE(response->body == raster);  // no multi-MB failure dump
}

TEST_F(TcpTest, HeadOfStoredDocumentHasGetLengthAndNoBody) {
  auto get = TcpCall(home_port_, Get("/pic.gif"));
  ASSERT_TRUE(get.ok()) << get.status();
  ASSERT_EQ(get->body.size(), 1000u);
  ExpectHeadHasGetLengthAndNoBody(home_port_, "/pic.gif", get->body.size());
}

// ------------------------------------------------------- sealed bodies
//
// A body of at least storage::kSealedBodyBytes is stored in a sealed
// memfd, its only copy, and the host sends it with sendfile(2) behind a
// head held back with MSG_MORE.

class TcpSealedTest : public TcpTest {
 protected:
  TcpSealedTest() : raster_(Pattern(40 * storage::kSealedBodyBytes + 5, 11)) {
    EXPECT_TRUE(home_.PutDocument(Doc("/raster.gif", raster_)).ok());
  }

  std::string raster_;
};

TEST_F(TcpSealedTest, HeadHasGetLengthAndNoBody) {
  ASSERT_NE(SealsOf(home_, "/raster.gif"), -1);
  ExpectHeadHasGetLengthAndNoBody(home_port_, "/raster.gif", raster_.size());
}

// The response holds the version it started with: the author's new
// bytes go into a new memfd, and the old pages, sealed, cannot change
// under the socket.  8 MiB is more than loopback buffers take unread, so
// most of the body is still unsent when the author writes.
TEST_F(TcpSealedTest, ReplacedMidResponseSendsTheOldBytes) {
  const std::string before = Pattern(8 << 20, 21);
  const std::string after = Pattern(8 << 20, 22);
  ASSERT_TRUE(home_.PutDocument(Doc("/big.gif", before)).ok());
  ASSERT_NE(SealsOf(home_, "/big.gif"), -1);

  auto conn = ConnectLoopback(home_port_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteAll(*conn, "GET /big.gif HTTP/1.0\r\n\r\n").ok());
  std::string wire;
  char buffer[4096];
  while (wire.size() < storage::kSealedBodyBytes) {
    auto read = ReadInto(*conn, buffer);
    ASSERT_TRUE(read.ok()) << read.status();
    ASSERT_GT(*read, 0u) << "closed early";
    wire.append(buffer, *read);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(home_.PutDocument(Doc("/big.gif", after)).ok());
  wire += ReadToEof(*conn);

  size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(wire.size() - head_end - 4, before.size());
  EXPECT_TRUE(wire.compare(head_end + 4, std::string::npos, before) == 0)
      << "the body is not exactly the version the response started with";

  auto stored = home_.store().Get("/big.gif");
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE((*stored)->bytes() == after);
}

// The co-op reads the home's sendfile'd body off its socket and seals
// its own copy.
TEST_F(TcpSealedTest, CoopFetchArrivesByteExactAndIsSealedAtTheCoop) {
  const std::string target =
      migrate::EncodeMigratedTarget(home_.address(), "/raster.gif");
  auto response = TcpCall(coop_port_, Get(target));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body.size(), raster_.size());
  EXPECT_TRUE(response->body == raster_);
  EXPECT_EQ(coop_.counters().coop_fetches, 1u);
  EXPECT_NE(SealsOf(coop_, target) & F_SEAL_WRITE, 0);
}

// Tests that lower the descriptor limit.  Each stores its versions on a
// server whose host is not running yet, so no thread of the test closes
// a descriptor under the probed limit or needs one while it is low.

// Sealing fails when no descriptor is free for the memfd; the version
// stays on the heap and goes out by the vectored write.
TEST(TcpSealedLimitTest, FailedSealKeepsTheVersionOnTheHeap) {
  const std::string body = Pattern(3 * storage::kSealedBodyBytes, 31);
  WallClock clock;
  core::Server server({"tcp-heap", 8600}, FastParams(), &clock);
  {
    DescriptorLimit limit(DescriptorLimit::LowestFreeDescriptor());
    ASSERT_TRUE(server.PutDocument(Doc("/heap.gif", body)).ok());
  }
  EXPECT_EQ(SealsOf(server, "/heap.gif"), -1);
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok()) << host.status();
  auto response = TcpCall((*host)->port(), Get("/heap.gif"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_TRUE(response->body == body);
  network.StopAll();
}

// Sealed versions take at most half the soft limit, so a site with a
// large body for every descriptor the limit allows still leaves the
// host descriptors for its listener and connections: 32 beyond those
// already open and the budget.  Every earlier test in this process has
// released its sealed versions.
TEST(TcpSealedLimitTest, LargeSiteLeavesHalfTheDescriptorsToSockets) {
  const int floor = DescriptorLimit::LowestFreeDescriptor();
  DescriptorLimit limit(2 * floor + 64);
  const size_t budget = static_cast<size_t>(floor) + 32;
  std::vector<storage::Document> site;
  for (size_t i = 0; i < 2 * budget; ++i) {
    site.push_back(Doc("/r" + std::to_string(i) + ".gif",
                       Pattern(storage::kSealedBodyBytes,
                               static_cast<uint32_t>(i))));
  }
  WallClock clock;
  core::Server server({"tcp-large", 8601}, FastParams(), &clock);
  ASSERT_TRUE(server.LoadSite(site, {}).ok());
  size_t sealed = 0;
  for (const storage::Document& doc : site) {
    sealed += SealsOf(server, doc.path) != -1;
  }
  EXPECT_EQ(sealed, budget);
  EXPECT_NE(SealsOf(server, site.front().path), -1);
  EXPECT_EQ(SealsOf(server, site.back().path), -1);

  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok()) << host.status();
  for (const storage::Document& doc : {site.front(), site.back()}) {
    auto response = TcpCall((*host)->port(), Get(doc.path));
    ASSERT_TRUE(response.ok()) << doc.path << ": " << response.status();
    EXPECT_EQ(response->status_code, 200) << doc.path;
    EXPECT_TRUE(response->body == doc.content) << doc.path;
  }
  network.StopAll();
}

// A blocking send comes back short only when a signal interrupts it, so
// a helper thread keeps signalling the writer while a slow reader drains
// small socket buffers.  Every short send must resume at the right byte
// of the right buffer, and every EINTR must retry.
TEST(SocketUtilTest, VectoredWriteResumesInterruptedPartialSends) {
  struct sigaction interrupt = {};
  interrupt.sa_handler = [](int) {};
  sigemptyset(&interrupt.sa_mask);  // no SA_RESTART: sends return short
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &previous), 0);

  // A local stream pair with a small send buffer: the writer blocks
  // often, and without TCP's acknowledgement timers.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket sender(fds[0]);
  Socket receiver(fds[1]);
  int small = 4096;
  ::setsockopt(sender.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  // Odd sizes, empty buffers included, each with bytes of its own.
  const std::vector<std::string> buffers = {
      "", "h", Pattern(300'007, 1), "", "xy", Pattern(200'003, 2), "z"};
  const std::vector<std::string_view> parts(buffers.begin(), buffers.end());
  std::string expected;
  for (const std::string& buffer : buffers) expected += buffer;

  std::atomic<bool> written{false};
  std::atomic<bool> quiet{false};
  Status status;
  std::thread writer([&] {
    status = WriteAll(sender, parts);
    written.store(true);
    while (!quiet.load()) std::this_thread::yield();
    ::shutdown(sender.fd(), SHUT_WR);
  });
  std::thread signaller([&, target = writer.native_handle()] {
    while (!written.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    quiet.store(true);
  });
  std::string received;
  char buffer[1000];
  while (true) {
    auto read = ReadInto(receiver, buffer);
    if (!read.ok() || *read == 0) break;
    received.append(buffer, *read);
  }
  receiver.Close();  // a writer still blocked (reading failed) gets EPIPE
  writer.join();
  signaller.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected);
}

// A source sendfile(2) cannot read from is reported before any byte
// goes out, so the host can write the body from its mapping instead.
TEST(SocketUtilTest, SendFileReportsAnUnsupportedSourceBeforeSending) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  Socket writer(ends[0]);
  Socket reader(ends[1]);
  Socket source(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  ASSERT_TRUE(source.valid());
  Status sent = SendFile(writer, source.fd(), 3);
  EXPECT_EQ(sent.code(), StatusCode::kUnimplemented) << sent;
  writer.Close();
  char byte;
  auto read = ReadInto(reader, std::span<char>(&byte, 1));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 0u) << "bytes went out before the failure";
}

TEST_F(TcpTest, NotFoundAndBadRequests) {
  auto missing = TcpCall(home_port_, Get("/nope.html"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  // Raw garbage on the socket gets a 400.
  auto conn = ConnectLoopback(home_port_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteAll(*conn, "NONSENSE\r\n\r\n").ok());
  char reply[4096];
  auto read = ReadInto(*conn, reply);
  ASSERT_TRUE(read.ok());
  EXPECT_NE(std::string_view(reply, *read).find("400"), std::string::npos);

  // A head whose Content-Length does not parse gets its 400 while the
  // client waits: the worker does not read on for a body it cannot frame.
  auto bad_length = ConnectLoopback(home_port_);
  ASSERT_TRUE(bad_length.ok());
  timeval limit{/*tv_sec=*/5, /*tv_usec=*/0};
  ASSERT_EQ(setsockopt(bad_length->fd(), SOL_SOCKET, SO_RCVTIMEO, &limit,
                       sizeof(limit)),
            0);
  ASSERT_TRUE(
      WriteAll(*bad_length, "GET / HTTP/1.0\r\nContent-Length: 12x\r\n\r\n")
          .ok());
  read = ReadInto(*bad_length, reply);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_NE(std::string_view(reply, *read).find("400"), std::string::npos);
}

TEST_F(TcpTest, StatusEndpointReports) {
  ASSERT_TRUE(TcpCall(home_port_, Get("/index.html")).ok());
  auto response = TcpCall(home_port_, Get("/.dcws/status"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find("\ndcws_documents 3\n"), std::string::npos)
      << response->body;
  size_t glt = response->body.find("global load table:\n");
  ASSERT_NE(glt, std::string::npos) << response->body;
  EXPECT_NE(response->body.find("  tcp-home:8001 = ", glt),
            std::string::npos);
}

TEST_F(TcpTest, NetworkExecutesByServerName) {
  auto response = network_.Execute(home_.address(), Get("/deep.html"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_TRUE(network_
                  .Execute({"unknown", 1}, Get("/x"))
                  .status()
                  .IsNotFound());
}

TEST_F(TcpTest, MigrationAndCoopFetchOverSockets) {
  // Drive load over real sockets until the duty thread migrates.
  for (int i = 0; i < 600; ++i) {
    auto r = TcpCall(home_port_, Get("/deep.html"));
    ASSERT_TRUE(r.ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  std::string migrated;
  for (const auto& record : home_.ldg().Snapshot()) {
    if (!(record.location == home_.address())) migrated = record.name;
  }
  ASSERT_FALSE(migrated.empty()) << "expected a migration under load";

  // Fetch through the co-op's socket: triggers a real socket-to-socket
  // co-op fetch back to home.
  auto response = TcpCall(
      coop_port_,
      Get(migrate::EncodeMigratedTarget(home_.address(), migrated)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_GE(coop_.counters().coop_fetches, 1u);

  // And the home 301s stale requests to the co-op.
  auto redirect = TcpCall(home_port_, Get(migrated));
  ASSERT_TRUE(redirect.ok());
  EXPECT_EQ(redirect->status_code, 301);
}

TEST_F(TcpTest, ParallelSocketClients) {
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 25; ++i) {
        auto r = TcpCall(home_port_, Get("/index.html"));
        if (r.ok() && r->status_code == 200) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 150);
}

TEST_F(TcpTest, FetcherWalksOverSockets) {
  TcpFetcher fetcher(&network_);
  workload::BrowsingClient client(
      {http::Url{"tcp-home", 8001, "/index.html"}}, 3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(client.RunWalk(fetcher));
  }
  EXPECT_EQ(client.stats().failures, 0u);
}

TEST_F(TcpTest, StoppedServerIsUnavailableUntilRestarted) {
  ASSERT_TRUE(network_.StopServer(coop_.address()));
  EXPECT_FALSE(network_.StopServer(coop_.address())) << "already stopped";
  // The name still resolves, so the dial is refused: a crashed machine.
  auto refused = network_.Execute(coop_.address(), Get("/anything"));
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status();

  auto restarted = network_.StartServer(&coop_);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_EQ((*restarted)->port(), coop_port_);
  auto response = network_.Execute(coop_.address(), Get("/anything"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 404);
}

TEST_F(TcpTest, StopAllIsIdempotentAndFinal) {
  network_.StopAll();
  network_.StopAll();
  auto response = network_.Execute(home_.address(), Get("/deep.html"));
  EXPECT_FALSE(response.ok());
}

TEST(TcpHistoryTest, RingFillsOverSockets) {
  // The duty thread's sampler (50 ms interval; a dedicated server so
  // the fast sampler doesn't load the shared fixture) must yield >= 2
  // samples.
  WallClock clock;
  core::ServerParams params = FastParams();
  params.history_interval = Millis(50);
  core::Server server({"tcp-hist", 8200}, params, &clock);
  ASSERT_TRUE(
      server.LoadSite({Doc("/index.html", "<p>hi</p>")}, {}).ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();

  http::Request get;
  get.target = "/index.html";
  auto page = TcpCall(port, get);
  ASSERT_TRUE(page.ok());

  http::Request history;
  history.target =
      "/.dcws/history?metric=dcws_requests_total&format=json";
  std::string body;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto response = TcpCall(port, history);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status_code, 200);
    body = response->body;
    if (body.find("],[") != std::string::npos) break;
  }
  network.StopAll();
  EXPECT_NE(body.find("\"name\":\"dcws_requests_total\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("],["), std::string::npos) << body;
}

TEST(TcpBacklogTest, OverflowDrops503) {
  // One worker behind a two-deep socket queue, hit by rounds of 16
  // concurrent clients: the front end sheds the overflow with 503s
  // (§5.2), and the registry counts exactly the sheds the clients saw.
  // The kernel's listen backlog is not L_sq, so no connection is dropped
  // unseen at SYN.  In each round every client connects before any sends
  // its request, and sends before any reads its response, so the whole
  // round arrives while the worker still waits for the request of the
  // connection it took first, however slow the clients run.  (Loopback
  // buffers take a 200 KB response unread, so a worker that had its
  // request would finish before the client read a byte.)
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 1;
  params.socket_queue_length = 2;
  core::Server server({"tcp-solo", 8100}, params, &clock);
  ASSERT_TRUE(
      server.LoadSite({Doc("/x.html", std::string(200'000, 'x'))}, {})
          .ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();

  constexpr int kClients = 16;
  std::barrier connected(kClients);
  std::barrier sent(kClients);
  http::Request request;
  request.target = "/x.html";
  const std::string wire = request.Serialize();
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 20; ++i) {
        auto conn = ConnectLoopback(port);
        connected.arrive_and_wait();
        // A shed connection is closed already; its send may fail.
        if (conn.ok()) (void)WriteAll(*conn, wire);
        sent.arrive_and_wait();
        if (!conn.ok()) continue;
        auto response = ReadResponse(*conn);
        if (response.ok() && response->status_code == 503) ++shed;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  network.StopAll();
  EXPECT_GT(shed.load(), 0) << "a full socket queue should shed load";
  auto snapshot = server.metrics().Snapshot();
  const obs::MetricSnapshot* dropped = obs::FindMetric(
      snapshot, "dcws_requests_total", {{"outcome", "dropped"}});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, shed.load());
}

// ------------------------------------------------------- accept paths
//
// An idle worker accepts and serves its own connection; the front end
// accepts only while every worker is busy, and only a connection that
// waited in its socket queue records a queue_wait phase.  A client has
// its response before the worker has gone idle, so the tests wait on
// TcpServerHost::accept_state() for the step they assume.

uint64_t QueueWaitCount(const core::Server& server) {
  auto snapshot = server.metrics().Snapshot();
  const obs::MetricSnapshot* queue_wait = obs::FindMetric(
      snapshot, "dcws_phase_latency_us", {{"phase", "queue_wait"}});
  return queue_wait == nullptr ? 0 : queue_wait->hist.count;
}

// Waits up to 5 s for `host` to reach the accept state a step assumes.
void AwaitAcceptState(TcpServerHost* host, bool front_end_accepting,
                      int idle_workers) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  TcpServerHost::AcceptState state = host->accept_state();
  while ((state.front_end_accepting != front_end_accepting ||
          state.idle_workers != idle_workers) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    state = host->accept_state();
  }
  ASSERT_EQ(state.front_end_accepting, front_end_accepting);
  ASSERT_EQ(state.idle_workers, idle_workers);
}

// A request head that never ends pins a worker.
Socket Pin(uint16_t port) {
  auto pin = ConnectLoopback(port);
  EXPECT_TRUE(pin.ok());
  if (!pin.ok()) return Socket();
  EXPECT_TRUE(WriteAll(*pin, "GET /x.html HTTP/1.0\r\n").ok());
  return std::move(*pin);
}

int SequentialGets(uint16_t port, const std::string& target, int count) {
  int ok = 0;
  http::Request request;
  request.target = target;
  for (int i = 0; i < count; ++i) {
    auto response = TcpCall(port, request);
    if (response.ok() && response->status_code == 200) ++ok;
  }
  return ok;
}

TEST_F(TcpTest, IdleHostServesOnTheAcceptingWorker) {
  uint64_t before = QueueWaitCount(home_);
  EXPECT_EQ(SequentialGets(home_port_, "/index.html", 200), 200);
  EXPECT_EQ(QueueWaitCount(home_), before)
      << "a connection waited in the socket queue on an idle host";
}

TEST(TcpAcceptTest, SaturatedHostQueuesThenRecovers) {
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 3;
  params.socket_queue_length = 1000;
  core::Server server({"tcp-busy", 8300}, params, &clock);
  ASSERT_TRUE(
      server.LoadSite({Doc("/x.html", std::string(200'000, 'x'))}, {})
          .ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();

  // Every worker is held by a request head that has not ended yet, so
  // the burst's first connections must wait in the front end's queue.
  // (Unpinned, the 16 clients do not always keep 3 workers busy under
  // a sanitizer, which slows the clients' copies far more than the
  // host's kernel-side writes.)
  uint64_t before = QueueWaitCount(server);
  std::vector<Socket> pins;
  for (int i = 0; i < 3; ++i) pins.push_back(Pin(port));
  // 16 clients against 3 workers: the queue is deep enough that
  // nothing is shed.
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back(
        [&]() { ok += SequentialGets(port, "/x.html", 20); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pins.clear();  // the workers read EOF and drain the queue
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 320);
  uint64_t after_burst = QueueWaitCount(server);
  EXPECT_GT(after_burst, before) << "no connection went through the queue";

  // Once the burst is over the workers accept again: the worker that
  // served the last connection called the front end off.
  AwaitAcceptState(*host, false, 3);
  EXPECT_EQ(SequentialGets(port, "/x.html", 200), 200);
  EXPECT_EQ(QueueWaitCount(server), after_burst);
  network.StopAll();
}

TEST(TcpAcceptTest, PinnedWorkerQueuesToLsqAndShedsTheRest) {
  // One worker and L_sq 2.  While the worker is pinned the front end
  // accepts: two connections wait in the queue and three are shed at
  // once.  Releasing the pin serves the two.
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 1;
  params.socket_queue_length = 2;
  core::Server server({"tcp-pinned", 8400}, params, &clock);
  ASSERT_TRUE(server.LoadSite({Doc("/x.html", "<p>x</p>")}, {}).ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();
  ASSERT_EQ(SequentialGets(port, "/x.html", 1), 1);
  uint64_t queued_before = QueueWaitCount(server);

  // The idle worker accepts the pin itself, and the front end takes the
  // listener.
  AwaitAcceptState(*host, false, 1);
  Socket pin = Pin(port);
  AwaitAcceptState(*host, true, 0);

  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&]() {
      http::Request request;
      request.target = "/x.html";
      auto response = TcpCall(port, request);
      if (response.ok() && response->status_code == 503) {
        ++shed;
      } else if (response.ok() && response->status_code == 200) {
        ++served;
      } else {
        ++other;
      }
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (shed.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A moment more, so a fourth shed or an early serve would show.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(shed.load(), 3) << "the front end did not shed past L_sq";
  EXPECT_EQ(served.load(), 0) << "served while the only worker was pinned";

  pin.Close();  // the worker reads EOF and drains the queue
  for (auto& client : clients) client.join();
  EXPECT_EQ(shed.load(), 3);
  EXPECT_EQ(served.load(), 2);
  EXPECT_EQ(other.load(), 0);

  // The worker, idle again, called the front end off, so the next
  // connection reaches the worker directly: exactly the two queued
  // connections waited in the queue.
  AwaitAcceptState(*host, false, 1);
  EXPECT_EQ(SequentialGets(port, "/x.html", 1), 1);
  EXPECT_EQ(QueueWaitCount(server), queued_before + 2);
  network.StopAll();
}

// accept(2) allocates the new descriptor before it looks at the queue,
// so with none free it fails at once, connection waiting or not.  An
// accepting thread backs off instead of spinning, and serves the waiting
// connection once a descriptor is free again.  The host runs in the test
// process, so client sockets are made before the limit drops.

// A loopback client socket, made now and connected later.
Socket Unconnected() {
  Socket conn(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  EXPECT_TRUE(conn.valid());
  return conn;
}

void ConnectAndSend(const Socket& conn, uint16_t port,
                    std::string_view wire) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(conn.fd(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(WriteAll(conn, wire).ok());
}

// Process CPU time, every thread's, user and system.
MicroTime ProcessCpu() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto micros = [](timeval t) {
    return static_cast<MicroTime>(t.tv_sec) * kMicrosPerSecond + t.tv_usec;
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

// One thread retrying accept(2) at once burns the whole 200 ms.
void ExpectIdleFor200Ms() {
  MicroTime before = ProcessCpu();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpu() - before, Millis(50))
      << "an accept loop spins while no descriptor is free";
}

TEST(TcpAcceptTest, IdleWorkerBacksOffWhileNoDescriptorIsFree) {
  // Every descriptor the host opens numbers at least `floor`, so none it
  // closes fits under a limit of `floor`.
  const int floor = DescriptorLimit::LowestFreeDescriptor();
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 1;
  core::Server server({"tcp-nofd", 8500}, params, &clock);
  ASSERT_TRUE(server.LoadSite({Doc("/x.html", "<p>x</p>")}, {}).ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();
  Socket first = Unconnected();
  Socket waiting = Unconnected();
  // The worker takes `first`, its request unfinished, before the limit
  // drops.
  ConnectAndSend(first, port, "GET /x.html HTTP/1.0\r\n");
  AwaitAcceptState(*host, true, 0);

  DescriptorLimit limit(floor);
  // Served, `first` leaves the worker idle, and its next accept() finds
  // no descriptor.
  ASSERT_TRUE(WriteAll(first, "\r\n").ok());
  auto served = ReadResponse(first);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->status_code, 200);
  ConnectAndSend(waiting, port, "GET /x.html HTTP/1.0\r\n\r\n");
  ExpectIdleFor200Ms();

  limit.Restore();
  auto response = ReadResponse(waiting);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  network.StopAll();
}

TEST(TcpAcceptTest, FrontEndBacksOffWhileNoDescriptorIsFree) {
  const int floor = DescriptorLimit::LowestFreeDescriptor();
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 1;
  core::Server server({"tcp-nofd", 8500}, params, &clock);
  ASSERT_TRUE(server.LoadSite({Doc("/x.html", "<p>x</p>")}, {}).ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();
  Socket pin = Unconnected();
  Socket waiting = Unconnected();
  // The pinned worker leaves the listener to the front end.
  ConnectAndSend(pin, port, "GET /x.html HTTP/1.0\r\n");
  AwaitAcceptState(*host, true, 0);

  DescriptorLimit limit(floor);
  ConnectAndSend(waiting, port, "GET /x.html HTTP/1.0\r\n\r\n");
  ExpectIdleFor200Ms();

  // The front end queues `waiting`; the released worker serves it.
  limit.Restore();
  pin.Close();
  auto response = ReadResponse(waiting);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  network.StopAll();
}

// Acceptance check for the introspection endpoint: a three-server TCP
// group answers /.dcws/status?format=prometheus on every member with
// the full request-outcome counter family and derived latency
// quantiles.
TEST(TcpStatusTest, PrometheusScrapeOnThreeServerCluster) {
  WallClock clock;
  core::ServerParams params = FastParams();
  core::Server alpha({"alpha", 9201}, params, &clock);
  core::Server beta({"beta", 9202}, params, &clock);
  core::Server gamma({"gamma", 9203}, params, &clock);
  std::vector<core::Server*> group = {&alpha, &beta, &gamma};
  for (core::Server* a : group) {
    for (core::Server* b : group) {
      if (a != b) a->RegisterPeer(b->address());
    }
  }
  ASSERT_TRUE(alpha
                  .LoadSite({Doc("/index.html", "<a href=\"a.html\">a</a>"),
                             Doc("/a.html", "<p>a</p>")},
                            {"/index.html"})
                  .ok());
  TcpNetwork network;
  for (core::Server* server : group) {
    ASSERT_TRUE(network.AddServer(server).ok());
  }

  for (int i = 0; i < 10; ++i) {
    http::Request request;
    request.target = (i % 2 == 0) ? "/a.html" : "/nope.html";
    ASSERT_TRUE(network.Execute(alpha.address(), request).ok());
  }

  for (core::Server* server : group) {
    http::Request scrape;
    scrape.target = "/.dcws/status?format=prometheus";
    auto response = network.Execute(server->address(), scrape);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status_code, 200);
    const std::string& body = response->body;
    EXPECT_NE(body.find("# TYPE dcws_requests_total counter"),
              std::string::npos);
    for (const char* outcome :
         {"served_local", "served_coop", "redirect", "not_found",
          "overloaded", "dropped"}) {
      EXPECT_NE(body.find("dcws_requests_total{outcome=\"" +
                          std::string(outcome) + "\""),
                std::string::npos)
          << server->address().ToString() << " missing outcome "
          << outcome;
    }
    for (const char* quantile : {"_p50", "_p95", "_p99", "_max"}) {
      EXPECT_NE(
          body.find("dcws_request_latency_us" + std::string(quantile)),
          std::string::npos)
          << server->address().ToString() << " missing " << quantile;
    }
    EXPECT_NE(body.find("server=\"" + server->address().ToString() + "\""),
              std::string::npos);
  }

  // The traffic-generating server actually observed the requests.
  auto snapshot = alpha.metrics().Snapshot();
  const obs::MetricSnapshot* served = obs::FindMetric(
      snapshot, "dcws_requests_total", {{"outcome", "served_local"}});
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->value, 5.0);
  network.StopAll();
}

// ------------------------------------------------------- fs round trip

TEST(FsTest, SaveAndLoadDirectoryRoundTrip) {
  std::string root =
      ::testing::TempDir() + "/dcws_fs_test_" +
      std::to_string(::getpid());
  std::vector<storage::Document> documents = {
      Doc("/index.html", "<a href=\"sub/a.html\">a</a>"),
      Doc("/sub/a.html", "<p>nested</p>"),
      Doc("/img/x.gif", std::string(64, '\x01')),
  };
  ASSERT_TRUE(storage::SaveDirectory(root, documents).ok());

  auto loaded = storage::LoadDirectory(root);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), documents.size());
  // LoadDirectory sorts by path.
  EXPECT_EQ((*loaded)[0].path, "/img/x.gif");
  EXPECT_EQ((*loaded)[1].path, "/index.html");
  EXPECT_EQ((*loaded)[2].path, "/sub/a.html");
  EXPECT_EQ((*loaded)[1].content, documents[0].content);
  EXPECT_EQ((*loaded)[0].content_type, "image/gif");
  EXPECT_EQ((*loaded)[2].content, "<p>nested</p>");
}

TEST(FsTest, LoadMissingDirectoryFails) {
  EXPECT_TRUE(storage::LoadDirectory("/no/such/dcws/dir")
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace dcws::net
