// Micro-benchmarks of the DCWS hot paths: LDG tuple retrieval (the
// paper's "hash table ... necessary for each request"), Algorithm 1
// selection, the ~migrate naming codec, the piggyback load-header
// codec, whole-request serving through core::Server (cached,
// regenerating, and stored documents up to the socket write), the
// event-journal append, and one loopback round trip through the TCP
// host.
//
// CI runs this binary and diffs the result against the committed
// results/BENCH_micro_core.json via tools/check_perf.py; ratios are
// normalized by BM_SpinCalibration so the gate survives machine-speed
// differences.

#include <benchmark/benchmark.h>

#include "src/core/server.h"
#include "src/graph/ldg.h"
#include "src/load/piggyback.h"
#include "src/migrate/naming.h"
#include "src/migrate/selection.h"
#include "src/net/tcp.h"
#include "src/obs/events.h"
#include "src/util/clock.h"
#include "src/workload/site.h"

namespace dcws {
namespace {

const http::ServerAddress kHome{"home", 8001};

storage::DocumentStore& LodStore() {
  static storage::DocumentStore* store = [] {
    auto* s = new storage::DocumentStore();
    Rng rng(3);
    for (auto& doc : workload::BuildLod(rng).documents) {
      s->Put(std::move(doc));
    }
    return s;
  }();
  return *store;
}

graph::LocalDocumentGraph& LodGraph() {
  static graph::LocalDocumentGraph* graph = [] {
    auto* g = new graph::LocalDocumentGraph();
    Status s = g->Build(LodStore(), kHome, {"/lod/index.html"});
    (void)s;
    return g;
  }();
  return *graph;
}

void BM_LdgBuild(benchmark::State& state) {
  for (auto _ : state) {
    graph::LocalDocumentGraph graph;
    Status s = graph.Build(LodStore(), kHome, {"/lod/index.html"});
    benchmark::DoNotOptimize(s);
  }
  state.SetLabel("scan+parse 349-doc LOD site");
}
BENCHMARK(BM_LdgBuild);

void BM_LdgBriefLookup(benchmark::State& state) {
  auto& graph = LodGraph();
  const std::string name = "/lod/gallery3.html";
  for (auto _ : state) {
    auto brief = graph.Brief(name);
    benchmark::DoNotOptimize(brief);
  }
}
BENCHMARK(BM_LdgBriefLookup);

void BM_LdgRecordHit(benchmark::State& state) {
  auto& graph = LodGraph();
  const std::string name = "/lod/item42.html";
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.RecordHit(name));
  }
}
BENCHMARK(BM_LdgRecordHit);

void BM_SelectionSnapshot(benchmark::State& state) {
  auto& graph = LodGraph();
  for (auto _ : state) {
    auto views = graph.SelectionSnapshot();
    benchmark::DoNotOptimize(views);
  }
  state.SetLabel("349 records");
}
BENCHMARK(BM_SelectionSnapshot);

void BM_Algorithm1(benchmark::State& state) {
  auto views = LodGraph().SelectionSnapshot();
  migrate::SelectionConfig config;
  config.hit_threshold = 4;
  for (auto _ : state) {
    auto pick = migrate::SelectDocumentForMigration(views, config);
    benchmark::DoNotOptimize(pick);
  }
}
BENCHMARK(BM_Algorithm1);

void BM_NamingEncode(benchmark::State& state) {
  for (auto _ : state) {
    std::string target = migrate::EncodeMigratedTarget(
        kHome, "/lod/img/t123.gif");
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_NamingEncode);

void BM_NamingDecode(benchmark::State& state) {
  std::string target =
      migrate::EncodeMigratedTarget(kHome, "/lod/img/t123.gif");
  for (auto _ : state) {
    auto decoded = migrate::DecodeMigratedTarget(target);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_NamingDecode);

void BM_PiggybackEncode(benchmark::State& state) {
  load::GlobalLoadTable glt;
  for (int i = 0; i < 16; ++i) {
    glt.Update({"node" + std::to_string(i), 8001}, 100.0 + i,
               Seconds(i));
  }
  auto snapshot = glt.Snapshot();
  for (auto _ : state) {
    std::string header = load::EncodeLoadHeader(snapshot, Seconds(20));
    benchmark::DoNotOptimize(header);
  }
  state.SetLabel("16-server GLT");
}
BENCHMARK(BM_PiggybackEncode);

void BM_PiggybackDecode(benchmark::State& state) {
  load::GlobalLoadTable glt;
  for (int i = 0; i < 16; ++i) {
    glt.Update({"node" + std::to_string(i), 8001}, 100.0 + i,
               Seconds(i));
  }
  std::string header =
      load::EncodeLoadHeader(glt.Snapshot(), Seconds(20));
  for (auto _ : state) {
    auto decoded = load::DecodeLoadHeader(header);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_PiggybackDecode);

// ---------------------------------------------------------------------
// Whole-request serving through core::Server, and the observability
// appends that ride every decision.
// ---------------------------------------------------------------------

// Peer transport that never answers: the benched paths are all local.
struct NullPeers : core::PeerClient {
  Result<http::Response> Execute(const http::ServerAddress&,
                                 const http::Request&) override {
    return Status::Unavailable("bench: no peers");
  }
};

core::Server& BenchServer() {
  static core::Server* server = [] {
    static WallClock clock;
    core::ServerParams params;
    // Keep periodic duties far away from the measured loop; only
    // HandleRequest runs here.
    params.stats_interval = Seconds(3600);
    params.pinger_interval = Seconds(3600);
    params.validation_interval = Seconds(3600);
    auto* s = new core::Server(kHome, params, &clock);
    Rng rng(3);
    workload::SiteSpec site = workload::BuildLod(rng);
    Status status = s->LoadSite(site.documents, site.entry_points);
    (void)status;
    return s;
  }();
  return *server;
}

// The cached-rewrite hot path: a clean HTML document whose rewritten
// copy is already cached — one LDG lookup, one store read, headers.
// This is the serve that dominates steady state; tools/check_perf.py
// gates CI on its normalized time.
void BM_ServeCachedDocument(benchmark::State& state) {
  core::Server& server = BenchServer();
  NullPeers peers;
  http::Request request;
  request.method = "GET";
  request.target = "/lod/gallery3.html";
  // Prime the rewrite cache so the loop measures cached serves only.
  benchmark::DoNotOptimize(server.HandleRequest(request, &peers));
  for (auto _ : state) {
    http::Response response = server.HandleRequest(request, &peers);
    benchmark::DoNotOptimize(response);
  }
  state.SetLabel("cached rewrite hot path (perf-gated)");
}
BENCHMARK(BM_ServeCachedDocument);

// A stored document served up to the socket: HandleRequest, head
// serialization and the entity view the TCP host hands to its vectored
// write (no socket).  The entity is shared with the store, so the cost
// should not grow with the document: compare a ~2.5 KB LOD page with a
// 2 MB Sequoia-sized raster.
void BM_ServeStoredDocument(benchmark::State& state, std::string path,
                            size_t raster_bytes) {
  core::Server& server = BenchServer();
  NullPeers peers;
  if (raster_bytes > 0) {
    storage::Document raster;
    raster.path = path;
    raster.content = std::string(raster_bytes, 'R');
    Status put = server.PutDocument(std::move(raster));
    benchmark::DoNotOptimize(put);
  }
  http::Request request;
  request.method = "GET";
  request.target = path;
  size_t entity_bytes = 0;
  for (auto _ : state) {
    http::Response response = server.HandleRequest(request, &peers);
    std::string head = response.SerializeHead();
    std::string_view entity = response.entity();
    entity_bytes = entity.size();
    benchmark::DoNotOptimize(head);
    benchmark::DoNotOptimize(entity);
  }
  state.SetLabel(std::to_string(entity_bytes) + " B entity");
}
BENCHMARK_CAPTURE(BM_ServeStoredDocument, lod_page, "/lod/gallery3.html",
                  0);
BENCHMARK_CAPTURE(BM_ServeStoredDocument, raster_2mb, "/bench/raster.gif",
                  2 << 20);

// Dirty-document serve: every iteration invalidates the page so the
// serve pays link rewriting (document engineering) again.
void BM_RegenerateDirtyServe(benchmark::State& state) {
  core::Server& server = BenchServer();
  NullPeers peers;
  const std::string name = "/lod/gallery3.html";
  http::Request request;
  request.method = "GET";
  request.target = name;
  for (auto _ : state) {
    Status dirty = server.ldg().SetDirty(name, true);
    benchmark::DoNotOptimize(dirty);
    http::Response response = server.HandleRequest(request, &peers);
    benchmark::DoNotOptimize(response);
  }
  state.SetLabel("regeneration (link rewrite) per serve");
}
BENCHMARK(BM_RegenerateDirtyServe);

// Event-journal append with a realistic decision payload (GLT rows,
// detail string): the overhead each audited decision adds.
void BM_EventJournalEmit(benchmark::State& state) {
  static WallClock clock;
  obs::EventJournal journal("bench:8001", &clock, 256);
  obs::Event proto;
  proto.type = obs::EventType::kMigrationDecided;
  proto.doc = "/lod/gallery3.html";
  proto.peer = "node2:8002";
  proto.own_load = 120.5;
  proto.peer_load = 14.25;
  proto.detail = "own 120.5 cps > 2 x 14.25 cps at node2:8002";
  for (int i = 0; i < 4; ++i) {
    proto.glt.push_back(obs::GltRow{"node" + std::to_string(i) + ":8001",
                                    10.0 * i, Seconds(1)});
  }
  for (auto _ : state) {
    obs::Event event = proto;
    journal.Emit(std::move(event));
  }
  state.SetLabel("decision event with 4 GLT rows");
}
BENCHMARK(BM_EventJournalEmit);

// One HTTP/1.0 GET of a ~2.6 KB LOD page over loopback: TcpCall's
// connect, request write and response read on this thread; the host's
// accept, request read and parse, HandleRequest and vectored write on
// its threads.  Real time, since most of a round trip is spent blocked.
void BM_TcpRoundTrip(benchmark::State& state) {
  net::TcpNetwork network;
  auto host = network.AddServer(&BenchServer());
  if (!host.ok()) {
    state.SkipWithError("no loopback port to bind");
    return;
  }
  http::Request request;
  request.method = "GET";
  request.target = "/lod/gallery3.html";
  size_t body_bytes = 0;
  for (auto _ : state) {
    auto response = net::TcpCall((*host)->port(), request);
    if (!response.ok() || response->status_code != 200) {
      state.SkipWithError("round trip failed");
      break;
    }
    body_bytes = response->body.size();
    benchmark::DoNotOptimize(response);
  }
  network.StopAll();
  state.SetLabel(std::to_string(body_bytes) + " B page over loopback");
}
BENCHMARK(BM_TcpRoundTrip)->UseRealTime();

// Fixed CPU-bound spin: the machine-speed anchor tools/check_perf.py
// divides the other timings by, so the regression gate compares
// dimensionless ratios rather than nanoseconds across machines.
void BM_SpinCalibration(benchmark::State& state) {
  for (auto _ : state) {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
  state.SetLabel("machine-speed anchor for tools/check_perf.py");
}
BENCHMARK(BM_SpinCalibration);

}  // namespace
}  // namespace dcws

BENCHMARK_MAIN();
