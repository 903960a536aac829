#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>

#include "src/graph/ldg.h"
#include "src/storage/document_store.h"
#include "src/util/rng.h"
#include "src/workload/site.h"

namespace dcws {
namespace {

using graph::DocumentRecord;
using graph::LocalDocumentGraph;
using http::ServerAddress;
using storage::Document;
using storage::DocumentStore;

Document MakeDoc(std::string path, std::string content) {
  Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

// ----------------------------------------------------------------- store

TEST(DocumentStoreTest, PutGetRemove) {
  DocumentStore store;
  store.Put(MakeDoc("/a.html", "<p>a</p>"));
  EXPECT_TRUE(store.Contains("/a.html"));
  auto doc = store.Get("/a.html");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->bytes(), "<p>a</p>");
  EXPECT_EQ((*doc)->content_type(), "text/html");

  EXPECT_TRUE(store.Remove("/a.html").ok());
  EXPECT_FALSE(store.Contains("/a.html"));
  EXPECT_TRUE(store.Get("/a.html").status().IsNotFound());
  EXPECT_TRUE(store.Remove("/a.html").IsNotFound());
}

TEST(DocumentStoreTest, TotalBytesTracksPutsAndOverwrites) {
  DocumentStore store;
  store.Put(MakeDoc("/a.html", "12345"));
  store.Put(MakeDoc("/b.gif", "123"));
  EXPECT_EQ(store.TotalBytes(), 8u);
  store.Put(MakeDoc("/a.html", "1"));  // overwrite shrinks
  EXPECT_EQ(store.TotalBytes(), 4u);
  ASSERT_TRUE(store.Remove("/b.gif").ok());
  EXPECT_EQ(store.TotalBytes(), 1u);
  EXPECT_EQ(store.Count(), 1u);
}

TEST(DocumentStoreTest, ListPathsSorted) {
  DocumentStore store;
  store.Put(MakeDoc("/z.html", "z"));
  store.Put(MakeDoc("/a.html", "a"));
  store.Put(MakeDoc("/m.gif", "m"));
  auto paths = store.ListPaths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

TEST(DocumentStoreTest, HeldVersionKeepsItsBytesAfterReplaceAndRemove) {
  DocumentStore store;
  storage::DocumentPtr first = store.Put(MakeDoc("/a.gif", "first"));
  auto read = store.Get("/a.gif");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, first);  // a read shares the stored version

  storage::DocumentPtr second = store.Put(MakeDoc("/a.gif", "second"));
  EXPECT_EQ(first->bytes(), "first");
  EXPECT_EQ(store.Get("/a.gif").value(), second);

  ASSERT_TRUE(store.Remove("/a.gif").ok());
  EXPECT_FALSE(store.Contains("/a.gif"));
  EXPECT_EQ(first->bytes(), "first");
  EXPECT_EQ(second->bytes(), "second");
  EXPECT_EQ(second->path(), "/a.gif");
  EXPECT_EQ(store.TotalBytes(), 0u);
}

// Bodies from kSealedBodyBytes up live in a sealed memfd, by either Put;
// smaller ones stay on the heap.
TEST(DocumentStoreTest, SealsBodiesFromTheThresholdUp) {
  DocumentStore store;
  const std::string below(storage::kSealedBodyBytes - 1, 'b');
  const std::string at(storage::kSealedBodyBytes, 'a');
  storage::DocumentPtr heap = store.Put(MakeDoc("/below.gif", below));
  EXPECT_EQ(heap->sealed_fd(), -1);
  EXPECT_EQ(heap->bytes(), below);

  for (storage::DocumentPtr sealed :
       {store.Put(MakeDoc("/at.gif", at)),
        store.Put("/borrowed.gif", at, "image/gif")}) {
    ASSERT_GE(sealed->sealed_fd(), 0) << sealed->path();
    int seals = ::fcntl(sealed->sealed_fd(), F_GET_SEALS);
    EXPECT_EQ(seals & (F_SEAL_WRITE | F_SEAL_GROW | F_SEAL_SHRINK),
              F_SEAL_WRITE | F_SEAL_GROW | F_SEAL_SHRINK);
    EXPECT_TRUE(sealed->bytes() == at) << sealed->path();
    EXPECT_EQ(sealed->content_type(), "image/gif");
  }
  EXPECT_EQ(store.TotalBytes(), below.size() + 2 * at.size());
}

// Sealed versions hold at most half the soft descriptor limit; past it a
// large body stays on the heap, and a released version frees its place.
// No other version in this process is sealed meanwhile.
TEST(DocumentStoreTest, SealsNoMoreThanHalfTheDescriptorLimit) {
  int floor = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(floor, 0);
  ::close(floor);
  // The descriptors open stay below floor + budget, under the limit, so
  // only the budget keeps a version on the heap.
  const size_t budget = static_cast<size_t>(floor) + 8;
  struct RestoreLimit {
    rlimit saved{};
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.saved), 0);
  rlimit lowered = restore.saved;
  lowered.rlim_cur = 2 * budget;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  DocumentStore store;
  const std::string body(storage::kSealedBodyBytes, 's');
  size_t sealed = 0;
  for (size_t i = 0; i < budget + 4; ++i) {
    storage::DocumentPtr version =
        store.Put("/r" + std::to_string(i) + ".gif", body, "image/gif");
    sealed += version->sealed_fd() >= 0;
    EXPECT_TRUE(version->bytes() == body);
  }
  EXPECT_EQ(sealed, budget);
  ASSERT_TRUE(store.Remove("/r0.gif").ok());
  EXPECT_GE(store.Put("/again.gif", body, "image/gif")->sealed_fd(), 0);
}

// Every MAPUG body is below the threshold, so a holder of the whole site
// spends no descriptor on it.
TEST(DocumentStoreTest, MapugSiteHoldsNoMemfd) {
  Rng rng(5);
  DocumentStore store;
  for (storage::Document& doc : workload::BuildMapug(rng).documents) {
    store.Put(std::move(doc));
  }
  ASSERT_GT(store.Count(), 1000u);
  size_t sealed = 0;
  store.ForEach([&](const storage::StoredDocument& doc) {
    sealed += doc.sealed_fd() >= 0;
  });
  EXPECT_EQ(sealed, 0u);
}

TEST(DocumentStoreTest, GuessContentType) {
  EXPECT_EQ(storage::GuessContentType("/x.html"), "text/html");
  EXPECT_EQ(storage::GuessContentType("/x.HTM"), "text/html");
  EXPECT_EQ(storage::GuessContentType("/x.gif"), "image/gif");
  EXPECT_EQ(storage::GuessContentType("/x.jpeg"), "image/jpeg");
  EXPECT_EQ(storage::GuessContentType("/x"), "application/octet-stream");
}

// ------------------------------------------------------------------- LDG

class LdgTest : public ::testing::Test {
 protected:
  // Mirrors the paper's Figure 1 server #1: A->C, B->{D,E}, E->D.
  void SetUp() override {
    store_.Put(MakeDoc("/A.html", "<a href=\"C.html\">c</a>"));
    store_.Put(MakeDoc(
        "/B.html", "<a href=\"D.html\">d</a><a href=\"E.html\">e</a>"));
    store_.Put(MakeDoc("/C.html", "<p>leaf</p>"));
    store_.Put(MakeDoc("/D.html", "<p>leaf</p>"));
    store_.Put(MakeDoc("/E.html", "<a href=\"D.html\">d</a>"));
    ASSERT_TRUE(ldg_.Build(store_, home_, {"/A.html", "/B.html"}).ok());
  }

  ServerAddress home_{"s1", 8001};
  ServerAddress coop_{"s2", 8002};
  DocumentStore store_;
  LocalDocumentGraph ldg_;
};

TEST_F(LdgTest, BuildExtractsLinkStructure) {
  auto a = ldg_.Lookup("/A.html");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->link_to, std::vector<std::string>{"/C.html"});
  EXPECT_TRUE(a->link_from.empty());
  EXPECT_TRUE(a->entry_point);

  auto d = ldg_.Lookup("/D.html");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->link_to.empty());
  ASSERT_EQ(d->link_from.size(), 2u);
  EXPECT_TRUE(std::find(d->link_from.begin(), d->link_from.end(),
                        "/B.html") != d->link_from.end());
  EXPECT_TRUE(std::find(d->link_from.begin(), d->link_from.end(),
                        "/E.html") != d->link_from.end());
  EXPECT_FALSE(d->entry_point);
}

TEST_F(LdgTest, BuildRejectsUnknownEntryPoint) {
  LocalDocumentGraph ldg;
  EXPECT_FALSE(ldg.Build(store_, home_, {"/missing.html"}).ok());
}

TEST_F(LdgTest, HitsAccumulateAndWindowResets) {
  EXPECT_TRUE(ldg_.RecordHit("/C.html"));
  EXPECT_TRUE(ldg_.RecordHit("/C.html"));
  auto c = ldg_.Lookup("/C.html");
  EXPECT_EQ(c->total_hits, 2u);
  EXPECT_EQ(c->window_hits, 2u);
  ldg_.ResetWindowHits();
  c = ldg_.Lookup("/C.html");
  EXPECT_EQ(c->total_hits, 2u);
  EXPECT_EQ(c->window_hits, 0u);
  EXPECT_FALSE(ldg_.RecordHit("/nope.html"));
}

TEST_F(LdgTest, MigrationMarksLinkFromDirty) {
  // Paper Figure 2: after D migrates, B and E (its LinkFrom) are dirty.
  ASSERT_TRUE(ldg_.SetLocation("/D.html", coop_).ok());
  EXPECT_TRUE(ldg_.Lookup("/B.html")->dirty);
  EXPECT_TRUE(ldg_.Lookup("/E.html")->dirty);
  EXPECT_FALSE(ldg_.Lookup("/A.html")->dirty);
  EXPECT_EQ(ldg_.Lookup("/D.html")->location, coop_);
}

TEST_F(LdgTest, SetLocationSamePlaceIsNoop) {
  ASSERT_TRUE(ldg_.SetLocation("/D.html", home_).ok());
  EXPECT_FALSE(ldg_.Lookup("/B.html")->dirty);
}

TEST_F(LdgTest, StatsReflectGraph) {
  ASSERT_TRUE(ldg_.SetLocation("/D.html", coop_).ok());
  auto stats = ldg_.GetStats();
  EXPECT_EQ(stats.documents, 5u);
  EXPECT_EQ(stats.html_documents, 5u);
  EXPECT_EQ(stats.links, 4u);
  EXPECT_EQ(stats.entry_points, 2u);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_EQ(stats.dirty, 2u);
}

TEST_F(LdgTest, AddDocumentWiresLinks) {
  storage::DocumentPtr doc =
      store_.Put(MakeDoc("/F.html", "<a href=\"C.html\">c</a>"));
  ASSERT_TRUE(ldg_.AddDocument(*doc, home_, false).ok());
  auto c = ldg_.Lookup("/C.html");
  EXPECT_TRUE(std::find(c->link_from.begin(), c->link_from.end(),
                        "/F.html") != c->link_from.end());
  EXPECT_TRUE(
      ldg_.AddDocument(*doc, home_, false).code() ==
      StatusCode::kAlreadyExists);
}

TEST_F(LdgTest, UpdateContentRewiresLinks) {
  // B stops pointing at D, now points at C.
  storage::DocumentPtr doc =
      store_.Put(MakeDoc("/B.html", "<a href=\"C.html\">c</a>"));
  ASSERT_TRUE(ldg_.UpdateContent("/B.html", *doc).ok());

  auto d = ldg_.Lookup("/D.html");
  EXPECT_EQ(d->link_from, std::vector<std::string>{"/E.html"});
  auto c = ldg_.Lookup("/C.html");
  EXPECT_TRUE(std::find(c->link_from.begin(), c->link_from.end(),
                        "/B.html") != c->link_from.end());
  EXPECT_TRUE(ldg_.Lookup("/B.html")->dirty);
}

TEST_F(LdgTest, LinksToMissingDocumentsDropped) {
  DocumentStore store;
  store.Put(MakeDoc("/x.html", "<a href=\"ghost.html\">g</a>"));
  LocalDocumentGraph ldg;
  ASSERT_TRUE(ldg.Build(store, home_, {}).ok());
  EXPECT_TRUE(ldg.Lookup("/x.html")->link_to.empty());
}

TEST_F(LdgTest, ExtractInternalTargetsDedupes) {
  storage::StoredDocument doc(
      "/m.html",
      "<a href=\"x.html\">1</a><a href=\"x.html\">2</a>"
      "<img src=\"x.html\">"
      "<a href=\"http://other:80/y.html\">ext</a>"
      "<a href=\"m.html\">self</a>",
      "text/html");
  auto targets = graph::ExtractInternalTargets(doc);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], "/x.html");
}

TEST_F(LdgTest, NonHtmlHasNoLinks) {
  storage::StoredDocument doc("/i.gif", "<a href=\"x.html\">not parsed</a>",
                              "image/gif");
  EXPECT_TRUE(graph::ExtractInternalTargets(doc).empty());
}

}  // namespace
}  // namespace dcws
