#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/ldg.h"
#include "src/storage/document_store.h"

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
  EXPECT_EQ((*doc)->content, "<p>a</p>");
  EXPECT_EQ((*doc)->content_type, "text/html");

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
  EXPECT_EQ(first->content, "first");
  EXPECT_EQ(store.Get("/a.gif").value(), second);

  ASSERT_TRUE(store.Remove("/a.gif").ok());
  EXPECT_FALSE(store.Contains("/a.gif"));
  EXPECT_EQ(first->content, "first");
  EXPECT_EQ(second->content, "second");
  EXPECT_EQ(second->path, "/a.gif");
  EXPECT_EQ(store.TotalBytes(), 0u);
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
  auto doc = MakeDoc("/F.html", "<a href=\"C.html\">c</a>");
  store_.Put(doc);
  ASSERT_TRUE(ldg_.AddDocument(doc, home_, false).ok());
  auto c = ldg_.Lookup("/C.html");
  EXPECT_TRUE(std::find(c->link_from.begin(), c->link_from.end(),
                        "/F.html") != c->link_from.end());
  EXPECT_TRUE(
      ldg_.AddDocument(doc, home_, false).code() ==
      StatusCode::kAlreadyExists);
}

TEST_F(LdgTest, UpdateContentRewiresLinks) {
  // B stops pointing at D, now points at C.
  auto doc = MakeDoc("/B.html", "<a href=\"C.html\">c</a>");
  store_.Put(doc);
  ASSERT_TRUE(ldg_.UpdateContent("/B.html", doc).ok());

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
  auto doc = MakeDoc("/m.html",
                     "<a href=\"x.html\">1</a><a href=\"x.html\">2</a>"
                     "<img src=\"x.html\">"
                     "<a href=\"http://other:80/y.html\">ext</a>"
                     "<a href=\"m.html\">self</a>");
  auto targets = graph::ExtractInternalTargets(doc);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], "/x.html");
}

TEST_F(LdgTest, NonHtmlHasNoLinks) {
  auto doc = MakeDoc("/i.gif", "<a href=\"x.html\">not parsed</a>");
  EXPECT_TRUE(graph::ExtractInternalTargets(doc).empty());
}

}  // namespace
}  // namespace dcws
