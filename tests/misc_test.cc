// Odds-and-ends coverage: table printer, Table-1 formatting, the
// /.dcws/status text summary, request traces, and pacing updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/core/cluster.h"
#include "src/core/server_params.h"
#include "src/metrics/table_printer.h"
#include "src/util/string_util.h"
#include "src/workload/site.h"

namespace dcws {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  metrics::TablePrinter table({"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a-much-longer-name", "23456"});
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  // Each line is equally wide (padded).
  auto lines = Split(text, '\n');
  EXPECT_EQ(Trim(lines[0]).substr(0, 4), "name");
  EXPECT_NE(lines[1].find("---"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  metrics::TablePrinter table({"a", "b", "c"});
  table.AddRow({"only-one"});
  std::ostringstream out;
  table.Print(out);  // must not crash; missing cells render empty
  EXPECT_NE(out.str().find("only-one"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(metrics::TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(metrics::TablePrinter::Num(1000, 0), "1000");
}

TEST(ServerParamsTest, Table1FormatMatchesPaperValues) {
  core::ServerParams params;
  std::string table = core::FormatTable1(params);
  EXPECT_NE(table.find("(N_fe):            1\n"), std::string::npos);
  EXPECT_NE(table.find("(N_pi):               1\n"), std::string::npos);
  EXPECT_NE(table.find("(N_wk):               12"), std::string::npos);
  EXPECT_NE(table.find("(L_sq):                    100"),
            std::string::npos);
  EXPECT_NE(table.find("(T_st):     10 seconds"), std::string::npos);
  EXPECT_NE(table.find("(T_pi):      20 seconds"), std::string::npos);
  EXPECT_NE(table.find("(T_val):    120 seconds"), std::string::npos);
  EXPECT_NE(table.find("(T_home):  300 seconds"), std::string::npos);
  EXPECT_NE(table.find("(T_coop): 60 seconds"), std::string::npos);
}

class MiscServerTest : public ::testing::Test {
 protected:
  MiscServerTest() : clock_(Seconds(1)) {
    core::ServerParams params;
    params.hit_threshold = 1;
    cluster_ = std::make_unique<core::Cluster>(2, params, &clock_);
    workload::SyntheticConfig config;
    config.pages = 10;
    config.images = 4;
    Rng rng(2);
    site_ = workload::BuildSynthetic(config, rng);
    EXPECT_TRUE(cluster_->server(0)
                    .LoadSite(site_.documents, site_.entry_points)
                    .ok());
  }

  http::Request Get(const std::string& target) {
    http::Request req;
    req.target = target;
    return req;
  }

  ManualClock clock_;
  workload::SiteSpec site_;
  std::unique_ptr<core::Cluster> cluster_;
};

TEST_F(MiscServerTest, StatusEndpointSummarizesState) {
  core::Server& server = cluster_->server(0);
  server.HandleRequest(Get("/site/page0.html"), &cluster_->network());
  http::Response status =
      server.HandleRequest(Get("/.dcws/status"), &cluster_->network());
  ASSERT_EQ(status.status_code, 200);
  EXPECT_NE(status.body.find("\ndcws_documents 14\n"), std::string::npos)
      << status.body;
  // The text format ends with the GLT rows and their ages.
  size_t glt = status.body.find("global load table:\n");
  ASSERT_NE(glt, std::string::npos) << status.body;
  EXPECT_NE(status.body.find("  server1:8001 = ", glt), std::string::npos);
  EXPECT_NE(status.body.find("  server2:8002 = 0 (never heard)\n", glt),
            std::string::npos)
      << status.body;
}

TEST_F(MiscServerTest, RequestTargetsAreNormalized) {
  core::Server& server = cluster_->server(0);
  http::Response resp = server.HandleRequest(
      Get("/site/../site/./page0.html"), &cluster_->network());
  EXPECT_EQ(resp.status_code, 200);
}

TEST_F(MiscServerTest, TraceReportsRegeneration) {
  core::Server& server = cluster_->server(0);
  // Move a page so a dependent becomes dirty.
  std::string victim = "/site/page3.html";
  ASSERT_TRUE(server.ldg()
                  .SetLocation(victim, cluster_->server(1).address())
                  .ok());
  std::string parent;
  for (const auto& record : server.ldg().Snapshot()) {
    if (record.dirty) parent = record.name;
  }
  if (parent.empty()) GTEST_SKIP() << "no inbound links to " << victim;

  core::RequestTrace trace;
  http::Response resp = server.HandleRequest(Get(parent),
                                             &cluster_->network(), &trace);
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_TRUE(trace.regenerated);
  EXPECT_FALSE(trace.internal);
}

TEST_F(MiscServerTest, SetPacingTakesEffect) {
  core::Server& server = cluster_->server(0);
  cluster_->TickAll();  // anchor
  server.SetPacing(Seconds(1), Seconds(1), Seconds(2));
  // Generate load and tick at 1 s cadence: migrations may now occur
  // every second instead of every 10 s.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      server.HandleRequest(Get("/site/page1.html"), &cluster_->network());
    }
    clock_.Advance(Seconds(1));
    cluster_->TickAll();
  }
  EXPECT_GE(server.counters().migrations, 2u)
      << "accelerated pacing should migrate faster than T_st=10s";
}

TEST_F(MiscServerTest, HumanBytesUsedByStatusAreStable) {
  EXPECT_EQ(HumanBytes(0), "0.0 B");
  EXPECT_EQ(HumanBytes(1024.0 * 1024 * 1024 * 3), "3.0 GB");
}

}  // namespace
}  // namespace dcws
