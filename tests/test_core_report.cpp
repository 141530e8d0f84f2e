// HTML report exporter tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/report.hpp"
#include "helpers.hpp"

namespace dv::core {
namespace {

ProjectionSpec small_spec() {
  return SpecBuilder()
      .level(Entity::kGlobalLink)
      .aggregate({"router_rank"})
      .color("sat_time")
      .size("traffic")
      .ribbons(Entity::kLocalLink, "router_rank")
      .build();
}

TEST(Report, ContainsAllSections) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  const ProjectionView view(data, small_spec());

  ReportBuilder report("Mixed workload analysis");
  report.note("Setup", "Two jobs on a p=2 dragonfly with <tags> & quotes")
      .run_summary(data)
      .projection(view, "Global link load by rank");

  const std::string html = report.html();
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("Mixed workload analysis"), std::string::npos);
  EXPECT_NE(html.find("&lt;tags&gt; &amp; quotes"), std::string::npos);  // escaped
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("projection spec"), std::string::npos);
  EXPECT_NE(html.find("ribbons"), std::string::npos);  // embedded script
  EXPECT_NE(html.find("dragonfly g=9"), std::string::npos);
}

TEST(Report, EmbedsDetailAndTimeline) {
  const auto mini = dv::testing::make_mini_run();
  const DataSet data(mini.run);
  DetailView detail(data);
  TimelineView timeline(data);
  ReportBuilder report("Session export");
  report.detail(detail, "Link scatters and terminal parallel coordinates")
      .timeline(timeline, "Traffic and saturation over time");
  const std::string html = report.html();
  EXPECT_NE(html.find("parallel coordinates"), std::string::npos);
  EXPECT_NE(html.find("Network link traffic"), std::string::npos);
  // Two figures embedded.
  std::size_t figures = 0;
  for (std::size_t pos = html.find("<figure>"); pos != std::string::npos;
       pos = html.find("<figure>", pos + 1)) {
    ++figures;
  }
  EXPECT_EQ(figures, 2u);
}

TEST(Report, ComparisonTableAndSave) {
  const auto a = dv::testing::make_mini_run(routing::Algo::kMinimal);
  const auto b = dv::testing::make_mini_run(routing::Algo::kAdaptive);
  const DataSet da(a.run), db(b.run);
  const ComparisonView cmp({&da, &db}, small_spec(),
                           {"Minimal", "Adaptive"});
  ReportBuilder report("Routing comparison");
  report.comparison(cmp, "Minimal vs adaptive under shared scales");
  const std::string html = report.html();
  EXPECT_NE(html.find("Minimal"), std::string::npos);
  EXPECT_NE(html.find("nn_job"), std::string::npos);
  EXPECT_NE(html.find("avg latency"), std::string::npos);

  const auto path =
      (dv::testing::test_temp_dir() / "dv_report_test.html")
          .string();
  report.save(path);
  EXPECT_GT(std::filesystem::file_size(path), 2000u);
  std::filesystem::remove(path);
  EXPECT_THROW(report.save("/nonexistent/dir/report.html"), Error);
}

}  // namespace
}  // namespace dv::core
