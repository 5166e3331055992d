// Report writer round-trip: the JSON every bench persists must parse
// back through sim/json.hpp and carry the tables, scalars, histogram
// percentiles and metric dump intact; write() must produce the three
// uniform artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "core/report.hpp"

namespace fabsim::core {
namespace {

Report sample_report() {
  Report report("unit_report");
  report.add_note("first note with \"quotes\"");
  report.add_note("second note");
  report.add_scalar("latency (paper)", 6.7, "us");
  report.add_scalar("broken", std::numeric_limits<double>::quiet_NaN());

  Table table("latency vs size", "msg_bytes", {"iWARP", "IB"});
  table.add_row(64, {6.7, 4.4});
  table.add_row(1024, {9.1, 5.2});
  table.add_row(0.01, {1.0, 2.0});  // fractional x (loss-rate style)
  report.add_table(table);

  Histogram h;
  for (int i = 1; i <= 200; ++i) h.add(static_cast<double>(i) / 10.0);
  report.add_histogram("iwarp.latency_us", h);
  Histogram empty;
  report.add_histogram("skipped", empty);

  MetricRegistry registry;
  registry.counter("iwarp.node0.retransmits").add(3);
  registry.gauge("mx.node0.posted_depth").set(5.0);
  registry.charge_phase(Phase::kWire, 0, us(42));
  report.add_metrics(registry, "probe.");
  return report;
}

TEST(Report, JsonRoundTripsThroughMinijson) {
  const Report report = sample_report();
  minijson::Value doc = minijson::parse(report.json());  // throws if malformed

  EXPECT_EQ(doc.at("benchmark").as_string(), "unit_report");
  ASSERT_EQ(doc.at("notes").as_array().size(), 2u);
  EXPECT_EQ(doc.at("notes").as_array()[0].as_string(), "first note with \"quotes\"");

  EXPECT_DOUBLE_EQ(doc.at("scalars").at("latency (paper)").as_number(), 6.7);
  EXPECT_TRUE(doc.at("scalars").at("broken").is_null()) << "NaN must become JSON null";

  const auto& tables = doc.at("tables").as_array();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].at("title").as_string(), "latency vs size");
  EXPECT_EQ(tables[0].at("series").as_array()[1].as_string(), "IB");
  const auto& rows = tables[0].at("rows").as_array();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[1].as_array()[0].as_number(), 1024.0);
  EXPECT_DOUBLE_EQ(rows[1].as_array()[2].as_number(), 5.2);
  EXPECT_DOUBLE_EQ(rows[2].as_array()[0].as_number(), 0.01);

  // The acceptance contract: p50 and p99 present and numeric.
  const auto& hist = doc.at("histograms").at("iwarp.latency_us");
  EXPECT_EQ(hist.at("n").as_number(), 200.0);
  EXPECT_GT(hist.at("p50").as_number(), 0.0);
  EXPECT_GE(hist.at("p99").as_number(), hist.at("p50").as_number());
  EXPECT_GT(hist.at("buckets").as_array().size(), 0u);
  EXPECT_FALSE(doc.at("histograms").has("skipped")) << "empty histograms are dropped";

  EXPECT_DOUBLE_EQ(doc.at("metrics").at("probe.iwarp.node0.retransmits").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("metrics").at("probe.mx.node0.posted_depth.max").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(doc.at("metrics").at("probe.phase.wire.us").as_number(), 42.0);
}

TEST(Report, EmptyReportIsStillValidJson) {
  minijson::Value doc = minijson::parse(Report("empty").json());
  EXPECT_TRUE(doc.at("tables").as_array().empty());
  EXPECT_TRUE(doc.at("histograms").as_object().empty());
  EXPECT_TRUE(doc.at("metrics").as_object().empty());
}

TEST(Report, WriteEmitsAllThreeArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "fabsim_report_test";
  std::filesystem::remove_all(dir);
  const Report report = sample_report();
  ASSERT_TRUE(report.write(dir.string()));
  for (const char* ext : {".txt", ".json"}) {
    const auto path = dir / ("unit_report" + std::string(ext));
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
  }
  EXPECT_FALSE(std::filesystem::exists(dir / "unit_report.csv")) << "the .json carries the tables";

  // The .txt must carry the table and the fractional x unmangled.
  std::FILE* f = std::fopen((dir / "unit_report.txt").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  EXPECT_NE(text.find("latency vs size"), std::string::npos);
  EXPECT_NE(text.find("0.01"), std::string::npos) << "fractional x must not print as 0";
  EXPECT_NE(text.find("## metrics"), std::string::npos);

  // And the persisted JSON parses on its own.
  std::FILE* jf = std::fopen((dir / "unit_report.json").c_str(), "rb");
  ASSERT_NE(jf, nullptr);
  std::string jtext;
  while ((n = std::fread(buf, 1, sizeof(buf), jf)) > 0) jtext.append(buf, n);
  std::fclose(jf);
  EXPECT_NO_THROW(minijson::parse(jtext));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fabsim::core
