// Report writer round-trip: the JSON every bench persists must parse
// back through sim/json.hpp and carry the tables, scalars, histogram
// percentiles and metric dump intact; write() must produce the two
// uniform artifacts. The bench harness must parse exactly the command
// lines a bench declares and name its report by mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/bench.hpp"
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
  registry.charge_phase(Phase::kWire, us(42));
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

std::string read_file(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(Report, CountersAreExactIntegers) {
  // A sim.digest uses all 64 bits; as a double it would print rounded.
  MetricRegistry registry;
  registry.counter("sim.digest").set(0xcbf29ce484222325ull);
  registry.gauge("queue.depth").set(2.5);
  Report report("exact_counters");
  report.add_metrics(registry, "iWARP.");

  EXPECT_NE(report.json().find("\"iWARP.sim.digest\": 14695981039346656037"), std::string::npos)
      << report.json();
  EXPECT_NE(report.json().find("\"iWARP.queue.depth.max\": 2.5"), std::string::npos);

  const auto dir = std::filesystem::temp_directory_path() / "fabsim_report_exact";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(report.write(dir.string()));
  const std::string text = read_file(dir / "exact_counters.txt");
  EXPECT_NE(text.find(" 14695981039346656037\n"), std::string::npos) << text;
  EXPECT_NE(text.find(" 2.500\n"), std::string::npos) << "gauges keep their format";
  std::filesystem::remove_all(dir);
}

/// argv for Bench::parse: the program name, then `args`.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "bench");
    for (const std::string& a : strings) pointers.push_back(a.c_str());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  const char* const* argv() const { return pointers.data(); }
  std::vector<std::string> strings;
  std::vector<const char*> pointers;
};

bool parses(const BenchArgs& accepts, std::vector<std::string> args, bool* quick = nullptr) {
  const Argv argv(std::move(args));
  bool q = false;
  const bool ok = Bench::parse(accepts, argv.argc(), argv.argv(), q);
  if (quick != nullptr) *quick = q;
  return ok;
}

TEST(Bench, AcceptsQuickOnlyWhereDeclared) {
  bool quick = true;
  EXPECT_TRUE(parses({}, {}, &quick));
  EXPECT_FALSE(quick);
  EXPECT_FALSE(parses({}, {"quick"}));
  EXPECT_TRUE(parses({.quick = true}, {"quick"}, &quick));
  EXPECT_TRUE(quick);
  EXPECT_TRUE(parses({.quick = true}, {}, &quick));
  EXPECT_FALSE(quick);
}

TEST(Bench, RejectsAnythingUndeclared) {
  EXPECT_FALSE(parses({.quick = true}, {"--full"}));
  EXPECT_FALSE(parses({.quick = true}, {"quick", "extra"}));
  EXPECT_FALSE(parses({.quick = true}, {"--quick"}));
  EXPECT_FALSE(parses({}, {""}));
}

TEST(Bench, NumberOptionTakesOneDecimalNumber) {
  std::uint64_t seed = 7;
  const BenchArgs accepts{.quick = true, .options = {number_option("--seed", seed)}};
  EXPECT_FALSE(parses(accepts, {"quick", "--seed"})) << "a missing number is a usage error";
  for (const char* bad : {"", "8x", "x8", "-1", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parses(accepts, {"--seed", bad})) << bad;
  }
  EXPECT_EQ(seed, 7u) << "a rejected value is not stored";
  bool quick = false;
  EXPECT_TRUE(parses(accepts, {"--seed", "8", "quick"}, &quick));
  EXPECT_EQ(seed, 8u);
  EXPECT_TRUE(quick);

  std::uint32_t narrow = 0;
  EXPECT_FALSE(parses({.options = {number_option("--branch", narrow)}}, {"--branch", "4294967296"}))
      << "a number must fit its target";

  std::optional<std::uint64_t> budget;
  const BenchArgs optional{.options = {number_option("--budget", budget)}};
  EXPECT_TRUE(parses(optional, {}));
  EXPECT_FALSE(budget.has_value()) << "an absent option stays unset";
  EXPECT_TRUE(parses(optional, {"--budget", "0"}));
  EXPECT_EQ(budget, 0u);
}

TEST(Bench, TextAndSwitchOptions) {
  std::string out = "results";
  bool reduction = true;
  const BenchArgs accepts{.options = {text_option("--out", "DIR", out),
                                      {"--no-reduction", "", [&reduction](const std::string&) {
                                         reduction = false;
                                         return true;
                                       }}}};
  EXPECT_FALSE(parses(accepts, {"--out"}));
  EXPECT_TRUE(parses(accepts, {"--no-reduction", "--out", "quick"}));
  EXPECT_EQ(out, "quick") << "an option's value is never read as a flag";
  EXPECT_FALSE(reduction);
  EXPECT_EQ(Bench::usage("ext_x", accepts), "usage: ext_x [--out DIR] [--no-reduction]");
  EXPECT_EQ(Bench::usage("fig1", {}), "usage: fig1");
  std::uint64_t seed = 0;
  EXPECT_EQ(Bench::usage("ext_chaos", {.quick = true, .options = {number_option("--seed", seed)}}),
            "usage: ext_chaos [quick] [--seed N]");
}

TEST(Bench, NamesReportsByMode) {
  const Argv full({});
  const Argv quick({"quick"});
  const Bench full_run("ext_chaos", full.argc(), full.argv(), {.quick = true});
  const Bench quick_run("ext_chaos", quick.argc(), quick.argv(), {.quick = true});
  EXPECT_EQ(full_run.report_name(), "ext_chaos");
  EXPECT_EQ(quick_run.report_name(), "ext_chaos_quick");
  EXPECT_EQ(full_run.report_name("seed8"), "ext_chaos_seed8");
  EXPECT_EQ(quick_run.report_name("seed8"), "ext_chaos_quick_seed8");
}

TEST(Bench, FinishFailsWhenAnArtifactCannotBeWritten) {
  const Argv none({});
  const Bench bench("unit_bench", none.argc(), none.argv());
  const auto dir = std::filesystem::temp_directory_path() / "fabsim_bench_finish";
  std::filesystem::remove_all(dir);
  const Report report(bench.report_name());
  EXPECT_EQ(bench.finish(report, 0, dir.string()), 0);
  EXPECT_EQ(bench.finish(report, 3, dir.string()), 3) << "the bench's own status passes through";
  EXPECT_EQ(read_file(dir / "unit_bench.txt").rfind("# unit_bench\n", 0), 0u);

  // A regular file where the results directory should be.
  const auto blocked = dir / "blocked";
  std::FILE* f = std::fopen(blocked.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_EQ(bench.finish(report, 0, blocked.string()), 1);
  EXPECT_EQ(bench.finish(report, 3, blocked.string()), 3);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fabsim::core
