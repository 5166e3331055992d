// Chrome-trace export validated end to end: a small fig3-style MPI
// ping-pong run on iWARP with the tracer attached, exported with
// chrome_trace_json(), then parsed back through sim/json.hpp and checked
// against the Trace Event Format contract (what chrome://tracing and
// Perfetto actually require).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "core/cluster.hpp"
#include "sim/json.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"

namespace fabsim {
namespace {

// One ping-pong iteration at fig3's probe size, tracer attached.
void run_fig3_style(Tracer& tracer) {
  core::Cluster cluster(2, core::Network::kIwarp);
  cluster.engine().set_tracer(&tracer);
  const std::uint32_t len = 1024;
  auto& b0 = cluster.node(0).mem().alloc(len, false);
  auto& b1 = cluster.node(1).mem().alloc(len, false);
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t b, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(0).send(1, 1, b, n);
    co_await c.mpi_rank(0).recv(1, 2, b, n);
  }(cluster, b0.addr(), len));
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t b, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(1).recv(0, 1, b, n);
    co_await c.mpi_rank(1).send(0, 2, b, n);
  }(cluster, b1.addr(), len));
  cluster.engine().run();
}

TEST(TraceExport, Fig3RunProducesValidChromeTrace) {
  Tracer tracer;
  run_fig3_style(tracer);
  ASSERT_GT(tracer.entries().size(), 0u) << "the run must have emitted events";

  const std::string text = chrome_trace_json(tracer);
  minijson::Value doc = minijson::parse(text);  // throws on malformed JSON

  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), tracer.entries().size()) << "events + metadata";

  std::set<double> named_pids;
  std::size_t instants = 0;
  const std::set<std::string> known_cats = {"host", "nic", "wire", "proto"};
  double last_ts = -1.0;
  for (const minijson::Value& e : events) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "process_name");
      named_pids.insert(e.at("pid").as_number());
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").as_string(), "t") << "thread-scoped instant";
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      EXPECT_GE(e.at("ts").as_number(), last_ts) << "instants must be time-ordered";
      last_ts = e.at("ts").as_number();
      EXPECT_TRUE(known_cats.count(e.at("cat").as_string()))
          << "unknown category " << e.at("cat").as_string();
      EXPECT_TRUE(e.has("pid"));
      EXPECT_TRUE(e.has("tid"));
      EXPECT_FALSE(e.at("name").as_string().empty());
    } else {
      ADD_FAILURE() << "only metadata and instant events are emitted, not " << ph;
    }
  }
  EXPECT_EQ(instants, tracer.entries().size()) << "every trace entry exports";
  // Both simulated nodes appear as named processes.
  EXPECT_TRUE(named_pids.count(0.0));
  EXPECT_TRUE(named_pids.count(1.0));
}

TEST(TraceExport, LabelsAreEscaped) {
  Tracer tracer;
  tracer.emit(us(1), TraceCategory::kProto, 0, "weird \"label\"\twith\nescapes\\");
  // parse() throwing would mean broken escaping.
  minijson::Value doc = minijson::parse(chrome_trace_json(tracer));
  bool found = false;
  for (const minijson::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "i") continue;
    EXPECT_EQ(e.at("name").as_string(), "weird \"label\"\twith\nescapes\\");
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceExport, WriteChromeTraceCreatesParseableFile) {
  Tracer tracer;
  run_fig3_style(tracer);

  const std::string path =
      (std::filesystem::temp_directory_path() / "fabsim_trace_export_test.json").string();
  ASSERT_TRUE(write_chrome_trace(path, tracer));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::filesystem::remove(path);

  minijson::Value doc = minijson::parse(text);
  EXPECT_GT(doc.at("traceEvents").as_array().size(), 0u);
}

}  // namespace
}  // namespace fabsim
