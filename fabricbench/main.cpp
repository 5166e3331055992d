// FabricBench main program: runs one workload for a fixed host-time budget,
// checks every output, and prints one JSON record with provenance and
// every metric the run produced (README.md defines them).
//
//   fabricbench --workload <headline|allreduce_clos|incast_lossy> --seed N
//               --seconds S --trace 0|1 --expected FILE
//               [--trace-out FILE] [--commit SHA] [--corrupt-expected]
//               [--print-expected]
//
// A run repeats *cycles* until S seconds have passed (at least
// kMinCycles). A cycle runs every network's cell once untraced and, with
// --trace 1, once more traced. Each network's times come from its fastest
// cycle; totals are sums over networks.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/cluster.hpp"
#include "sim/json.hpp"

#ifndef FABRICBENCH_BUILD_TYPE
#define FABRICBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FABRICBENCH_COMPILER
#define FABRICBENCH_COMPILER "unknown"
#endif

namespace fabricbench {

void read_traced(core::Cluster& cluster, const Profiler& profiler, Cell& cell) {
  cluster.collect_metrics(cell.counters);
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  cell.profiled = true;
  cell.dispatch_ns_per_event = per(profiler.sampled_dispatch_ns(), profiler.sampled_dispatches());
  cell.heap_ops_per_event = per(profiler.heapify_cost(), profiler.pops());
  cell.queue_peak_depth = static_cast<double>(profiler.peak_depth());
  cell.queue_allocs_per_event = profiler.allocs_per_event();
}

// --- spans ----------------------------------------------------------------

int SpanLog::open(const char* name, int parent, std::uint64_t op) {
  spans_.push_back(Span{name, now_s(), 0.0, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_s = now_s();
  return span.end_s - span.start_s;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n\"traceEvents\": [\n");
  std::fprintf(f,
               "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
               "\"args\": {\"name\": \"fabricbench (host)\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n  {\"name\": \"%s\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 0, "
                 "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %" PRIu64 "}}",
                 s.name, (s.start_s - epoch_s_) * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                 s.op);
  }
  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ns\"\n}\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr int kMinCycles = 3;

/// Lower-case network id used in metric names.
const char* net_id(core::Network net) {
  switch (net) {
    case core::Network::kIwarp: return "iwarp";
    case core::Network::kIb: return "ib";
    case core::Network::kMxoe: return "mxoe";
    case core::Network::kMxom: return "mxom";
  }
  return "?";
}

struct Options {
  std::string workload;
  RunParams params;
  double seconds = 0;
  bool trace = false;
  std::string expected_path;
  std::string trace_out;
  std::string commit = "unknown";
  bool print_expected = false;  ///< print this build's outputs instead of checking them
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fabricbench: %s\nusage: fabricbench --workload W --seed N --seconds S "
               "--trace 0|1 --expected FILE [--trace-out FILE] [--commit SHA] "
               "[--corrupt-expected] [--print-expected]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.params.seed = std::stoull(value()), have_seed = true;
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--expected") o.expected_path = value();
    else if (arg == "--trace-out") o.trace_out = value();
    else if (arg == "--commit") o.commit = value();
    else if (arg == "--corrupt-expected") o.params.corrupt_expected = true;
    else if (arg == "--print-expected") o.print_expected = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (o.workload.empty() || !have_seed || o.expected_path.empty()) usage("missing arguments");
  return o;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload* w : {&kHeadline, &kAllreduceClos, &kIncastLossy}) {
    if (name == w->name) return w;
  }
  return nullptr;
}

/// The recorded outputs a run is checked against (expected.json).
struct Expected {
  std::uint64_t default_seed = 1;
  std::map<std::string, double> values;        ///< headline runner outputs
  std::map<std::string, std::uint64_t> digest;  ///< per network, at the default seed
};

Expected load_expected(const std::string& path, const std::string& workload, bool corrupt) {
  std::ifstream file(path);
  if (!file) usage(("cannot read " + path).c_str());
  std::stringstream text;
  text << file.rdbuf();
  const fabsim::minijson::Value doc = fabsim::minijson::parse(text.str());
  Expected e;
  e.default_seed = static_cast<std::uint64_t>(doc.at("default_seed").as_number());
  if (!doc.has(workload)) return e;
  const auto& w = doc.at(workload);
  if (w.has("values")) {
    for (const auto& [key, v] : w.at("values").as_object()) e.values[key] = v.as_number();
  }
  if (w.has("digests")) {
    for (const auto& [net, v] : w.at("digests").as_object()) {
      e.digest[net] = std::stoull(v.as_string(), nullptr, 16);
    }
  }
  // Negative self-test: one corrupted expectation must surface in
  // ops_failed (the allreduce and incast cells corrupt their own).
  if (corrupt && !e.values.empty()) e.values.begin()->second *= 1.01;
  return e;
}

struct Cycle {
  std::vector<Cell> untraced, traced;
};

double sum_of(const std::vector<Cell>& cells, double Cell::*field) {
  double total = 0;
  for (const Cell& c : cells) total += c.*field;
  return total;
}

// Contention from other tenants of a shared host only ever adds time and
// arrives in bursts of seconds, so the fastest repetition is the
// steadiest estimate of the code's own cost (README.md, Estimator).

/// Network `net`'s cell with the smallest `field` over every cycle of one
/// pass.
const Cell& fastest_cell(const std::vector<Cycle>& cycles, std::size_t net,
                         double Cell::*field, bool traced) {
  const Cell* best = nullptr;
  for (const Cycle& cycle : cycles) {
    const Cell& cell = (traced ? cycle.traced : cycle.untraced)[net];
    if (best == nullptr || cell.*field < (*best).*field) best = &cell;
  }
  return *best;
}

/// Network `net`'s run time: every part of the run window (a runner call,
/// a placement, a round, the teardown) at its fastest over the cycles of
/// one pass, summed.
double fastest_run_s(const std::vector<Cycle>& cycles, std::size_t net, bool traced) {
  std::vector<double> best;
  for (const Cycle& cycle : cycles) {
    const std::vector<double>& parts = (traced ? cycle.traced : cycle.untraced)[net].run_parts;
    if (best.empty()) best = parts;
    for (std::size_t p = 0; p < best.size(); ++p) best[p] = std::min(best[p], parts.at(p));
  }
  return std::accumulate(best.begin(), best.end(), 0.0);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sum of every counter named <prefix>...<suffix> (per node / per port).
double counter_sum(const MetricRegistry& r, const std::string& prefix, const std::string& suffix) {
  double total = 0;
  for (const auto& [name, c] : r.counters()) {
    if (name.size() > prefix.size() + suffix.size() && name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(c.value());
    }
  }
  return total;
}

double gauge_max(const MetricRegistry& r, const std::string& prefix, const std::string& suffix) {
  double best = 0;
  for (const auto& [name, g] : r.gauges()) {
    if (name.size() > prefix.size() + suffix.size() && name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      best = std::max(best, g.max());
    }
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Outcome of the output checks over every cell of the run.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::uint64_t> digests;  ///< per network
};

/// Ops fail in the cells (error completions, wrong reduced vectors or
/// placed bytes). Here a headline value that differs from the recorded
/// one fails its op, and a network whose digest differs between cycles,
/// between the untraced and traced passes, or (at the default seed) from
/// the recorded digest fails every op of its cells.
Verdict check_outputs(const Workload& workload, const std::vector<Cycle>& cycles,
                      const Expected& expected, std::uint64_t seed) {
  Verdict v;
  const bool at_default_seed = !workload.uses_seed || seed == expected.default_seed;
  for (std::size_t n = 0; n < workload.nets.size(); ++n) {
    const std::string net = net_id(workload.nets[n]);
    const std::uint64_t digest = cycles.front().untraced[n].digest;
    v.digests[net] = digest;
    bool digest_ok = true;
    for (const Cycle& cycle : cycles) {
      for (const auto* cells : {&cycle.untraced, &cycle.traced}) {
        if (!cells->empty() && (*cells)[n].digest != digest) digest_ok = false;
      }
    }
    if (!digest_ok) v.problems.push_back(net + ": sim.digest differs between passes or cycles");
    if (at_default_seed) {
      const auto it = expected.digest.find(net);
      if (it == expected.digest.end() || it->second != digest) {
        digest_ok = false;
        v.problems.push_back(net + ": sim.digest " + hex(digest) +
                             " differs from the recorded one");
      }
    }
    for (const Cycle& cycle : cycles) {
      for (const auto* cells : {&cycle.untraced, &cycle.traced}) {
        if (cells->empty()) continue;
        const Cell& cell = (*cells)[n];
        v.attempted += cell.ops;
        std::uint64_t cell_failed = cell.ops_failed;
        for (const auto& [key, value] : cell.values) {
          const auto it = expected.values.find(key);
          if (it == expected.values.end() ||
              std::fabs(value - it->second) > 1e-9 * std::fabs(it->second)) {
            ++cell_failed;
            if (&cycle == &cycles.front() && cells == &cycle.untraced) {
              v.problems.push_back(std::string(key) + " differs from the recorded value");
            }
          }
        }
        v.failed += digest_ok ? std::min(cell_failed, cell.ops) : cell.ops;
      }
    }
  }
  if (v.failed > 0) {
    v.problems.push_back(std::to_string(v.failed) + " of " + std::to_string(v.attempted) +
                         " ops failed");
  }
  return v;
}

/// This build's outputs in expected.json's shape (run.py --record).
void print_expected(const Workload& workload, const Cycle& cycle) {
  std::printf("\"%s\": {", workload.name);
  if (!cycle.untraced.front().values.empty()) {
    std::printf("\n  \"values\": {");
    const char* sep = "";
    for (const Cell& cell : cycle.untraced) {
      for (const auto& [key, value] : cell.values) {
        std::printf("%s\n    \"%s\": %.17g", sep, key, value);
        sep = ",";
      }
    }
    std::printf("\n  },");
  }
  std::printf("\n  \"digests\": {");
  const char* sep = "";
  for (std::size_t n = 0; n < workload.nets.size(); ++n) {
    std::printf("%s\"%s\": \"%s\"", sep, net_id(workload.nets[n]),
                hex(cycle.untraced[n].digest).c_str());
    sep = ", ";
  }
  std::printf("}\n}\n");
}

class Metrics {
 public:
  void add(std::string name, double value, const char* unit) {
    list_.push_back(Metric{std::move(name), value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Per network: the reported times and the cells they come from (the
/// run cells also supply event and heap counts).
struct Fastest {
  std::vector<const Cell*> run, setup, build, traced;
  std::vector<double> run_s, traced_run_s;
};

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double total(const std::vector<const Cell*>& cells, double Cell::*field) {
  double sum = 0;
  for (const Cell* c : cells) sum += c->*field;
  return sum;
}

void add_end_to_end(const Workload& workload, const std::vector<Cycle>& cycles,
                    const Fastest& fastest, const Verdict& verdict, Metrics& m) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.add("setup_s", total(fastest.setup, &Cell::setup_s), "s");
  m.add("run_s", sum(fastest.run_s), "s");
  m.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  m.add("ops", static_cast<double>(verdict.attempted), "count");
  m.add("ops_failed", static_cast<double>(verdict.failed), "count");
  if (&workload == &kHeadline) {
    std::map<std::string, double> values;
    for (const Cell& cell : cycles.front().untraced) {
      for (const auto& [key, value] : cell.values) values[key] = value;
    }
    double err = 0;
    for (const PaperNumber& p : paper_numbers()) {
      const double measured = p.den != nullptr ? values[p.num] / values[p.den] : values[p.num];
      err += std::fabs(measured - p.paper) / p.paper * 100.0;
    }
    m.add("paper_err_pct", err / static_cast<double>(paper_numbers().size()), "%");
  }
}

void add_per_layer(const Workload& workload, const std::vector<Cycle>& cycles,
                   const Fastest& fastest, Metrics& m) {
  const double run_s = sum(fastest.run_s);
  double events = 0, run_heap_allocs = 0, run_heap_bytes = 0, setup_allocs = 0;
  for (const Cell* c : fastest.run) {
    events += static_cast<double>(c->run_events);
    run_heap_allocs += static_cast<double>(c->run_heap.allocs);
    run_heap_bytes += static_cast<double>(c->run_heap.bytes);
  }
  for (const Cell* c : fastest.setup) setup_allocs += static_cast<double>(c->setup_heap.allocs);

  // sim: engine work and host cost per event.
  m.add("sim.events", events, "count");
  m.add("sim.events_per_sec", ratio(events, run_s), "1/s");
  m.add("sim.host_ns_per_event", ratio(run_s * 1e9, events), "ns");
  m.add("sim.trace_overhead_pct", (ratio(sum(fastest.traced_run_s), run_s) - 1.0) * 100.0, "%");
  double sampled_events = 0, dispatch_ns = 0, heap_ops = 0, queue_allocs = 0, peak_depth = 0;
  for (const Cell* c : fastest.traced) {
    if (!c->profiled) continue;
    const auto ev = static_cast<double>(c->run_events);
    sampled_events += ev;
    dispatch_ns += c->dispatch_ns_per_event * ev;
    heap_ops += c->heap_ops_per_event * ev;
    queue_allocs += c->queue_allocs_per_event * ev;
    peak_depth = std::max(peak_depth, c->queue_peak_depth);
  }
  if (sampled_events > 0) m.add("sim.dispatch_ns_per_event", dispatch_ns / sampled_events, "ns");
  m.add("sim.heap_ops_per_event", ratio(heap_ops, sampled_events), "ops/event");
  m.add("sim.queue_peak_depth", peak_depth, "count");
  m.add("sim.queue_allocs_per_event", ratio(queue_allocs, sampled_events), "allocs/event");

  // heap: whole-process operator new traffic, from the untraced pass (the
  // traced pass's own span and profiler bookkeeping would count too).
  m.add("heap.allocs_per_event", ratio(run_heap_allocs, events), "allocs/event");
  m.add("heap.bytes_per_event", ratio(run_heap_bytes, events), "B/event");
  m.add("heap.setup_allocs", setup_allocs, "count");

  // core: cluster builds and (headline) runner calls.
  m.add("core.cluster_build_s", total(fastest.build, &Cell::build_s), "s");
  std::map<std::string, double> runner_s;
  for (const Cell* c : fastest.traced) {
    for (const auto& [span, s] : c->runner_s) runner_s[span] += s;
  }
  for (const auto& [span, s] : runner_s) m.add(span + "_s", s, "s");

  // Per-network shares of set-up and run; they sum to setup_s / run_s.
  double verbs_setup = 0, mpi_setup = 0, mpi_setup_events = 0;
  for (const Cell* c : fastest.setup) {
    m.add(std::string(net_id(c->net)) + ".setup_s", c->setup_s, "s");
    if (c->net == core::Network::kIwarp || c->net == core::Network::kIb) {
      verbs_setup += c->setup_s - c->build_s;
    }
    if (&workload == &kAllreduceClos) {
      mpi_setup += c->setup_s - c->build_s;
      mpi_setup_events += static_cast<double>(c->setup_events);
    }
  }
  for (std::size_t n = 0; n < fastest.run.size(); ++n) {
    const std::string net = net_id(fastest.run[n]->net);
    const double net_run_s = fastest.run_s[n];
    m.add(net + ".run_s", net_run_s, "s");
    m.add(net + ".host_ns_per_event",
          ratio(net_run_s * 1e9, static_cast<double>(fastest.run[n]->run_events)), "ns");
  }
  if (&workload != &kHeadline) m.add("verbs.setup_s", verbs_setup, "s");

  // mpi: set-up, rank-0 allreduce spans over every traced cycle, and the
  // exact protocol counts.
  MetricRegistry counters;
  for (const Cell* c : fastest.traced) {
    for (const auto& [name, counter] : c->counters.counters()) {
      counters.counter(name).add(counter.value());
    }
    for (const auto& [name, gauge] : c->counters.gauges()) {
      if (gauge.max() > counters.gauge_max(name)) counters.gauge(name).set(gauge.max());
    }
  }
  m.add("mpi.setup_events", mpi_setup_events, "count");
  if (&workload == &kAllreduceClos) {
    m.add("mpi.setup_s", mpi_setup, "s");
    std::vector<double> small, large;
    for (const Cycle& cycle : cycles) {
      for (const Cell& c : cycle.traced) {
        small.insert(small.end(), c.small_ms.begin(), c.small_ms.end());
        large.insert(large.end(), c.large_ms.begin(), c.large_ms.end());
      }
    }
    m.add("mpi.allreduce_small_host_ms.p50", percentile(small, 0.5), "ms");
    m.add("mpi.allreduce_small_host_ms.p90", percentile(small, 0.9), "ms");
    m.add("mpi.allreduce_large_host_ms.p50", percentile(large, 0.5), "ms");
    m.add("mpi.allreduce_large_host_ms.p90", percentile(large, 0.9), "ms");
  }
  m.add("mpi.eager_sends", counter_sum(counters, "mpi.", ".eager_sends"), "count");
  m.add("mpi.rndv_sends", counter_sum(counters, "mpi.", ".rndv_sends"), "count");
  const double pin_hits = counter_sum(counters, "mpi.", ".pin_hits");
  m.add("mpi.pin_hit_ratio",
        ratio(pin_hits, pin_hits + counter_sum(counters, "mpi.", ".pin_misses")), "ratio");
  m.add("mpi.unexpected_max_depth", gauge_max(counters, "mpi.", ".unexpected_max_depth"), "count");

  // Stacks: exact work and reliability counts.
  const double segs = counter_sum(counters, "iwarp.", ".segments_sent");
  const double iw_retx = counter_sum(counters, "iwarp.", ".retransmits");
  m.add("iwarp.segments_sent", segs, "count");
  m.add("iwarp.retransmits", iw_retx, "count");
  m.add("iwarp.rto_fires", counter_sum(counters, "iwarp.", ".rto_fires"), "count");
  m.add("iwarp.useful_ratio", segs > 0 ? (segs - iw_retx) / segs : 0.0, "ratio");
  const double ctx_miss = counter_sum(counters, "ib.", ".context_misses");
  m.add("ib.packets_sent", counter_sum(counters, "ib.", ".packets_sent"), "count");
  m.add("ib.retransmits", counter_sum(counters, "ib.", ".retransmits"), "count");
  m.add("ib.context_miss_ratio",
        ratio(ctx_miss, ctx_miss + counter_sum(counters, "ib.", ".context_hits")), "ratio");
  const double frames = counter_sum(counters, "mx.", ".frames_sent");
  const double resends = counter_sum(counters, "mx.", ".resends");
  const double reg_hits = counter_sum(counters, "mx.", ".reg_cache_hits");
  m.add("mx.frames_sent", frames, "count");
  m.add("mx.resends", resends, "count");
  m.add("mx.useful_ratio", frames > 0 ? (frames - resends) / frames : 0.0, "ratio");
  m.add("mx.reg_cache_hit_ratio",
        ratio(reg_hits, reg_hits + counter_sum(counters, "mx.", ".reg_cache_misses")), "ratio");

  // hw / topo: exact simulated work in the fabric and the hosts.
  m.add("switch.tail_drops", counter_sum(counters, "switch.", ".tail_drops"), "count");
  m.add("switch.credit_stalls", counter_sum(counters, "switch.", ".credit_stalls"), "count");
  m.add("switch.queue_bytes_max", gauge_max(counters, "switch.", ".queue_bytes"), "B");
  m.add("switch.busy_us", counter_sum(counters, "switch.", ".busy_us"), "us");
  m.add("hw.pcie_bytes",
        counter_sum(counters, "hw.", ".pcie_bytes_read") +
            counter_sum(counters, "hw.", ".pcie_bytes_written"),
        "B");
  m.add("hw.cpu_busy_us", counter_sum(counters, "hw.", ".cpu_busy_us"), "us");
}

/// One JSON line: provenance, digests, verdict and every metric.
std::string record_json(const Options& opt, const Workload& workload, std::size_t cycles,
                        const Verdict& verdict, const Metrics& metrics) {
  std::string r = "{\"provenance\": {";
  r += "\"commit\": \"" + json_escape(opt.commit) + "\", ";
  r += "\"build_type\": \"" + json_escape(FABRICBENCH_BUILD_TYPE) + "\", ";
  r += "\"compiler\": \"" + json_escape(FABRICBENCH_COMPILER) + "\", ";
  r += "\"cpu_model\": \"" + json_escape(cpu_model()) + "\", ";
  r += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ", ";
  r += "\"workload\": \"" + std::string(workload.name) + "\", ";
  r += "\"seed\": " + std::to_string(opt.params.seed) + ", ";
  r += std::string("\"seed_used\": ") + (workload.uses_seed ? "true" : "false") + ", ";
  r += std::string("\"mode\": \"") + (opt.trace ? "traced" : "untraced") + "\", ";
  r += "\"cycles\": " + std::to_string(cycles) + "}, \"digests\": {";
  const char* sep = "";
  for (const auto& [net, d] : verdict.digests) {
    r += sep + ("\"" + net + "\": \"" + hex(d) + "\"");
    sep = ", ";
  }
  r += std::string("}, \"correct\": ") + (verdict.problems.empty() ? "true" : "false");
  r += ", \"attempted\": " + std::to_string(verdict.attempted);
  r += ", \"failed\": " + std::to_string(verdict.failed) + ", \"metrics\": {";
  sep = "";
  for (const Metric& m : metrics.list()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    r += sep + ("\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}");
    sep = ", ";
  }
  return r + "}}";
}

}  // namespace

}  // namespace fabricbench

int main(int argc, char** argv) {
  using namespace fabricbench;
  const Options opt = parse_args(argc, argv);
  const Workload* workload = find_workload(opt.workload);
  if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const Expected expected =
      load_expected(opt.expected_path, workload->name, opt.params.corrupt_expected);

  // --- measure ---------------------------------------------------------
  SpanLog spans;
  std::uint64_t next_op = 1;
  std::vector<Cycle> cycles;
  const double start = now_s();
  while (static_cast<int>(cycles.size()) < kMinCycles || now_s() - start < opt.seconds) {
    Cycle cycle;
    for (core::Network net : workload->nets) {
      Probe probe;
      probe.next_op = next_op;
      cycle.untraced.push_back(workload->run_cell(net, opt.params, probe));
      next_op = probe.next_op;
    }
    if (opt.trace) {
      const int cycle_span = spans.open("cycle", -1);
      for (core::Network net : workload->nets) {
        Probe probe{&spans, spans.open(net_id(net), cycle_span), next_op};
        cycle.traced.push_back(workload->run_cell(net, opt.params, probe));
        spans.close(probe.parent);
        next_op = probe.next_op;
      }
      spans.close(cycle_span);
    }
    cycles.push_back(std::move(cycle));
  }
  if (opt.print_expected) {
    print_expected(*workload, cycles.front());
    return 0;
  }

  // --- check and report --------------------------------------------------
  Verdict verdict = check_outputs(*workload, cycles, expected, opt.params.seed);
  Fastest fastest;
  for (std::size_t n = 0; n < workload->nets.size(); ++n) {
    fastest.run.push_back(&fastest_cell(cycles, n, &Cell::run_s, false));
    fastest.run_s.push_back(fastest_run_s(cycles, n, false));
    fastest.setup.push_back(&fastest_cell(cycles, n, &Cell::setup_s, false));
    fastest.build.push_back(&fastest_cell(cycles, n, &Cell::build_s, false));
    if (opt.trace) {
      fastest.traced.push_back(&fastest_cell(cycles, n, &Cell::run_s, true));
      fastest.traced_run_s.push_back(fastest_run_s(cycles, n, true));
    }
  }
  Metrics metrics;
  add_end_to_end(*workload, cycles, fastest, verdict, metrics);
  if (opt.trace) {
    add_per_layer(*workload, cycles, fastest, metrics);
    if (!opt.trace_out.empty() && !spans.write_chrome_trace(opt.trace_out)) {
      verdict.problems.push_back("cannot write " + opt.trace_out);
    }
  }

  std::printf("fabricbench %s seed=%" PRIu64 "%s mode=%s cycles=%zu\n", workload->name,
              opt.params.seed, workload->uses_seed ? "" : " (ignored: fixed paper configurations)",
              opt.trace ? "traced" : "untraced", cycles.size());
  for (const Metric& m : metrics.list()) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  per-cycle setup_s / run_s:");
  for (const Cycle& c : cycles) {
    std::printf(" %.6g/%.6g", sum_of(c.untraced, &Cell::setup_s), sum_of(c.untraced, &Cell::run_s));
  }
  std::printf("\n");
  for (const std::string& p : verdict.problems) std::printf("  FAIL: %s\n", p.c_str());
  std::printf("%s\n", record_json(opt, *workload, cycles.size(), verdict, metrics).c_str());
  return 0;
}
