// Fixed-width table / JSON reporting for benchmark binaries.
//
// Every bench builds one Report, fills it with tables (the figure
// series), latency histograms (exact percentiles), named scalars, and a
// MetricRegistry snapshot; the bench harness (core/bench.hpp) then
// prints it and persists <name>.txt and <name>.json side by side.
// The JSON is emitted by hand (no dependency) and round-trips through
// sim/json.hpp's validator in the test suite.
#pragma once

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "sim/histogram.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"

namespace fabsim::core {

/// Column-oriented result table: first column is the x value (message
/// size, #connections, queue depth, ...), one column per series.
class Table {
 public:
  struct Row {
    double x;
    std::vector<double> values;
  };

  Table(std::string title, std::string x_label, std::vector<std::string> series)
      : title_(std::move(title)), x_label_(std::move(x_label)), series_(std::move(series)) {}

  void add_row(double x, std::vector<double> values) {
    rows_.push_back(Row{x, std::move(values)});
  }

  const std::string& title() const { return title_; }
  const std::string& x_label() const { return x_label_; }
  const std::vector<std::string>& series() const { return series_; }
  const std::vector<Row>& rows() const { return rows_; }

  void print(std::FILE* out = stdout) const {
    std::fprintf(out, "\n## %s\n", title_.c_str());
    std::fprintf(out, "%-12s", x_label_.c_str());
    for (const std::string& s : series_) std::fprintf(out, " %14s", s.c_str());
    std::fprintf(out, "\n");
    for (const Row& row : rows_) {
      print_x(out, row.x);
      for (double v : row.values) std::fprintf(out, " %14.3f", v);
      std::fprintf(out, "\n");
    }
  }

 private:
  static void print_x(std::FILE* out, double x) {
    if (x >= 1 << 20 && static_cast<long long>(x) % (1 << 20) == 0) {
      std::fprintf(out, "%-12s", (std::to_string(static_cast<long long>(x) >> 20) + "M").c_str());
    } else if (x >= 1024 && static_cast<long long>(x) % 1024 == 0) {
      std::fprintf(out, "%-12s", (std::to_string(static_cast<long long>(x) >> 10) + "K").c_str());
    } else if (x != std::floor(x)) {
      std::fprintf(out, "%-12g", x);  // fractional x (e.g. loss rates)
    } else {
      std::fprintf(out, "%-12.0f", x);
    }
  }

  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<Row> rows_;
};

/// Power-of-two sweep helper.
inline std::vector<std::uint32_t> pow2_sizes(std::uint32_t from, std::uint32_t to) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t s = from; s <= to; s *= 2) sizes.push_back(s);
  return sizes;
}

/// End-of-run report: collects everything a bench produced and writes
/// the two uniform artifacts results/<name>.{txt,json}.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Free-form context line (profile, iteration counts, caveats).
  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  void add_scalar(const std::string& key, double value, const std::string& unit = "") {
    scalars_.push_back(Scalar{key, value, unit});
  }

  void add_table(Table table) { tables_.push_back(std::move(table)); }

  /// Snapshot the histogram's distribution (exact percentiles + log2
  /// buckets). Empty histograms are skipped so runners can pass their
  /// collector unconditionally.
  void add_histogram(const std::string& key, const Histogram& h) {
    if (h.count() == 0) return;
    HistSummary s;
    s.key = key;
    s.n = h.count();
    s.mean = h.mean();
    s.stddev = h.stddev();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.p50();
    s.p90 = h.p90();
    s.p99 = h.p99();
    s.p999 = h.p999();
    s.buckets = h.buckets();
    hists_.push_back(std::move(s));
  }

  /// Flatten the registry (counters, gauge high-water marks, phase
  /// totals) into the report's metric section. `prefix` namespaces the
  /// entries when one report merges registries from several runs
  /// (e.g. one probe per network).
  void add_metrics(const MetricRegistry& registry, const std::string& prefix = "") {
    add_metrics_if(registry, prefix, [](const std::string&) { return true; });
  }

  /// Filtered variant: keep only the entries `keep(key)` approves.
  /// Benches on large fabrics use it to persist aggregate counters
  /// (fabric totals, sim.digest, check.*) without thousands of lines of
  /// per-node/per-port detail.
  template <typename Keep>
  void add_metrics_if(const MetricRegistry& registry, const std::string& prefix, Keep&& keep) {
    // snapshot() orders the entries but reads counters as doubles, which
    // round a 64-bit sim.digest; take each counter's exact value instead.
    for (const auto& [key, value] : registry.snapshot()) {
      if (!keep(key)) continue;
      const bool is_counter = registry.has_counter(key);
      metrics_.push_back({prefix + key, value, is_counter,
                          is_counter ? registry.counter_value(key) : 0});
    }
  }

  /// The shared aggregate filter for add_metrics_if: drops per-node,
  /// per-port and per-rank instance detail, keeps fabric-wide totals.
  static bool aggregate_key(const std::string& key) {
    return key.find(".node") == std::string::npos && key.find(".port") == std::string::npos &&
           key.find(".rank") == std::string::npos;
  }

  // --- output --------------------------------------------------------

  void print(std::FILE* out = stdout) const {
    std::fprintf(out, "# %s\n", name_.c_str());
    for (const std::string& n : notes_) std::fprintf(out, "# %s\n", n.c_str());
    for (const Table& t : tables_) t.print(out);
    if (!scalars_.empty()) {
      std::fprintf(out, "\n## scalars\n");
      for (const Scalar& s : scalars_) {
        std::fprintf(out, "%-44s %.3f %s\n", s.key.c_str(), s.value, s.unit.c_str());
      }
    }
    if (!hists_.empty()) {
      std::fprintf(out, "\n## latency distribution\n");
      for (const HistSummary& h : hists_) {
        std::fprintf(out,
                     "%-24s n=%llu mean=%.3f p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f\n",
                     h.key.c_str(), static_cast<unsigned long long>(h.n), h.mean, h.p50, h.p90,
                     h.p99, h.p999, h.max);
      }
    }
    if (!metrics_.empty()) {
      std::fprintf(out, "\n## metrics\n");
      for (const Metric& m : metrics_) {
        if (m.is_counter) {
          std::fprintf(out, "%-44s %llu\n", m.key.c_str(),
                       static_cast<unsigned long long>(m.count));
        } else {
          std::fprintf(out, "%-44s %.3f\n", m.key.c_str(), m.value);
        }
      }
    }
  }

  /// Write <dir>/<name>.txt and .json. Returns false if either file
  /// could not be written.
  bool write(const std::string& dir = "results") const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    bool ok = true;
    ok &= write_with(dir + "/" + name_ + ".txt", [this](std::FILE* f) { print(f); });
    ok &= write_with(dir + "/" + name_ + ".json", [this](std::FILE* f) {
      const std::string text = json();
      std::fwrite(text.data(), 1, text.size(), f);
    });
    return ok;
  }

  /// The full report as a JSON document (parsed back by sim/json.hpp in
  /// tests, consumable by plotting scripts).
  std::string json() const {
    std::string out = "{\n  \"benchmark\": \"" + minijson::escape(name_) + "\",\n";
    out += "  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + minijson::escape(notes_[i]) + "\"";
    }
    out += "],\n  \"scalars\": {";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + minijson::escape(scalars_[i].key) + "\": " + num(scalars_[i].value);
    }
    out += "},\n  \"tables\": [";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (i) out += ",";
      out += "\n    " + table_json(tables_[i]);
    }
    out += tables_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"histograms\": {";
    for (std::size_t i = 0; i < hists_.size(); ++i) {
      if (i) out += ",";
      out += "\n    " + hist_json(hists_[i]);
    }
    out += hists_.empty() ? "},\n" : "\n  },\n";
    out += "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ",";
      const Metric& m = metrics_[i];
      out += "\n    \"" + minijson::escape(m.key) +
             "\": " + (m.is_counter ? std::to_string(m.count) : num(m.value));
    }
    out += metrics_.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }

 private:
  struct Scalar {
    std::string key;
    double value;
    std::string unit;
  };

  /// Counters stay exact 64-bit integers; gauges and phase totals are
  /// doubles.
  struct Metric {
    std::string key;
    double value = 0;
    bool is_counter = false;
    std::uint64_t count = 0;
  };

  struct HistSummary {
    std::string key;
    std::uint64_t n = 0;
    double mean = 0, stddev = 0, min = 0, max = 0;
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
    std::vector<Histogram::Bucket> buckets;
  };

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static std::string table_json(const Table& t) {
    std::string out = "{\"title\": \"" + minijson::escape(t.title()) + "\", \"x_label\": \"" +
                      minijson::escape(t.x_label()) + "\", \"series\": [";
    for (std::size_t i = 0; i < t.series().size(); ++i) {
      if (i) out += ", ";
      out += "\"" + minijson::escape(t.series()[i]) + "\"";
    }
    out += "], \"rows\": [";
    for (std::size_t i = 0; i < t.rows().size(); ++i) {
      const Table::Row& row = t.rows()[i];
      out += (i ? ", [" : "[") + num(row.x);
      for (double v : row.values) out += ", " + num(v);
      out += "]";
    }
    out += "]}";
    return out;
  }

  static std::string hist_json(const HistSummary& h) {
    std::string out = "\"" + minijson::escape(h.key) + "\": {\"n\": " +
                      std::to_string(h.n) + ", \"mean\": " + num(h.mean) + ", \"stddev\": " +
                      num(h.stddev) + ", \"min\": " + num(h.min) + ", \"max\": " + num(h.max) +
                      ", \"p50\": " + num(h.p50) + ", \"p90\": " + num(h.p90) + ", \"p99\": " +
                      num(h.p99) + ", \"p999\": " + num(h.p999) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const Histogram::Bucket& b = h.buckets[i];
      out += (i ? ", [" : "[") + num(b.lo) + ", " + num(b.hi) + ", " +
             std::to_string(b.count) + "]";
    }
    out += "]}";
    return out;
  }

  template <typename Fn>
  static bool write_with(const std::string& path, Fn&& fn) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    fn(f);
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
  }

  std::string name_;
  std::vector<std::string> notes_;
  std::vector<Scalar> scalars_;
  std::vector<Table> tables_;
  std::vector<HistSummary> hists_;
  std::vector<Metric> metrics_;
};

}  // namespace fabsim::core
