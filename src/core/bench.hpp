// The shared main of every report-writing bench binary.
//
// A bench declares what its command line accepts: `quick` where it has
// a reduced sweep, plus its own `--flag VALUE` options. Anything else
// prints one usage line and exits 2 before the bench simulates
// anything. The harness names the report <name>[_quick][_<suffix>],
// records probe points, and at the end prints the report to stdout
// exactly as it writes results/<name>.txt, failing the run when an
// artifact cannot be written.
//
//   int main(int argc, char** argv) {
//     const Bench bench("fig2_multiconn", argc, argv, {.quick = true});
//     Report report(bench.report_name());
//     ...
//     return bench.finish(report);
//   }
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/report.hpp"

namespace fabsim::core {

/// One `--flag VALUE` option, or a bare `--flag` when `metavar` is
/// empty. `set` stores the value and returns false to reject it.
struct BenchOption {
  std::string flag;
  std::string metavar;
  std::function<bool(const std::string&)> set;
};

/// Parse all of `text` as a decimal number that fits `Unsigned`.
template <typename Unsigned>
bool parse_number(const std::string& text, Unsigned& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// `--flag N`: a decimal number that must fit `out`'s unsigned type.
template <typename Unsigned>
BenchOption number_option(std::string flag, Unsigned& out) {
  return {std::move(flag), "N", [&out](const std::string& text) {
            Unsigned value{};
            if (!parse_number(text, value)) return false;
            out = value;
            return true;
          }};
}

/// `--flag N` whose absence the bench must tell apart from any number.
template <typename Unsigned>
BenchOption number_option(std::string flag, std::optional<Unsigned>& out) {
  return {std::move(flag), "N", [&out](const std::string& text) {
            Unsigned value{};
            if (!parse_number(text, value)) return false;
            out = value;
            return true;
          }};
}

/// `--flag METAVAR`: any text, stored in `out`.
inline BenchOption text_option(std::string flag, std::string metavar, std::string& out) {
  return {std::move(flag), std::move(metavar), [&out](const std::string& text) {
            out = text;
            return true;
          }};
}

/// Everything a bench's command line may hold; no arguments at all is
/// always accepted and runs the full sweep.
struct BenchArgs {
  bool quick = false;  ///< the bench has a reduced sweep, selected by `quick`
  std::vector<BenchOption> options{};
};

class Bench {
 public:
  /// Parse the command line against `accepts`. Anything else prints the
  /// usage line to stderr and exits 2.
  Bench(std::string name, int argc, const char* const* argv, const BenchArgs& accepts = {})
      : name_(std::move(name)) {
    if (!parse(accepts, argc, argv, quick_)) {
      std::fprintf(stderr, "%s\n", usage(name_, accepts).c_str());
      std::exit(2);
    }
  }

  bool quick() const { return quick_; }

  /// <name>[_quick][_<suffix>]: a quick sweep or a non-default variant
  /// never overwrites the report of the default run.
  std::string report_name(const std::string& suffix = "") const {
    std::string name = quick_ ? name_ + "_quick" : name_;
    if (!suffix.empty()) name += "_" + suffix;
    return name;
  }

  /// Print `report` to stdout exactly as it writes <dir>/<report>.txt,
  /// then write <dir>/<report>.{txt,json}. Returns `status`, or 1 when an
  /// artifact could not be written.
  int finish(const Report& report, int status = 0, const std::string& dir = "results") const {
    report.print(stdout);
    if (report.write(dir)) return status;
    std::fprintf(stderr, "%s: cannot write %s/%s.{txt,json}\n", name_.c_str(), dir.c_str(),
                 report.name().c_str());
    return status != 0 ? status : 1;
  }

  /// Whether argv[1..] is a command line `accepts` allows. Sets `quick`
  /// and stores each option's value as it goes.
  static bool parse(const BenchArgs& accepts, int argc, const char* const* argv, bool& quick) {
    quick = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (accepts.quick && arg == "quick") {
        quick = true;
        continue;
      }
      const auto option = std::find_if(accepts.options.begin(), accepts.options.end(),
                                       [&arg](const BenchOption& o) { return o.flag == arg; });
      if (option == accepts.options.end()) return false;
      if (option->metavar.empty()) {
        if (!option->set("")) return false;
      } else if (i + 1 == argc || !option->set(argv[++i])) {
        return false;
      }
    }
    return true;
  }

  /// "usage: <name> [quick] [--flag METAVAR]...", one line.
  static std::string usage(const std::string& name, const BenchArgs& accepts) {
    std::string line = "usage: " + name;
    if (accepts.quick) line += " [quick]";
    for (const BenchOption& o : accepts.options) {
      line += " [" + o.flag + (o.metavar.empty() ? "" : " " + o.metavar) + "]";
    }
    return line;
  }

 private:
  std::string name_;
  bool quick_ = false;
};

/// One probe point of a sweep: a histogram and a metric registry that
/// the run fills. Unarmed, both pointers are null, so one call runs
/// every point of the sweep and only the probe point is observed.
class Probe {
 public:
  explicit Probe(bool armed = true) : armed_(armed) {}

  Histogram* hist() { return armed_ ? &hist_ : nullptr; }
  MetricRegistry* metrics() { return armed_ ? &metrics_ : nullptr; }

  /// File the histogram as <label>.<hist_key> and the registry under
  /// <label>., keeping only the metrics `keep` approves when it is set.
  /// Does nothing when unarmed.
  void record(Report& report, const std::string& label, const std::string& hist_key,
              bool (*keep)(const std::string&) = nullptr) const {
    if (!armed_) return;
    report.add_histogram(label + "." + hist_key, hist_);
    report.add_metrics_if(metrics_, label + ".",
                          [keep](const std::string& key) { return keep == nullptr || keep(key); });
  }

 private:
  bool armed_;
  Histogram hist_;
  MetricRegistry metrics_;
};

}  // namespace fabsim::core
