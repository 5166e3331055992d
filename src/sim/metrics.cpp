#include "sim/metrics.hpp"

#include <algorithm>

namespace fabsim {

std::vector<std::pair<std::string, double>> MetricRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters().size() + gauges().size() + 3);
  for (const auto& [name, counter] : counters()) {
    out.emplace_back(std::string(name), static_cast<double>(counter.value()));
  }
  for (const auto& [name, gauge] : gauges()) {
    out.emplace_back(std::string(name) + ".max", gauge.max());
  }
  const Phase phases[3] = {Phase::kHost, Phase::kNic, Phase::kWire};
  for (Phase phase : phases) {
    const Time t = phase_time(phase);
    if (t > 0) out.emplace_back(std::string("phase.") + phase_name(phase) + ".us", to_us(t));
  }
  // Counters/gauges are already sorted within their maps; merge-sort the
  // combined view so it reads as one taxonomy.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fabsim
