// Chrome-trace-event exporter (chrome://tracing / Perfetto).
//
// Serializes a Tracer's event timeline into the Trace Event Format JSON
// understood by chrome://tracing and ui.perfetto.dev. Mapping:
//   * each simulated node  -> one "process" (pid = node id, named via a
//     process_name metadata event)
//   * each trace category  -> the event's "cat" and its "tid" within
//     the node, so host/NIC/wire/proto land on separate rows
//   * each Tracer entry    -> an instant event (ph "i", scope "t"),
//     ts in microseconds (the format's native unit)
//   * each FabricProf slice -> a duration event (ph "X", cat "prof") on
//     the dedicated kHostProfilePid process ("host (profiler)"), with ts
//     in *host* microseconds since profiler attach and the simulated
//     clock carried in args.sim_us — the sim-time lanes above and the
//     host-time lanes below share one document but not one clock
#pragma once

#include <string>

#include "sim/prof.hpp"
#include "sim/trace.hpp"

namespace fabsim {

/// The pid the host-time profiler lanes render under. Far outside any
/// plausible simulated node id so the two families can never collide.
inline constexpr int kHostProfilePid = 1'000'000;

/// Render the trace (and optional host-time profiler slices) as a
/// complete Chrome-trace JSON document.
std::string chrome_trace_json(const Tracer& tracer, const Profiler* profiler = nullptr);

/// Write chrome_trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const Profiler* profiler = nullptr);

}  // namespace fabsim
