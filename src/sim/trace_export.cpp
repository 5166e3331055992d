#include "sim/trace_export.hpp"

#include <cstdio>
#include <set>

#include "sim/json.hpp"

namespace fabsim {

namespace {

void append_event(std::string& out, bool& first, const std::string& event) {
  if (!first) out += ",\n";
  first = false;
  out += "  ";
  out += event;
}

std::string format_ts(Time at) {
  // Trace Event ts is in microseconds; keep picosecond resolution as a
  // fraction so same-tick events stay distinguishable.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", to_us(at));
  return buf;
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer, const Profiler* profiler) {
  std::string out = "{\n\"traceEvents\": [\n";
  bool first = true;

  // Name each node's process row once. tid mirrors the category so the
  // four categories render as four stable threads per node.
  std::set<int> nodes;
  for (const Tracer::Entry& entry : tracer.entries()) nodes.insert(entry.node);
  for (int node : nodes) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, "
                  "\"args\": {\"name\": \"node %d\"}}",
                  node, node);
    append_event(out, first, buf);
  }

  for (const Tracer::Entry& entry : tracer.ordered()) {
    const char* cat = trace_category_name(entry.category);
    char buf[96];
    std::string event = "{\"name\": \"" + minijson::escape(entry.label) + "\", \"cat\": \"";
    event += cat;
    std::snprintf(buf, sizeof(buf), "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": %d, \"tid\": %d, ",
                  entry.node, static_cast<int>(entry.category));
    event += buf;
    event += "\"ts\": " + format_ts(entry.at) + "}";
    append_event(out, first, event);
  }

  if (profiler != nullptr && !profiler->slices().empty()) {
    // Host-time lanes: one process row for the profiler, one thread per
    // scope label (tid 0 = shared/-1, tid k+1 = scope k) so per-node
    // dispatch cost renders side by side with the shared dispatch work.
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": 0, "
                  "\"args\": {\"name\": \"host (profiler)\"}}",
                  kHostProfilePid);
    append_event(out, first, buf);
    std::set<int> scopes;
    for (const Profiler::Slice& slice : profiler->slices()) scopes.insert(slice.scope);
    for (int scope : scopes) {
      const int tid = scope < 0 ? 0 : scope + 1;
      const std::string name = scope < 0 ? "shared" : "scope " + std::to_string(scope);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                    "\"args\": {\"name\": \"%s\"}}",
                    kHostProfilePid, tid, name.c_str());
      append_event(out, first, buf);
    }
    for (const Profiler::Slice& slice : profiler->slices()) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"dispatch\", \"cat\": \"prof\", \"ph\": \"X\", \"pid\": %d, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"sim_us\": %.6f, "
                    "\"scope\": %d}}",
                    kHostProfilePid, slice.scope < 0 ? 0 : slice.scope + 1, slice.host_us_start,
                    slice.host_us_dur, to_us(slice.sim_at), slice.scope);
      append_event(out, first, buf);
    }
  }

  out += "\n],\n\"displayTimeUnit\": \"ns\"\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const Profiler* profiler) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json(tracer, profiler);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace fabsim
