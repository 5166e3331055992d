// Chrome-trace export: run one rendezvous MPI message over iWARP with
// the tracer armed, then write a Trace Event Format JSON file. Open it
// at ui.perfetto.dev (or chrome://tracing) to see the two nodes as
// processes, host/NIC/wire/proto as rows, and — courtesy of an attached
// FabricProf profiler — a "host (profiler)" process whose lanes show
// where the *wall-clock* dispatch time went while the simulated lanes
// above show where the *simulated* time went.
//
//   ./trace_export [output.json]      (default: trace_export.json)
#include <cstdio>

#include "core/cluster.hpp"
#include "sim/prof.hpp"
#include "sim/trace_export.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "trace_export.json";

  Cluster cluster(2, Network::kIwarp);
  Tracer tracer;
  Profiler profiler(Profiler::Config{.sample_stride = 1});  // every dispatch: short run
  cluster.engine().set_tracer(&tracer);
  cluster.attach_profiler(profiler);

  const std::uint32_t len = 24 * 1024;  // rendezvous-sized
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  // Run MPI setup (ring preposting is noisy) before arming the trace.
  cluster.engine().spawn([](Cluster& c) -> Task<> { co_await c.setup_mpi(); }(cluster));
  cluster.engine().run();
  tracer.clear();
  profiler.reset();

  cluster.engine().spawn([](Cluster& c, std::uint64_t s, std::uint32_t n) -> Task<> {
    co_await c.mpi_rank(0).send(1, 1, s, n);
  }(cluster, src.addr(), len));
  cluster.engine().spawn([](Cluster& c, std::uint64_t d, std::uint32_t n) -> Task<> {
    co_await c.mpi_rank(1).recv(0, 1, d, n);
  }(cluster, dst.addr(), len));
  cluster.engine().run();

  if (!write_chrome_trace(path, tracer, &profiler)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("wrote %s (%s)\n", path, tracer.summary().c_str());
  std::printf("open it at https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}
