// Protocol timeline: turn on the tracer and watch one rendezvous MPI
// message cross the iWARP stack — RTS, pin-down cache, CTS, the TCP
// segments of the RDMA Write, placement, FIN. Then the same message with
// 2% frame loss, showing go-back-N at work.
#include <cstdio>

#include "core/cluster.hpp"
#include "fault/plan.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

void run(double loss_rate) {
  NetworkProfile p = iwarp_profile();
  p.rnic.rto = us(300);
  Cluster cluster(2, p);
  fault::FaultPlan plan;
  plan.drop_probability(loss_rate);
  cluster.engine().set_fault_injector(&plan);
  Tracer tracer;
  cluster.engine().set_tracer(&tracer);

  const std::uint32_t len = 24 * 1024;  // rendezvous-sized
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  // Run MPI setup (ring preposting is noisy) before arming the trace.
  cluster.engine().spawn([](Cluster& c) -> Task<> { co_await c.setup_mpi(); }(cluster));
  cluster.engine().run();
  tracer.clear();

  cluster.engine().spawn([](Cluster& c, std::uint64_t s, std::uint32_t n) -> Task<> {
    co_await c.mpi_rank(0).send(1, 1, s, n);
  }(cluster, src.addr(), len));
  cluster.engine().spawn([](Cluster& c, std::uint64_t d, std::uint32_t n) -> Task<> {
    co_await c.mpi_rank(1).recv(0, 1, d, n);
  }(cluster, dst.addr(), len));
  cluster.engine().run();

  std::printf("--- 24 KB rendezvous send over iWARP, loss=%.1f%% ---\n", loss_rate * 100);
  std::size_t shown = 0;
  int data_seen = 0;
  for (const auto& entry : tracer.entries()) {
    // The bulk data segments are repetitive; elide the middle ones.
    const bool is_data = entry.label.find("TCP segment tagged-write") == 0;
    if (is_data) {
      ++data_seen;
      if (data_seen > 3 && entry.label.find("[last]") == std::string::npos) continue;
    }
    std::printf("%11.3f us  [node %d] %-5s  %s\n", to_us(entry.at), entry.node,
                trace_category_name(entry.category), entry.label.c_str());
    ++shown;
    if (shown > 40) {
      std::printf("  (... truncated)\n");
      break;
    }
  }
  std::printf("(%s)\n\n", tracer.summary().c_str());
}

}  // namespace

int main() {
  run(0.0);
  run(0.02);
  return 0;
}
