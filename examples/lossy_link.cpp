// Failure injection demo: the iWARP stack carries a real TCP below DDP,
// so it survives frame loss via go-back-N retransmission. This example
// drops frames on the wire with an engine-attached FaultPlan, sweeps
// loss rates and shows the throughput collapse and retransmit counts —
// something no other stack in this repository needs to handle (IB and
// Myrinet fabrics are lossless by design).
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

  verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq0, cq0);
  auto qp1 = cluster.device(1).create_qp(cq1, cq1);
  cluster.device(0).establish(*qp0, *qp1);

  const std::uint32_t len = 2 << 20;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);
  const auto lkey = cluster.device(0).registry().register_region(src.addr(), len);
  const auto rkey = cluster.device(1).registry().register_region(dst.addr(), len);

  Time elapsed = 0;
  cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, std::uint64_t s, std::uint64_t d,
                            verbs::MrKey lk, verbs::MrKey rk, std::uint32_t n,
                            Time* out) -> Task<> {
    auto placed = c.device(1).watch_placement(d, n);
    const Time start = c.engine().now();
    co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = verbs::Opcode::kRdmaWrite,
                                        .sge = {s, n, lk},
                                        .remote_addr = d,
                                        .rkey = rk});
    co_await placed->wait();
    *out = c.engine().now() - start;
  }(cluster, *qp0, src.addr(), dst.addr(), lkey, rkey, len, &elapsed));
  cluster.engine().run();

  const double mbps = static_cast<double>(len) / to_us(elapsed);
  std::printf("  loss %5.2f%%: %8.1f MB/s, %5llu retransmitted segments\n", loss_rate * 100,
              mbps, static_cast<unsigned long long>(cluster.rnic(0).retransmits()));
}

}  // namespace

int main() {
  std::printf("2 MB RDMA Write over iWARP/TCP with injected frame loss:\n");
  for (double loss : {0.0, 0.001, 0.005, 0.02, 0.05}) run(loss);
  std::printf("(go-back-N recovers the byte stream; throughput pays for it)\n");
  return 0;
}
