// Extension X6 — host-based TCP sockets vs. the offloaded stacks on the
// same 10GbE wire (the paper's future-work item "extend our study to
// include ... sockets"). This is the quantitative version of the paper's
// framing sentence: iWARP achieves "an unprecedented (TCP) latency for
// Ethernet" — unprecedented relative to this baseline.
#include <memory>

#include "core/bench.hpp"
#include "core/runners.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "sockets/host_tcp.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

double sockets_pingpong_us(std::uint32_t msg, int iters = 30, Histogram* hist = nullptr) {
  Engine engine;
  hw::Switch fabric(engine, iwarp_profile().switch_cfg);
  hw::Node node0(engine, 0, iwarp_profile().pcie, xeon_cpu());
  hw::Node node1(engine, 1, iwarp_profile().pcie, xeon_cpu());
  sockets::HostTcp tcp0(node0, fabric), tcp1(node1, fabric);
  auto [sock0, sock1] = sockets::HostTcp::connect(tcp0, tcp1);
  auto& b0 = node0.mem().alloc(msg, false);
  auto& b1 = node1.mem().alloc(msg, false);

  Time elapsed = 0;
  engine.spawn([](Engine& e, sockets::Socket& s, std::uint64_t addr, std::uint32_t m, int n,
                  Time* out, Histogram* h) -> Task<> {
    const Time start = e.now();
    for (int i = 0; i < n; ++i) {
      const Time iter0 = e.now();
      co_await s.send(addr, m);
      std::uint32_t got = 0;
      while (got < m) got += co_await s.recv(addr, m);
      if (h != nullptr) h->add(to_us(e.now() - iter0) / 2.0);
    }
    *out = e.now() - start;
  }(engine, *sock0, b0.addr(), msg, iters, &elapsed, hist));
  engine.spawn([](sockets::Socket& s, std::uint64_t addr, std::uint32_t m, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      std::uint32_t got = 0;
      while (got < m) got += co_await s.recv(addr, m);
      co_await s.send(addr, m);
    }
  }(*sock1, b1.addr(), msg, iters));
  engine.run();
  return to_us(elapsed) / iters / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Bench bench("ext_sockets", argc, argv);
  constexpr std::uint32_t kProbeMsg = 1024;

  Report report(bench.report_name());
  report.add_note("host TCP sockets vs offloaded stacks on identical 10GbE hardware");
  report.add_note("probe: sockets and iWARP half-RTT histograms + iWARP metrics at msg=1024B");
  report.add_note("expected: the offloaded stacks hold a 2-4x latency and 2-3x bandwidth "
                  "advantage over kernel sockets on the same switch and cables: the gap that "
                  "makes TOE+RDMA (iWARP) worth the silicon, and the context for the paper's "
                  "\"unprecedented (TCP) latency for Ethernet\" claim");

  Table latency("Half round trip (us) on identical 10GbE hardware", "msg_bytes",
                {"sockets", "iWARP", "MXoE", "speedup"});
  for (std::uint32_t msg : {8u, 64u, 1024u, 4096u, 16384u, 65536u}) {
    Probe sock_probe(msg == kProbeMsg), iw_probe(msg == kProbeMsg);
    const double sock = sockets_pingpong_us(msg, 30, sock_probe.hist());
    const double iw = userlevel_pingpong_latency_us(iwarp_profile(), msg, 30, iw_probe.hist(),
                                                    iw_probe.metrics());
    sock_probe.record(report, "sockets", "latency_us");
    iw_probe.record(report, "iwarp", "latency_us");
    const double moe = userlevel_pingpong_latency_us(mxoe_profile(), msg);
    latency.add_row(msg, {sock, iw, moe, sock / iw});
  }
  report.add_table(latency);

  Table bw("One-way bandwidth (MB/s, from latency, 10GbE only)", "msg_bytes",
           {"sockets", "iWARP", "MXoE"});
  for (std::uint32_t msg : {65536u, 262144u, 1u << 20, 4u << 20}) {
    const double sock = static_cast<double>(msg) / sockets_pingpong_us(msg, 6);
    bw.add_row(msg, {sock, userlevel_bandwidth_mbps(iwarp_profile(), msg, 6),
                     userlevel_bandwidth_mbps(mxoe_profile(), msg, 6)});
  }
  report.add_table(bw);
  return bench.finish(report);
}
