// Calibrated per-network parameter sets.
//
// One NetworkProfile per column of the paper's comparison: iWARP
// (NetEffect NE010e through a Fujitsu XG700 10GbE switch), InfiniBand
// (Mellanox MHEA28-XT 4X through an MTS2400), and Myri-10G in both MXoM
// (Myrinet switch) and MXoE (Ethernet switch) personalities. Values are
// fitted so the headline numbers of DESIGN.md §1 land on the paper's
// reported values; tests/calibration_test.cpp locks them in. Everything
// downstream (figure shapes, crossovers, scaling behaviour) emerges from
// the mechanisms in the stack models, not from these constants.
#pragma once

#include "hw/cpu.hpp"
#include "hw/fabric.hpp"
#include "hw/pci.hpp"
#include "ib/config.hpp"
#include "iwarp/config.hpp"
#include "mpi/config.hpp"
#include "mx/config.hpp"
#include "topo/spec.hpp"

namespace fabsim::core {

enum class Network { kIwarp, kIb, kMxoe, kMxom };

inline const char* network_name(Network network) {
  switch (network) {
    case Network::kIwarp: return "iWARP";
    case Network::kIb: return "IB";
    case Network::kMxoe: return "MXoE";
    case Network::kMxom: return "MXoM";
  }
  return "?";
}

struct NetworkProfile {
  Network network;
  hw::SwitchConfig switch_cfg;
  /// Fabric shape. Defaults to the seed's single crossbar (levels == 1);
  /// benches override levels/radix/flow to build Clos fabrics. The flow
  /// mode that matches each network's link layer: kCredit for IB (VL
  /// buffer credits), kLossy for iWARP / MXoE Ethernet.
  topo::FabricSpec fabric;
  hw::PciConfig pcie;
  hw::CpuConfig cpu;
  iwarp::RnicConfig rnic;  ///< valid for kIwarp
  ib::HcaConfig hca;       ///< valid for kIb
  mx::MxConfig mx;         ///< valid for kMxoe / kMxom
  mpi::MpiConfig mpi;
};

/// Dual Xeon 2.8 GHz (Dell PowerEdge 2850) CPU model shared by all nodes.
inline hw::CpuConfig xeon_cpu() {
  hw::CpuConfig cpu;
  cpu.memcpy_base = ns(60);
  cpu.memcpy_warm_rate = Rate::mb_per_sec(4200.0);
  cpu.memcpy_cold_rate = Rate::mb_per_sec(1450.0);
  cpu.cache_bytes = 512 * 1024;  // effective cache footprint for copies
  return cpu;
}

inline NetworkProfile iwarp_profile() {
  NetworkProfile p;
  p.network = Network::kIwarp;
  // Fujitsu XG700: store-and-forward class latency on 10GbE.
  p.switch_cfg = hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(450), ns(100)};
  p.pcie = hw::PciConfig{Rate::mb_per_sec(2000.0), ns(250)};
  p.cpu = xeon_cpu();

  iwarp::RnicConfig& r = p.rnic;
  // One-way bandwidth: engine-bound at ~880 MB/s (0.45 us + 1408 B at
  // 1300 MB/s per segment = 1.533 us -> 918; minus per-message and ack
  // overheads lands at ~880). Internal PCI-X effective ~1050 MB/s caps
  // both-way at ~950 MB/s total.
  r.tx_latency = us(3.5);
  r.tx_occupancy = ns(330);
  r.rx_latency = us(3.47);
  r.rx_occupancy = ns(330);
  r.engine_byte_rate = Rate::mb_per_sec(1100.0);
  r.per_message_overhead = ns(400);
  r.ack_occupancy = ns(80);
  r.post_send_cpu = ns(400);
  r.post_recv_cpu = ns(300);
  r.poll_cpu = ns(250);
  r.doorbell = ns(200);
  r.wqe_fetch = ns(450);
  r.pcix = hw::PciConfig{Rate::mb_per_sec(1050.0), ns(100)};
  r.mss = 1408;
  r.seg_overhead = 102;  // Eth+IP+TCP+MPA markers+DDP/RDMAP headers
  r.window = 256 * 1024;
  r.ack_every = 2;
  // Registration: moderate cost (paper: iWARP cheapest at very large
  // messages, ratio ~2.0 at 256 KB).
  r.reg = hw::RegistrationConfig{us(1.0), us(2.1), us(0.5), us(0.4), 4096};

  mpi::MpiConfig& m = p.mpi;
  m.eager_threshold = 4 * 1024;  // paper: switch between 4 KB and 8 KB
  m.posted_item_cost = ns(95);
  m.unexpected_item_cost = ns(115);
  m.pin_cache_entries = 1024;
  m.pin_cache_bytes = 2ull << 20;
  return p;
}

inline NetworkProfile ib_profile() {
  NetworkProfile p;
  p.network = Network::kIb;
  // Mellanox MTS2400: cut-through, 4X SDR data rate 1 GB/s.
  p.switch_cfg = hw::SwitchConfig{Rate::mb_per_sec(1000.0), ns(200), ns(100)};
  p.fabric.flow = hw::FlowControl::kCredit;  // IB link layer: VL buffer credits
  p.pcie = hw::PciConfig{Rate::mb_per_sec(2000.0), ns(250)};
  p.cpu = xeon_cpu();

  ib::HcaConfig& h = p.hca;
  h.tx_packet_proc = ns(260);
  h.rx_packet_proc = ns(260);
  h.tx_message_proc = ns(350);
  h.rx_message_proc = ns(250);
  h.engine_latency_pad = ns(1060);
  h.engine_byte_rate = Rate::mb_per_sec(4500.0);
  h.context_cache_entries = 8;
  h.context_miss_penalty = us(1.3);
  h.post_send_cpu = ns(300);
  h.post_recv_cpu = ns(100);
  h.poll_cpu = ns(200);
  h.doorbell = ns(200);
  h.dma_rate = Rate::mb_per_sec(2080.0);
  h.dma_transaction = ns(80);
  h.mtu = 2048;
  h.packet_overhead = 30;
  // Mellanox-era registration is expensive (Fig 6: ratio 4.3 at 128 KB).
  h.reg = hw::RegistrationConfig{us(2.0), us(7.0), us(1.0), us(0.9), 4096};

  mpi::MpiConfig& m = p.mpi;
  m.eager_threshold = 8 * 1024;  //  default class
  m.send_call_cpu = ns(30);
  m.recv_call_cpu = ns(30);
  m.handler_cpu = ns(20);
  m.wait_poll_cpu = ns(40);
  m.posted_item_cost = ns(110);
  m.unexpected_item_cost = ns(130);
  // MVAPICH's RDMA-write eager channel stalls on its own completions —
  // the paper's ~3 us LogP gap for IB despite its lowest latency.
  m.max_outstanding_eager = 1;
  m.pin_cache_entries = 1024;
  m.pin_cache_bytes = 3ull << 20;
  return p;
}

inline NetworkProfile mx_profile_base() {
  NetworkProfile p;
  p.cpu = xeon_cpu();
  // Forced PCIe x4 (Intel E7520 chipset workaround, paper §4).
  p.pcie = hw::PciConfig{Rate::mb_per_sec(1000.0), ns(220)};

  mx::MxConfig& x = p.mx;
  x.tx_occupancy = ns(260);
  x.tx_latency = us(0.52);
  x.rx_occupancy = ns(260);
  x.rx_latency = us(0.52);
  x.engine_byte_rate = Rate::mb_per_sec(5000.0);
  x.per_message_overhead = ns(180);
  x.match_posted_item = ns(260);
  x.match_unexpected_item = ns(15);
  x.isend_cpu = ns(220);
  x.irecv_cpu = ns(220);
  x.test_cpu = ns(90);
  x.doorbell = ns(180);
  x.dma_rate = Rate::mb_per_sec(2000.0);
  x.dma_transaction = ns(120);
  x.eager_max = 32 * 1024;
  x.mtu = 4096;
  x.reg = hw::RegistrationConfig{us(1.0), us(2.9), us(0.5), us(0.3), 4096};
  x.reg_cache_enabled = true;
  x.reg_cache_entries = 4096;
  x.reg_cache_bytes = 8ull << 20;

  mpi::MpiConfig& m = p.mpi;
  // MPICH-MX is a thin shim: matching lives in MX.
  m.send_call_cpu = ns(380);
  m.recv_call_cpu = ns(380);
  m.wait_poll_cpu = ns(80);
  return p;
}

inline NetworkProfile mxom_profile() {
  NetworkProfile p = mx_profile_base();
  p.network = Network::kMxom;
  // Myri-10G switch: cut-through, very low latency, stop/go flow control.
  p.switch_cfg = hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(100), ns(100)};
  p.fabric.flow = hw::FlowControl::kCredit;
  p.mx.frame_overhead = 16;
  return p;
}

inline NetworkProfile mxoe_profile() {
  NetworkProfile p = mx_profile_base();
  p.network = Network::kMxoe;
  // Same NIC through the Fujitsu XG700 Ethernet switch.
  p.switch_cfg = hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(450), ns(100)};
  p.mx.frame_overhead = 60;
  return p;
}

inline NetworkProfile profile(Network network) {
  switch (network) {
    case Network::kIwarp: return iwarp_profile();
    case Network::kIb: return ib_profile();
    case Network::kMxoe: return mxoe_profile();
    case Network::kMxom: return mxom_profile();
  }
  throw std::invalid_argument("unknown network");
}

}  // namespace fabsim::core
