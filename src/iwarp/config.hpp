// NetEffect NE010e-class RNIC parameters.
//
// Values here are defaults; the calibrated set used by the paper
// reproduction lives in core/calibration.hpp. See DESIGN.md §1 for how
// each parameter maps to an observed behaviour.
#pragma once

#include <cstdint>

#include "hw/memory.hpp"
#include "hw/pci.hpp"
#include "sim/time.hpp"

namespace fabsim::iwarp {

struct RnicConfig {
  // --- Protocol engine (TCP/IP + MPA + DDP + RDMAP offload) ---
  // Pipelined: a new DDP segment may enter every `occupancy`; each takes
  // `latency` end-to-end. occupancy << latency is what gives the NetEffect
  // card its multi-connection scalability (paper §5.1).
  Time tx_latency = us(2.6);
  Time tx_occupancy = ns(450);   ///< fixed per segment
  Time rx_latency = us(2.6);
  Time rx_occupancy = ns(450);
  /// Per-byte protocol-engine throughput (TCP checksum/MPA/DMA internal
  /// paths). Together with the fixed part this caps one-way bandwidth.
  Rate engine_byte_rate = Rate::mb_per_sec(1250.0);
  Time per_message_overhead = ns(500);  ///< extra engine occupancy, first segment
  Time ack_occupancy = ns(80);          ///< engine time to process a pure ACK

  // --- Host interface ---
  Time post_send_cpu = ns(400);
  Time post_recv_cpu = ns(300);
  Time poll_cpu = ns(250);
  Time doorbell = ns(200);   ///< PCIe posted write latency
  Time wqe_fetch = ns(500);  ///< descriptor fetch before the first segment
  /// Internal 64-bit/133 MHz PCI-X bus behind the PCIe bridge: half
  /// duplex, shared by send and receive DMA. The bandwidth bottleneck.
  hw::PciConfig pcix{Rate::mb_per_sec(1000.0), ns(120)};

  // --- TCP / MPA ---
  std::uint32_t mss = 1408;          ///< DDP payload per TCP segment
  std::uint32_t seg_overhead = 102;  ///< Ethernet+IP+TCP+MPA+DDP header bytes/segment
  std::uint32_t ack_wire_bytes = 66;
  std::uint32_t window = 256 * 1024;
  int ack_every = 2;  ///< delayed ACK: one pure ACK per this many segments
  /// Delayed-ACK timeout: an ACK owed but withheld by `ack_every` goes
  /// out after this long anyway (prevents stalls when the sender's
  /// window closes before the ack quota is met).
  Time delayed_ack_timeout = us(40);
  Time rto = us(500);
  /// Consecutive RTO fires without ack progress before the connection is
  /// torn down (TCP gives up and resets): outstanding work flushes with
  /// kRetryExceeded and the peer is notified out-of-band — the model's
  /// RST analog. Keeps fabric partitions from hanging the stack.
  int retry_limit = 15;

  hw::RegistrationConfig reg{us(1.0), us(4.0), us(0.5), us(0.5), 4096};
};

}  // namespace fabsim::iwarp
