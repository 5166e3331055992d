// MiniMPI per-transport configuration.
//
// These parameters describe the MPI *library* running over a transport —
// protocol thresholds, queue-traversal costs, pin-down cache bounds —
// matching what the paper observes about MPICH-1.2.7 derivatives
// ( over NetEffect verbs, -0.9.5 over VAPI, MPICH-MX).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace fabsim::mpi {

struct MpiConfig {
  /// Messages strictly larger than this use the rendezvous protocol
  /// (ch_verbs only; MX switches internally inside the MX library).
  std::uint32_t eager_threshold = 8 * 1024;

  // --- Host costs of the MPI software layer ---
  Time send_call_cpu = ns(150);   ///< envelope build + bookkeeping
  Time recv_call_cpu = ns(150);
  Time wait_poll_cpu = ns(120);   ///< per successful CQ poll in wait loops
  Time handler_cpu = ns(100);     ///< fixed cost per progressed message

  /// Cost per queue item traversed without matching. Charged to the host
  /// CPU (MX instead pays its NIC-side costs inside the MX library).
  Time posted_item_cost = ns(90);
  Time unexpected_item_cost = ns(110);

  // --- Eager channel (ch_verbs) ---
  /// Maximum eager sends in flight before the sender stalls on its own
  /// send completions (0 = unlimited). MVAPICH-class RDMA-write eager
  /// channels throttle hard here — the source of IB's large LogP gap.
  int max_outstanding_eager = 0;
  std::size_t eager_buffers = 1024;  ///< pre-posted ring slots per peer
  std::size_t control_slots = 16;    ///< reserved staging slots for control
  std::uint32_t credit_batch = 64;   ///< return credits after this many frees

  /// Asynchronous progress (the paper's future-work "enhance the
  /// NetEffect MPI implementation"): a background progress engine drains
  /// completions even while the application computes, restoring
  /// rendezvous overlap at the cost of host CPU cycles. Off by default —
  /// the MPICH derivatives under study progress synchronously.
  bool async_progress = false;

  // --- Pin-down cache (ch_verbs rendezvous) ---
  std::size_t pin_cache_entries = 1024;
  std::uint64_t pin_cache_bytes = 1ull << 20;
};

}  // namespace fabsim::mpi
