// FabricHot-Check: hot-path purity annotations and the allocation
// mutation seam.
//
// The engine speed campaign (ROADMAP item 1) is judged in events/sec,
// and that number is only trustworthy if the dispatch path stays *pure*:
// no heap allocation, no wall-clock or syscall/IO, no throw on the
// steady-state path every event funnels through. Convention cannot hold
// that line — one `std::function` capture or one `push_back` into an
// unbounded vector silently re-introduces a malloc per event. This
// header provides both halves of the gate that makes purity a checked
// contract, in the same playbook as FabricScope-Check (scope.hpp):
//
//  1. *Static annotations* — `FABSIM_HOT` and `FABSIM_COLD` mark function
//     definitions (place before the return type, e.g.
//     `FABSIM_HOT void Rnic::pump_tx()`). They expand to nothing;
//     `scripts/hotpath_check.py` parses them and computes call-graph
//     reachability from `Engine::dispatch` through every `post()`
//     continuation body:
//       FABSIM_HOT   this function is on the per-event dispatch path and
//                    must satisfy the purity rules (also scanned even if
//                    the call-graph walk cannot reach it).
//       FABSIM_COLD  this function is reachable from hot code but runs
//                    only on exceptional paths (error handling, teardown,
//                    retry exhaustion); traversal stops here and its body
//                    is exempt from the purity rules.
//     A hot-reachable impurity the analyzer cannot prove harmless needs
//     an inline `// HOT-OK(rationale)` waiver — allowed, but only with a
//     written rationale, recorded in results/hotpath_report.json.
//
//  2. *Dynamic corroboration* — the engine's InvariantMonitor
//     (check/invariant.hpp). The dispatch loop brackets every event, and
//     the monitor charges any prof::CountingAllocator allocation made
//     during the callback against a budget of zero, excusing the
//     amortized growth of the event queue's own storage. Only that queue
//     allocates through CountingAllocator, so the budget checks the
//     queue's growth accounting, not whole-process heap traffic. An
//     excess is a `hot_alloc_budget` violation. The monitor never posts
//     events or advances time: run digests stay byte-identical (pinned
//     by tests/hotpath_test.cpp).
#pragma once

#include "sim/prof.hpp"

// --- Static annotation markers (parsed by scripts/hotpath_check.py) --------
//
// Placed before a function definition's return type. They compile to
// nothing — the analyzer reads the source text.
#define FABSIM_HOT
#define FABSIM_COLD

// Mutation seam for the gate's self-test: when the (runtime) `armed`
// expression is true, performs one deliberate tracked allocation on the
// dispatch path. scripts/hotpath_check.py ignores the dormant seam but
// flags it as a hot allocation under --mutation, and an attached monitor
// traps it dynamically when armed (tests/hotpath_test.cpp) — proving the
// gate can actually fail, both statically and at runtime.
#define FABSIM_MUTATION_HOTALLOC(armed)                                     \
  do {                                                                      \
    if (armed) {                                                            \
      ::fabsim::prof::CountingAllocator<char> fabsim_hotalloc_allocator_;   \
      char* fabsim_hotalloc_block_ = fabsim_hotalloc_allocator_.allocate(1); \
      fabsim_hotalloc_allocator_.deallocate(fabsim_hotalloc_block_, 1);     \
    }                                                                       \
  } while (0)
