// FabricScope-Check: scope/ownership annotations and the access traps.
//
// The Engine's `post(at, scope, fn)` scope labels are what FabricExplore's
// partial-order reduction trusts: `ready_events_commute` treats two
// co-enabled events with different non-negative scopes as commuting, so
// the explorer never tries their other order. A mislabeled capture
// therefore silently breaks DPOR soundness. This header provides both
// halves of the gate that keeps the labels honest (the static prover and
// the monitor's scope audit):
//
//  1. *Static annotations* — `FABSIM_OWNED_BY(node)`, `FABSIM_SHARED` and
//     `FABSIM_ENGINE_LOCAL` are section markers placed among the member
//     declarations of every class whose state posted continuations touch
//     (NIC/HCA/endpoint/QP/Conn/Switch/Topology...). They expand to
//     nothing at compile time; `scripts/scope_check.py` parses them and
//     proves, per `Engine::post` call site, that the scope label's
//     confinement claim is supported by the lambda's explicit captures
//     (rule 6 of conventions_lint bans `[&]`, so captures are enumerable).
//
//     Vocabulary (see docs/static_analysis.md for the full contract):
//       FABSIM_OWNED_BY(expr)  following members are mutable state of the
//                              node identified by `expr` (e.g. `port_`);
//                              only events labelled with that scope — or
//                              scope -1 — may touch them.
//       FABSIM_SHARED          following members are mutable cross-node
//                              state (switch queues, LFTs, failover
//                              bookkeeping); touching them requires
//                              scope -1 ("conflicts with everything").
//       FABSIM_ENGINE_LOCAL    following members are engine plumbing or
//                              run-constant wiring (Engine*/Tracer*
//                              pointers, configs, peer tables fixed at
//                              build time); safe to read from any scope.
//
//  2. *Dynamic corroboration* — the engine's InvariantMonitor
//     (check/invariant.hpp). The dispatch loop tells it the scope label of
//     the event being dispatched; annotated state entry points call the
//     FABSIM_AUDIT_OWNED / FABSIM_AUDIT_SHARED trap macros below, and an
//     access whose owner does not match the dispatching event's claimed
//     scope is reported as `sim.scope_confinement` /
//     `sim.scope_shared_state`. Any attached monitor runs the traps, so
//     every FABSIM_CHECK bench, the chaos soak and FabricExplore
//     cross-check the static verdicts on real traffic.
#pragma once

#include "check/invariant.hpp"

// --- Static annotation markers (parsed by scripts/scope_check.py) ----------
//
// Section markers: place among member declarations like an access
// specifier; every member that follows (until the next marker) is in the
// declared ownership class. They compile to nothing — the analyzer reads
// the source text.
#define FABSIM_OWNED_BY(owner_expr) static_assert(true, "scope-check section marker")
#define FABSIM_SHARED static_assert(true, "scope-check section marker")
#define FABSIM_ENGINE_LOCAL static_assert(true, "scope-check section marker")

// Mutation seam for the gate's self-test: expands to `clean` unless the
// (runtime) `armed` expression is true. scripts/scope_check.py reads the
// first argument by default and the second under --mutation, so CI can
// prove the static gate actually fails on a mislabeled scope while the
// shipped schedule stays untouched.
#define FABSIM_MUTATION_SCOPE(clean, mutated, armed) ((armed) ? (mutated) : (clean))

// --- Dynamic access traps ---------------------------------------------------
//
// Placed at the entry points posted continuations funnel through (deliver,
// pump, timeout handlers, switch admission, failover). One guarded branch
// when no monitor is attached, like every other FabricCheck hook. `eng`
// must be an Engine (lvalue); evaluated once per macro argument use.
#define FABSIM_AUDIT_OWNED(eng, layer, owner_node, what)                          \
  do {                                                                            \
    if (::fabsim::check::InvariantMonitor* fabsim_monitor_ = (eng).monitor()) {   \
      fabsim_monitor_->owned_access((layer), (owner_node), (what));               \
    }                                                                             \
  } while (0)

#define FABSIM_AUDIT_SHARED(eng, layer, node, what)                               \
  do {                                                                            \
    if (::fabsim::check::InvariantMonitor* fabsim_monitor_ = (eng).monitor()) {   \
      fabsim_monitor_->shared_access((layer), (node), (what));                    \
    }                                                                             \
  } while (0)
