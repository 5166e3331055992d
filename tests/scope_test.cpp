// FabricScope-Check, dynamic half: the InvariantMonitor's scope audit
// (owned_access / shared_access inside the dispatch bracket, reached
// through the FABSIM_AUDIT_* traps of src/sim/scope.hpp), the digest-
// transparency pin, and the mutation self-test — the deliberately
// mislabeled post() seam (SwitchConfig::mutation_mislabel_wire_scope)
// must be caught on live traffic, proving the runtime gate can actually
// fail. scripts/scope_check.py --mutation proves the same for the static
// half. The suite keeps the audit's historical name so the test IDs
// stay stable.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "sim/engine.hpp"
#include "topo/spec.hpp"
#include "verbs/verbs.hpp"

namespace fabsim {
namespace {

// --- Scope audit unit semantics ---------------------------------------

TEST(ScopeAuditor, ConfinedEventMayOnlyTouchItsOwnNode) {
  check::InvariantMonitor monitor(/*fatal=*/false);

  monitor.begin_event(us(1), /*scope=*/2);
  monitor.owned_access(check::Layer::kHw, /*owner_node=*/2, "own node");
  EXPECT_EQ(monitor.scope_violations(), 0u);
  monitor.owned_access(check::Layer::kHw, /*owner_node=*/3, "foreign node");
  EXPECT_EQ(monitor.scope_violations(), 1u);
  monitor.end_event();

  ASSERT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations().front().rule, "scope_confinement");
  EXPECT_GE(monitor.scope_checks(), 2u);
}

TEST(ScopeAuditor, SharedStateRequiresUnconfinedScope) {
  check::InvariantMonitor monitor(/*fatal=*/false);

  // Scope -1 ("touches anything") events may touch shared state...
  monitor.begin_event(us(1), /*scope=*/-1);
  monitor.shared_access(check::Layer::kHw, /*node=*/0, "fabric graph");
  monitor.owned_access(check::Layer::kHw, /*owner_node=*/5, "any node");
  EXPECT_EQ(monitor.scope_violations(), 0u);
  monitor.end_event();

  // ...confined events may not.
  monitor.begin_event(us(2), /*scope=*/4);
  monitor.shared_access(check::Layer::kHw, /*node=*/4, "fabric graph");
  EXPECT_EQ(monitor.scope_violations(), 1u);
  monitor.end_event();
  EXPECT_EQ(monitor.violations().front().rule, "scope_shared_state");
}

TEST(ScopeAuditor, InactiveOutsideDispatchAndThrowsWithoutMonitor) {
  check::InvariantMonitor monitor;  // fatal: the first violation throws

  // Accesses outside any dispatched event (setup code) are not audited.
  monitor.owned_access(check::Layer::kHw, /*owner_node=*/9, "setup");
  EXPECT_EQ(monitor.scope_checks(), 0u);
  EXPECT_EQ(monitor.scope_violations(), 0u);

  monitor.begin_event(us(1), /*scope=*/1);
  EXPECT_THROW(monitor.owned_access(check::Layer::kHw, /*owner_node=*/2, "foreign"),
               check::InvariantViolationError);
  monitor.end_event();
}

// --- Whole-stack runs -------------------------------------------------

struct WriteRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};

/// How a run attaches its counting monitor.
enum class Audit {
  kNone,           ///< nothing attached by the test
  kEnableChecks,   ///< Cluster::enable_checks, the FABSIM_CHECK path
  kAttachMonitor,  ///< Cluster::attach_monitor alone, FabricExplore's path
};

// Three concurrent RDMA Writes into the highest node, the
// tests/topo_test.cpp traffic shape; works on any fabric the profile
// names.
WriteRun run_writes(const core::NetworkProfile& profile, int nodes, Audit audit) {
  core::Cluster cluster(nodes, profile);
  check::InvariantMonitor own(/*fatal=*/false);
  check::InvariantMonitor* monitor = nullptr;
  if (audit == Audit::kEnableChecks) monitor = &cluster.enable_checks(/*fatal=*/false);
  if (audit == Audit::kAttachMonitor) {
    cluster.attach_monitor(own);
    monitor = &own;
  }

  const int dst_node = nodes - 1;
  const std::uint32_t len = 8 * 1024;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  for (int s = 0; s < 3 && s < dst_node; ++s) {
    auto& src = cluster.node(s).mem().alloc(len, false);
    auto& dst = cluster.node(dst_node).mem().alloc(len, false);
    cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
    auto dst_qp = cluster.device(dst_node).create_qp(*cqs.back(), *cqs.back());
    auto src_qp = cluster.device(s).create_qp(*cqs.back(), *cqs.back());
    cluster.device(dst_node).establish(*dst_qp, *src_qp);
    cluster.engine().spawn([](core::Cluster& c, verbs::QueuePair& qp, int sender, int sink,
                              std::uint64_t sa, std::uint64_t da, std::uint32_t n) -> Task<> {
      auto lkey = co_await c.device(sender).reg_mr(sa, n);
      auto rkey = co_await c.device(sink).reg_mr(da, n);
      auto watch = c.device(sink).watch_placement(da, n);
      co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {sa, n, lkey},
                                          .remote_addr = da,
                                          .rkey = rkey});
      co_await watch->wait();
    }(cluster, *src_qp, s, dst_node, src.addr(), dst.addr(), len));
    qps.push_back(std::move(dst_qp));
    qps.push_back(std::move(src_qp));
  }
  cluster.engine().run();

  WriteRun run{cluster.engine().run_digest(), cluster.engine().events_processed()};
  if (monitor != nullptr) {
    run.checks = monitor->scope_checks();
    run.violations = monitor->scope_violations();
  }
  return run;
}

core::NetworkProfile clos_profile(bool mislabel_wire_scope) {
  core::NetworkProfile profile = core::iwarp_profile();
  profile.fabric = topo::FabricSpec{2, 8, 1.0, hw::FlowControl::kLossy};
  profile.switch_cfg.mutation_mislabel_wire_scope = mislabel_wire_scope;
  return profile;
}

// The audit is an observer: attaching the monitor must not perturb the
// schedule. Same workload with and without it -> byte-identical digest.
TEST(ScopeAuditor, AttachedAuditorLeavesRunDigestIdentical) {
  const core::NetworkProfile profile = core::iwarp_profile();
  const WriteRun plain = run_writes(profile, 4, Audit::kNone);
  const WriteRun audited = run_writes(profile, 4, Audit::kEnableChecks);
  EXPECT_EQ(plain.digest, audited.digest);
  EXPECT_EQ(plain.events, audited.events);
  EXPECT_GT(audited.checks, 0u);       // the traps actually fired
  EXPECT_EQ(audited.violations, 0u);   // and the labels were honest
}

// A routed (multi-switch) run exercises the Switch shared-state traps
// too; an honestly-labelled tree stays clean under audit.
TEST(ScopeAuditor, CleanClosRunAuditsCleanly) {
  const WriteRun r = run_writes(clos_profile(/*mislabel_wire_scope=*/false), 8,
                                Audit::kEnableChecks);
  EXPECT_GT(r.checks, 0u);
  EXPECT_EQ(r.violations, 0u);
}

// The mutation self-test: arm the deliberately mislabeled wire-hop post
// (src/hw/fabric.cpp labels the switch-internal admit event with the
// frame's source node instead of scope -1). The Switch's shared-state
// trap must catch the lie on every routed frame.
TEST(ScopeAuditor, CatchesMislabeledWireScopeMutation) {
  const WriteRun r = run_writes(clos_profile(/*mislabel_wire_scope=*/true), 8,
                                Audit::kEnableChecks);
  EXPECT_GT(r.violations, 0u);
}

// Any attached monitor runs the scope audit, not only the one
// enable_checks() builds: FabricExplore attaches its own through
// Cluster::attach_monitor and must catch the same lie.
TEST(MonitorAudit, AttachMonitorAloneCatchesMislabeledWireScope) {
  const WriteRun clean = run_writes(clos_profile(/*mislabel_wire_scope=*/false), 8,
                                    Audit::kAttachMonitor);
  EXPECT_GT(clean.checks, 0u);
  EXPECT_EQ(clean.violations, 0u);
  const WriteRun mutated = run_writes(clos_profile(/*mislabel_wire_scope=*/true), 8,
                                      Audit::kAttachMonitor);
  EXPECT_GT(mutated.violations, 0u);
}

}  // namespace
}  // namespace fabsim
