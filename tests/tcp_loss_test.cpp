// iWARP TCP reliability property suite: parameterized loss-rate x seed
// sweep, each seed driving an engine-attached FaultPlan. Whatever the
// fabric drops, the byte stream delivered to user memory must be exact,
// and progress must never wedge.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"

namespace fabsim::core {
namespace {

/// Forwards every frame to `plan` and counts the drops of frames that
/// node 0 sent.
class Node0Drops final : public fault::FaultInjector {
 public:
  explicit Node0Drops(fault::FaultPlan& plan) : plan_(plan) {}
  fault::FaultDecision on_frame(const fault::FaultSite& site) override {
    const fault::FaultDecision decision = plan_.on_frame(site);
    if (decision.action == fault::FaultAction::kDrop && site.src_node == 0) ++count_;
    return decision;
  }
  bool active() const override { return plan_.active(); }
  std::uint64_t count() const { return count_; }

 private:
  fault::FaultPlan& plan_;
  std::uint64_t count_ = 0;
};

class LossSweep : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Grid, LossSweep,
                         ::testing::Combine(::testing::Values(0.002, 0.01, 0.04, 0.10),
                                            ::testing::Values(1u, 42u, 20260706u)),
                         [](const auto& sweep) {
                           return "loss" +
                                  std::to_string(static_cast<int>(std::get<0>(sweep.param) *
                                                                  1000)) +
                                  "permil_seed" + std::to_string(std::get<1>(sweep.param));
                         });

TEST_P(LossSweep, RdmaWriteSurvivesLoss) {
  const auto [loss, seed] = GetParam();
  NetworkProfile p = iwarp_profile();
  p.rnic.rto = us(250);
  Cluster cluster(2, p);
  fault::FaultPlan plan(seed);
  plan.drop_probability(loss);
  Node0Drops node0_drops(plan);
  cluster.engine().set_fault_injector(&node0_drops);

  verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq0, cq0);
  auto qp1 = cluster.device(1).create_qp(cq1, cq1);
  cluster.device(0).establish(*qp0, *qp1);

  const std::uint32_t len = 192 * 1024;
  auto& src = cluster.node(0).mem().alloc(len);
  auto& dst = cluster.node(1).mem().alloc(len);
  std::vector<std::byte> payload(len);
  for (std::size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<std::byte>((i * 13 + seed) & 0xff);
  }
  std::memcpy(cluster.node(0).mem().window(src.addr(), len).data(), payload.data(), len);

  cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, std::uint64_t s, std::uint64_t d,
                            std::uint32_t n) -> Task<> {
    auto lkey = co_await c.device(0).reg_mr(s, n);
    auto rkey = co_await c.device(1).reg_mr(d, n);
    auto watch = c.device(1).watch_placement(d, n);
    co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = verbs::Opcode::kRdmaWrite,
                                        .sge = {s, n, lkey},
                                        .remote_addr = d,
                                        .rkey = rkey});
    co_await watch->wait();
  }(cluster, *qp0, src.addr(), dst.addr(), len));
  cluster.engine().run();

  ASSERT_EQ(cluster.engine().live_processes(), 0u) << "transfer wedged under loss";
  auto view = cluster.node(1).mem().window(dst.addr(), len);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), len), 0);
  if (node0_drops.count() > 0) {
    EXPECT_GT(cluster.rnic(0).retransmits(), 0u) << "a dropped data segment must be resent";
  }
}

TEST_P(LossSweep, SendRecvSurvivesLoss) {
  const auto [loss, seed] = GetParam();
  NetworkProfile p = iwarp_profile();
  p.rnic.rto = us(250);
  Cluster cluster(2, p);
  fault::FaultPlan plan(seed + 7);
  plan.drop_probability(loss);
  cluster.engine().set_fault_injector(&plan);

  verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq0, cq0);
  auto qp1 = cluster.device(1).create_qp(cq1, cq1);
  cluster.device(0).establish(*qp0, *qp1);

  const std::uint32_t msg = 5000;
  const int count = 12;
  auto& src = cluster.node(0).mem().alloc(msg);
  auto& dst = cluster.node(1).mem().alloc(static_cast<std::uint64_t>(msg) * count);

  cluster.engine().spawn([](Cluster& c, verbs::QueuePair& q0, verbs::QueuePair& q1,
                            verbs::CompletionQueue& rcq, std::uint64_t s, std::uint64_t d,
                            std::uint32_t m, int n) -> Task<> {
    auto lkey = co_await c.device(0).reg_mr(s, m);
    auto rkey = co_await c.device(1).reg_mr(d, static_cast<std::uint64_t>(m) * n);
    for (int i = 0; i < n; ++i) {
      co_await q1.post_recv(verbs::RecvWr{static_cast<std::uint64_t>(i),
                                          {d + static_cast<std::uint64_t>(i) * m, m, rkey}});
    }
    for (int i = 0; i < n; ++i) {
      co_await q0.post_send(verbs::SendWr{.wr_id = 100u + static_cast<std::uint32_t>(i),
                                          .opcode = verbs::Opcode::kSend,
                                          .sge = {s, m, lkey}});
    }
    // All receives must complete in FIFO order despite retransmissions.
    for (int i = 0; i < n; ++i) {
      auto completion = co_await verbs::next_completion(rcq, c.node(1).cpu(), ns(200));
      EXPECT_EQ(completion.wr_id, static_cast<std::uint64_t>(i)) << "receive order broken";
    }
  }(cluster, *qp0, *qp1, cq1, src.addr(), dst.addr(), msg, count));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST(TcpLoss, ThroughputDegradesMonotonically) {
  auto goodput = [](double loss) {
    NetworkProfile p = iwarp_profile();
    p.rnic.rto = us(250);
    Cluster cluster(2, p);
    fault::FaultPlan plan;
    plan.drop_probability(loss);
    cluster.engine().set_fault_injector(&plan);
    verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
    auto qp0 = cluster.device(0).create_qp(cq0, cq0);
    auto qp1 = cluster.device(1).create_qp(cq1, cq1);
    cluster.device(0).establish(*qp0, *qp1);
    const std::uint32_t len = 1 << 20;
    auto& src = cluster.node(0).mem().alloc(len, false);
    auto& dst = cluster.node(1).mem().alloc(len, false);
    Time elapsed = 0;
    cluster.engine().spawn([](Cluster& c, verbs::QueuePair& qp, std::uint64_t s,
                              std::uint64_t d, std::uint32_t n, Time* out) -> Task<> {
      auto lkey = co_await c.device(0).reg_mr(s, n);
      auto rkey = co_await c.device(1).reg_mr(d, n);
      auto watch = c.device(1).watch_placement(d, n);
      const Time start = c.engine().now();
      co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {s, n, lkey},
                                          .remote_addr = d,
                                          .rkey = rkey});
      co_await watch->wait();
      *out = c.engine().now() - start;
    }(cluster, *qp0, src.addr(), dst.addr(), len, &elapsed));
    cluster.engine().run();
    return static_cast<double>(len) / to_us(elapsed);
  };
  const double clean = goodput(0.0);
  const double light = goodput(0.005);
  const double heavy = goodput(0.05);
  EXPECT_GT(clean, light);
  EXPECT_GT(light, heavy);
  EXPECT_GT(heavy, 10.0) << "must still make progress at 5% loss";
}

}  // namespace
}  // namespace fabsim::core
