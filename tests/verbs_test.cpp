// Unit tests for the common verbs layer and the calibration profiles'
// internal consistency.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/calibration.hpp"
#include "mpi/rank.hpp"
#include "hw/cpu.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "ib/hca.hpp"
#include "iwarp/rnic.hpp"
#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::verbs {
namespace {

TEST(CompletionQueue, PollFifoOrder) {
  Engine engine;
  CompletionQueue cq(engine);
  EXPECT_FALSE(cq.poll().has_value());
  cq.push(Completion{1, Completion::Type::kSend, 10, 0});
  cq.push(Completion{2, Completion::Type::kRecv, 20, 1});
  EXPECT_EQ(cq.depth(), 2u);
  EXPECT_EQ(cq.poll()->wr_id, 1u);
  EXPECT_EQ(cq.poll()->wr_id, 2u);
  EXPECT_FALSE(cq.poll().has_value());
}

TEST(CompletionQueue, NextCompletionBlocksUntilPush) {
  Engine engine;
  CompletionQueue cq(engine);
  hw::HostCpu cpu(engine);
  Time got_at = 0;
  std::uint64_t got_id = 0;
  engine.spawn([](Engine& e, CompletionQueue& q, hw::HostCpu& c, Time& at,
                  std::uint64_t& id) -> Task<> {
    const Completion completion = co_await next_completion(q, c, ns(100));
    at = e.now();
    id = completion.wr_id;
  }(engine, cq, cpu, got_at, got_id));
  engine.post(us(5), [&cq] { cq.push(Completion{42, Completion::Type::kSend, 0, 0}); });
  engine.run();
  EXPECT_EQ(got_id, 42u);
  EXPECT_EQ(got_at, us(5) + ns(100));  // wake at push, pay one poll cost
}

TEST(Establish, RejectsConnectedQpsAndMixedTechnologies) {
  Engine engine;
  hw::Switch fabric(engine, hw::SwitchConfig{Rate::gbit_per_sec(10.0), ns(450), ns(100)});
  const hw::PciConfig pcie{Rate::mb_per_sec(2000.0), ns(250)};
  hw::Node node0(engine, 0, pcie), node1(engine, 1, pcie), node2(engine, 2, pcie);
  iwarp::Rnic rnic0(node0, fabric, iwarp::RnicConfig{});
  iwarp::Rnic rnic1(node1, fabric, iwarp::RnicConfig{});
  ib::Hca hca(node2, fabric, ib::HcaConfig{});
  CompletionQueue cq(engine);
  auto a = rnic0.create_qp(cq, cq);
  auto b = rnic1.create_qp(cq, cq);
  auto c = rnic1.create_qp(cq, cq);
  auto x = hca.create_qp(cq, cq);
  rnic0.establish(*a, *b);

  // A connected QP cannot be connected again; its would-be peer stays free.
  EXPECT_THROW(rnic1.establish(*c, *a), std::logic_error);
  EXPECT_THROW(rnic1.establish(*b, *c), std::logic_error);

  // An iWARP QP cannot pair with an IB QP, from either side.
  EXPECT_ANY_THROW(rnic1.establish(*c, *x));
  EXPECT_ANY_THROW(hca.establish(*x, *c));

  // No failed call left a half-wired connection behind: the first pair
  // is still up, and the bystanders can still be connected.
  EXPECT_TRUE(a->connected());
  EXPECT_TRUE(b->connected());
  EXPECT_FALSE(c->connected());
  EXPECT_FALSE(x->connected());
  auto d = rnic0.create_qp(cq, cq);
  rnic1.establish(*c, *d);
  EXPECT_TRUE(c->connected());
  EXPECT_TRUE(d->connected());
}

TEST(CompletionQueue, NextCompletionReturnsImmediatelyWhenReady) {
  Engine engine;
  CompletionQueue cq(engine);
  hw::HostCpu cpu(engine);
  cq.push(Completion{7, Completion::Type::kRdmaWrite, 64, 3});
  Time got_at = 1;
  engine.spawn([](Engine& e, CompletionQueue& q, hw::HostCpu& c, Time& at) -> Task<> {
    const Completion completion = co_await next_completion(q, c, ns(100));
    EXPECT_EQ(completion.qp_num, 3);
    at = e.now();
  }(engine, cq, cpu, got_at));
  engine.run();
  EXPECT_EQ(got_at, ns(100));
}

}  // namespace
}  // namespace fabsim::verbs

namespace fabsim::core {
namespace {

class ProfileSanity : public ::testing::TestWithParam<Network> {};

INSTANTIATE_TEST_SUITE_P(Networks, ProfileSanity,
                         ::testing::Values(Network::kIwarp, Network::kIb, Network::kMxoe,
                                           Network::kMxom),
                         [](const auto& sweep) { return network_name(sweep.param); });

TEST_P(ProfileSanity, RatesAndCostsArePhysical) {
  const NetworkProfile p = profile(GetParam());
  EXPECT_GT(p.switch_cfg.link_rate.mb_per_sec_value(), 900.0);
  EXPECT_LE(p.switch_cfg.link_rate.mb_per_sec_value(), 1250.0 + 1e-6);
  EXPECT_GT(p.pcie.rate.mb_per_sec_value(), 500.0);
  EXPECT_GT(p.cpu.memcpy_warm_rate.mb_per_sec_value(),
            p.cpu.memcpy_cold_rate.mb_per_sec_value())
      << "cache must be faster than DRAM";
  EXPECT_GT(p.mpi.eager_buffers, p.mpi.control_slots);
  EXPECT_GT(p.mpi.pin_cache_bytes, 0u);
}

TEST_P(ProfileSanity, MpiTagSpaceAccommodatesCollectives) {
  EXPECT_LT(mpi::Rank::kCollectiveTagBase + 1024, mpi::Rank::kContextStride);
}

TEST(ProfileSanity, EngineArchitecturesDiffer) {
  const auto iw = iwarp_profile();
  // iWARP: pipelined (occupancy well below latency).
  EXPECT_LT(iw.rnic.tx_occupancy * 4, iw.rnic.tx_latency);
  // IB: processor-based engine expressed as occupancy == service (no
  // separate latency knob to compare), but its context cache must be
  // small enough to produce the Figure-2 knee inside the tested range.
  const auto ib = ib_profile();
  EXPECT_GE(ib.hca.context_cache_entries, 2);
  EXPECT_LE(ib.hca.context_cache_entries, 16);
  EXPECT_GT(ib.hca.context_miss_penalty, us(0.5));
}

TEST(ProfileSanity, RegistrationCostOrdering) {
  // Fig 6 depends on: IB registration most expensive per page, iWARP
  // cheapest of the verbs stacks at large sizes.
  const auto iw = iwarp_profile();
  const auto ib = ib_profile();
  const auto mx = mxom_profile();
  EXPECT_GT(ib.hca.reg.register_per_page, mx.mx.reg.register_per_page);
  EXPECT_GT(mx.mx.reg.register_per_page, iw.rnic.reg.register_per_page);
}

}  // namespace
}  // namespace fabsim::core
