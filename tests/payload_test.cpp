// Payload views end to end: every chunk of a data-carrying message reads
// its slice of one snapshot taken when the message was posted, so the
// bytes placed at the sink are the source as of the post, whatever the
// host writes afterwards and whether or not go-back-N resends the chunks
// from held copies.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"
#include "ib/hca.hpp"
#include "iwarp/rnic.hpp"
#include "mx/endpoint.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::core {
namespace {

/// Not a multiple of any stack's MTU: iWARP 1408, IB 2048, MX 4096.
constexpr std::uint32_t kLen = 10000;
/// Above MX's 32 KB eager limit, and not a multiple of its MTU.
constexpr std::uint32_t kRndvLen = 40000;

/// Never zero (a fresh sink never matches it), and with no period that
/// divides an MTU (a chunk placed at the wrong offset shows).
std::vector<std::byte> pattern(std::size_t n, std::uint32_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t x = static_cast<std::uint32_t>(i) * 2654435761u + seed;
    x ^= x >> 16;
    v[i] = static_cast<std::byte>(x | 1);
  }
  return v;
}

void fill(hw::AddressSpace& mem, std::uint64_t addr, const std::vector<std::byte>& bytes) {
  std::memcpy(mem.window(addr, bytes.size()).data(), bytes.data(), bytes.size());
}

void scribble(hw::AddressSpace& mem, std::uint64_t addr, std::uint32_t len) {
  std::memset(mem.window(addr, len).data(), 0xEE, len);
}

bool holds(hw::AddressSpace& mem, std::uint64_t addr, const std::vector<std::byte>& bytes) {
  return std::memcmp(mem.window(addr, bytes.size()).data(), bytes.data(), bytes.size()) == 0;
}

/// Drop the 2nd and 5th frames on the wire, so go-back-N resends them
/// (and the frames sent after them) from its held copies.
void drop_two(fault::FaultPlan& plan) {
  plan.nth_frame(2, fault::FaultAction::kDrop).nth_frame(5, fault::FaultAction::kDrop);
}

// ---------------------------------------------------------------------------
// Verbs: RDMA Write, Send and RDMA Read on iWARP and IB
// ---------------------------------------------------------------------------

struct VerbsCase {
  Network network;
  verbs::Opcode opcode;
  bool lossy;
};

std::string case_name(const ::testing::TestParamInfo<VerbsCase>& info) {
  const char* op = info.param.opcode == verbs::Opcode::kSend        ? "Send"
                   : info.param.opcode == verbs::Opcode::kRdmaWrite ? "Write"
                                                                    : "Read";
  return std::string(network_name(info.param.network)) + op +
         (info.param.lossy ? "Lossy" : "Lossless");
}

class VerbsViews : public ::testing::TestWithParam<VerbsCase> {};

INSTANTIATE_TEST_SUITE_P(
    Stacks, VerbsViews,
    ::testing::Values(VerbsCase{Network::kIwarp, verbs::Opcode::kRdmaWrite, false},
                      VerbsCase{Network::kIwarp, verbs::Opcode::kSend, false},
                      VerbsCase{Network::kIwarp, verbs::Opcode::kRdmaRead, false},
                      VerbsCase{Network::kIwarp, verbs::Opcode::kRdmaWrite, true},
                      VerbsCase{Network::kIwarp, verbs::Opcode::kSend, true},
                      VerbsCase{Network::kIwarp, verbs::Opcode::kRdmaRead, true},
                      VerbsCase{Network::kIb, verbs::Opcode::kRdmaWrite, false},
                      VerbsCase{Network::kIb, verbs::Opcode::kSend, false},
                      VerbsCase{Network::kIb, verbs::Opcode::kRdmaRead, false},
                      VerbsCase{Network::kIb, verbs::Opcode::kRdmaWrite, true},
                      VerbsCase{Network::kIb, verbs::Opcode::kSend, true},
                      VerbsCase{Network::kIb, verbs::Opcode::kRdmaRead, true}),
    case_name);

/// Node 0 posts one work request of kLen bytes. Write and Send move node
/// 0's buffer to node 1, and node 0 scribbles over its source as soon as
/// the post returns. Read pulls node 1's buffer to node 0, and node 1
/// scribbles over its source once the first response chunk has landed,
/// so the later chunks must come from the responder's snapshot.
TEST_P(VerbsViews, SinkHoldsTheSourceAsOfThePost) {
  const VerbsCase c = GetParam();
  fault::FaultPlan plan;  // outlives the cluster's engine
  drop_two(plan);
  Cluster cluster(2, c.network);
  if (c.lossy) cluster.engine().set_fault_injector(&plan);
  ASSERT_EQ(cluster.fabric().can_lose(), c.lossy);

  const bool read = c.opcode == verbs::Opcode::kRdmaRead;
  hw::AddressSpace& src_mem = cluster.node(read ? 1 : 0).mem();
  hw::AddressSpace& dst_mem = cluster.node(read ? 0 : 1).mem();
  hw::Buffer& src = src_mem.alloc(kLen);
  hw::Buffer& dst = dst_mem.alloc(kLen);
  const auto payload = pattern(kLen, 7);
  fill(src_mem, src.addr(), payload);

  verbs::CompletionQueue cq0(cluster.engine()), cq1(cluster.engine());
  auto qp0 = cluster.device(0).create_qp(cq0, cq0);
  auto qp1 = cluster.device(1).create_qp(cq1, cq1);
  cluster.device(0).establish(*qp0, *qp1);

  bool done = false;
  cluster.engine().spawn([](Cluster& cl, verbs::QueuePair& q0, verbs::QueuePair& q1,
                            verbs::CompletionQueue& c0, verbs::CompletionQueue& c1,
                            verbs::Opcode opcode, std::uint64_t s, std::uint64_t d,
                            bool& finished) -> Task<> {
    const bool is_read = opcode == verbs::Opcode::kRdmaRead;
    const verbs::MrKey local = co_await cl.device(0).reg_mr(is_read ? d : s, kLen);
    const verbs::MrKey remote = co_await cl.device(1).reg_mr(is_read ? s : d, kLen);
    if (opcode == verbs::Opcode::kSend) {
      co_await q1.post_recv(verbs::RecvWr{.wr_id = 9, .sge = {d, kLen, remote}});
    }
    co_await q0.post_send(verbs::SendWr{.wr_id = 1,
                                        .opcode = opcode,
                                        .sge = {is_read ? d : s, kLen, local},
                                        .remote_addr = is_read ? s : d,
                                        .rkey = remote});
    if (!is_read) scribble(cl.node(0).mem(), s, kLen);
    const verbs::Completion sent = co_await verbs::next_completion(c0, cl.node(0).cpu(), 0);
    EXPECT_EQ(sent.status, verbs::Completion::Status::kSuccess);
    if (opcode == verbs::Opcode::kSend) {
      const verbs::Completion got = co_await verbs::next_completion(c1, cl.node(1).cpu(), 0);
      EXPECT_EQ(got.byte_len, kLen);
    }
    finished = true;
  }(cluster, *qp0, *qp1, cq0, cq1, c.opcode, src.addr(), dst.addr(), done));
  if (read) {
    // The first response chunk lands before the last one leaves the
    // responder (the message is several MTUs long).
    std::vector<std::byte> head(payload.begin(), payload.begin() + 1024);
    cluster.engine().spawn([](Cluster& cl, std::uint64_t s, std::uint64_t d,
                              std::vector<std::byte> first) -> Task<> {
      for (int i = 0; i < 1'000'000 && !holds(cl.node(0).mem(), d, first); ++i) {
        co_await cl.engine().sleep(ns(100));
      }
      scribble(cl.node(1).mem(), s, kLen);
    }(cluster, src.addr(), dst.addr(), std::move(head)));
  }
  cluster.engine().run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(holds(dst_mem, dst.addr(), payload));
  EXPECT_FALSE(holds(src_mem, src.addr(), payload)) << "the source was overwritten";
  if (c.lossy) {
    EXPECT_EQ(plan.frames_dropped(), 2u);
    const std::uint64_t resent =
        c.network == Network::kIwarp
            ? cluster.rnic(0).retransmits() + cluster.rnic(1).retransmits()
            : cluster.hca(0).retransmits() + cluster.hca(1).retransmits();
    EXPECT_GT(resent, 0u) << "go-back-N resent from held copies";
  }
}

// ---------------------------------------------------------------------------
// MX: eager (receive posted first, or unexpected) and rendezvous
// ---------------------------------------------------------------------------

enum class MxPath { kEagerExpected, kEagerUnexpected, kRendezvous };

struct MxCase {
  MxPath path;
  bool lossy;
};

std::string mx_case_name(const ::testing::TestParamInfo<MxCase>& info) {
  const char* path = info.param.path == MxPath::kEagerExpected     ? "EagerExpected"
                     : info.param.path == MxPath::kEagerUnexpected ? "EagerUnexpected"
                                                                   : "Rendezvous";
  return std::string(path) + (info.param.lossy ? "Lossy" : "Lossless");
}

class MxViews : public ::testing::TestWithParam<MxCase> {};

INSTANTIATE_TEST_SUITE_P(Paths, MxViews,
                         ::testing::Values(MxCase{MxPath::kEagerExpected, false},
                                           MxCase{MxPath::kEagerUnexpected, false},
                                           MxCase{MxPath::kRendezvous, false},
                                           MxCase{MxPath::kEagerExpected, true},
                                           MxCase{MxPath::kEagerUnexpected, true},
                                           MxCase{MxPath::kRendezvous, true}),
                         mx_case_name);

/// Node 0 sends to node 1 and scribbles over its source as soon as isend
/// returns; the receive is posted before the send, or (unexpected) only
/// once the whole message is buffered at the receiver.
TEST_P(MxViews, ReceiveHoldsTheSourceAsOfTheSend) {
  const MxCase c = GetParam();
  fault::FaultPlan plan;  // outlives the cluster's engine
  drop_two(plan);
  Cluster cluster(2, Network::kMxoe);
  if (c.lossy) cluster.engine().set_fault_injector(&plan);
  ASSERT_EQ(cluster.fabric().can_lose(), c.lossy);

  const std::uint32_t len = c.path == MxPath::kRendezvous ? kRndvLen : kLen;
  hw::Buffer& src = cluster.node(0).mem().alloc(len);
  hw::Buffer& dst = cluster.node(1).mem().alloc(len);
  const auto payload = pattern(len, 3);
  fill(cluster.node(0).mem(), src.addr(), payload);

  bool done = false;
  cluster.engine().spawn([](Cluster& cl, MxPath path, std::uint32_t n, std::uint64_t s,
                            std::uint64_t d, bool& finished) -> Task<> {
    mx::Endpoint& tx = cl.endpoint(0);
    mx::Endpoint& rx = cl.endpoint(1);
    mx::RequestPtr recv;
    if (path != MxPath::kEagerUnexpected) recv = co_await rx.irecv(d, n, 5, ~0ull);
    auto send = co_await tx.isend(s, n, rx.port(), 5);
    scribble(cl.node(0).mem(), s, n);
    co_await tx.wait(send);
    if (path == MxPath::kEagerUnexpected) {
      for (int i = 0; i < 100'000; ++i) {
        if ((co_await rx.iprobe(5, ~0ull)).found) break;
        co_await cl.engine().sleep(us(1));
      }
      EXPECT_EQ(rx.unexpected_depth(), 1u);
      recv = co_await rx.irecv(d, n, 5, ~0ull);
    }
    co_await rx.wait(recv);
    EXPECT_FALSE(recv->failed());
    EXPECT_EQ(recv->length(), n);
    finished = true;
  }(cluster, c.path, len, src.addr(), dst.addr(), done));
  cluster.engine().run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(holds(cluster.node(1).mem(), dst.addr(), payload));
  if (c.lossy) {
    EXPECT_EQ(plan.frames_dropped(), 2u);
    EXPECT_GT(cluster.endpoint(0).resends() + cluster.endpoint(1).resends(), 0u)
        << "go-back-N resent from held copies";
  }
}

}  // namespace
}  // namespace fabsim::core
