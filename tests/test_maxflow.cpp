#include "graph/maxflow.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace ftr {
namespace {

TEST(MaxFlow, SingleEdge) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 5);
  net.add_edge(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
}

TEST(MaxFlow, ParallelAdds) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 2);
  net.add_edge(1, 3, 2);
  net.add_edge(0, 2, 3);
  net.add_edge(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(MaxFlow, ClassicCLRSExample) {
  // The textbook 6-node example with max flow 23.
  FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_EQ(net.max_flow(0, 5), 23);
}

TEST(MaxFlow, NoPathIsZero) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 4);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, RespectsLimit) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 10);
  EXPECT_EQ(net.max_flow(0, 1, 4), 4);
  // Continuing accumulates the remaining capacity.
  EXPECT_EQ(net.max_flow(0, 1), 6);
}

TEST(MaxFlow, FlowOnAndResidual) {
  FlowNetwork net(3);
  const auto e01 = net.add_edge(0, 1, 2);
  const auto e12 = net.add_edge(1, 2, 1);
  net.max_flow(0, 2);
  EXPECT_EQ(net.flow_on(e01), 1);
  EXPECT_EQ(net.residual(e01), 1);
  EXPECT_EQ(net.flow_on(e12), 1);
  EXPECT_EQ(net.residual(e12), 0);
}

TEST(MaxFlow, ResidualReachableGivesMinCutSide) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 10);
  net.add_edge(1, 2, 1);  // bottleneck
  net.add_edge(2, 3, 10);
  net.max_flow(0, 3);
  const auto reach = net.residual_reachable(0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(MaxFlow, ConsumeUnitWalksFlowDown) {
  FlowNetwork net(2);
  const auto e = net.add_edge(0, 1, 2);
  net.max_flow(0, 1);
  EXPECT_EQ(net.flow_on(e), 2);
  net.consume_unit(e);
  EXPECT_EQ(net.flow_on(e), 1);
  net.consume_unit(e);
  EXPECT_EQ(net.flow_on(e), 0);
  EXPECT_THROW(net.consume_unit(e), ContractViolation);
}

TEST(MaxFlow, ZeroCapacityEdgeCarriesNothing) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 0);
  EXPECT_EQ(net.max_flow(0, 1), 0);
}

TEST(MaxFlow, SourceEqualsSinkRejected) {
  FlowNetwork net(2);
  EXPECT_THROW(net.max_flow(1, 1), ContractViolation);
}

TEST(MaxFlow, BipartiteMatchingShape) {
  // 3x3 bipartite unit matching via flow: perfect matching of size 3.
  FlowNetwork net(8);  // 0 = s, 1..3 left, 4..6 right, 7 = t
  for (std::uint32_t l = 1; l <= 3; ++l) net.add_edge(0, l, 1);
  for (std::uint32_t r = 4; r <= 6; ++r) net.add_edge(r, 7, 1);
  net.add_edge(1, 4, 1);
  net.add_edge(1, 5, 1);
  net.add_edge(2, 5, 1);
  net.add_edge(3, 6, 1);
  EXPECT_EQ(net.max_flow(0, 7), 3);
}

TEST(MaxFlow, OutEdgesKeepInsertionOrder) {
  FlowNetwork net(3);
  const auto a = net.add_edge(0, 1, 1);
  const auto b = net.add_edge(2, 0, 1);
  const auto c = net.add_edge(0, 2, 1);
  net.freeze();
  const auto row = net.out_edges(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], a);
  EXPECT_EQ(row[1], b ^ 1);  // reverse arc of 2 -> 0
  EXPECT_EQ(row[2], c);
}

TEST(MaxFlow, AddEdgeAfterFreezeRejected) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 1);
  EXPECT_EQ(net.max_flow(0, 1), 1);  // freezes
  EXPECT_THROW(net.add_edge(1, 0, 1), ContractViolation);
}

TEST(MaxFlow, SetCapacityRearmsArcAndItsReverse) {
  FlowNetwork net(3);
  const auto e01 = net.add_edge(0, 1, 2);
  const auto e12 = net.add_edge(1, 2, 2);
  EXPECT_EQ(net.max_flow(0, 2), 2);
  EXPECT_EQ(net.residual(e01 ^ 1), 2);
  // Re-arming clears the flow on both arcs of each pair.
  net.set_capacity(e01, 3);
  net.set_capacity(e12, 1);
  EXPECT_EQ(net.flow_on(e01), 0);
  EXPECT_EQ(net.residual(e01), 3);
  EXPECT_EQ(net.residual(e01 ^ 1), 0);
  EXPECT_EQ(net.max_flow(0, 2), 1);
  // A zero-capacity arc is invisible to the next query.
  net.set_capacity(e01, 0);
  net.set_capacity(e12, 5);
  EXPECT_EQ(net.max_flow(0, 2), 0);
  EXPECT_THROW(net.set_capacity(e01 ^ 1, 1), ContractViolation);  // reverse
  EXPECT_THROW(net.set_capacity(e12, -1), ContractViolation);
}

TEST(MaxFlow, RearmedNetworkMatchesFreshOne) {
  // After a query, re-arming every arc must leave no trace of it: the next
  // flow equals that of a network built with those capacities, arc by arc.
  // Node 4 hangs off a level-1 node, so it is labelled after the sink in
  // the first BFS of a phase and the early exit skips it.
  auto build = [](FlowNetwork& net, bool with_extra) {
    net.add_edge(0, 1, 1);
    net.add_edge(0, 2, 1);
    net.add_edge(1, 3, 1);
    net.add_edge(2, 3, 1);
    net.add_edge(1, 4, with_extra ? 1 : 0);
    net.add_edge(4, 5, 1);
    net.add_edge(5, 3, 1);
    net.add_edge(2, 4, 1);
  };
  FlowNetwork fresh(6);
  build(fresh, true);
  FlowNetwork reused(6);
  build(reused, false);
  EXPECT_EQ(reused.max_flow(0, 3), 2);
  reused.set_capacity(8, 1);  // the 1 -> 4 arc, fifth added
  for (std::size_t id : {0u, 2u, 4u, 6u, 10u, 12u, 14u}) {
    reused.set_capacity(id, 1);
  }
  EXPECT_EQ(reused.max_flow(0, 3), fresh.max_flow(0, 3));
  for (std::size_t id = 0; id < 16; id += 2) {
    EXPECT_EQ(reused.flow_on(id), fresh.flow_on(id)) << "arc " << id;
  }
}

}  // namespace
}  // namespace ftr
