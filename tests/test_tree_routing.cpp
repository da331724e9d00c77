#include "routing/tree_routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "graph/connectivity.hpp"

namespace ftr {
namespace {

TEST(TreeRouting, WidthAndEndpoints) {
  const auto gg = hypercube(3);
  SplitFlowSolver solver(gg.graph);
  const std::vector<Node> m = {3, 5, 6};  // Gamma(7)
  const auto tr = build_tree_routing(solver, 0, m, 3);
  EXPECT_EQ(tr.source, 0u);
  EXPECT_EQ(tr.paths.size(), 3u);
  const auto eps = tr.endpoints();
  EXPECT_EQ(std::set<Node>(eps.begin(), eps.end()).size(), 3u);
  EXPECT_TRUE(validate_tree_routing(gg.graph, tr, m));
}

TEST(TreeRouting, DirectEdgeRuleApplied) {
  const auto gg = hypercube(3);
  SplitFlowSolver solver(gg.graph);
  // Source 1 is adjacent to 3 and 5 in Gamma(7) = {3,5,6}.
  const auto tr = build_tree_routing(solver, 1, {3, 5, 6}, 3);
  int direct = 0;
  for (const auto& p : tr.paths) {
    if (gg.graph.has_edge(1, p.back())) {
      EXPECT_EQ(p.size(), 2u) << "adjacent target must use the direct edge";
      ++direct;
    }
  }
  EXPECT_EQ(direct, 2);
}

TEST(TreeRouting, ThrowsWhenWidthUnreachable) {
  const auto gg = cycle_graph(8);
  SplitFlowSolver solver(gg.graph);
  // Only two disjoint paths exist from 0 into any 2-separator of a cycle.
  EXPECT_THROW(build_tree_routing(solver, 0, {2, 6}, 3), ContractViolation);
}

TEST(TreeRouting, OutOfRangeTargetRejected) {
  const auto gg = torus_graph(4, 4);
  SplitFlowSolver solver(gg.graph);
  try {
    build_tree_routing(solver, 0, {5, 10, 9999}, 2);
    ADD_FAILURE() << "target 9999 was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("9999"), std::string::npos)
        << e.what();
  }
  // The validator refuses such a target set instead of indexing past n.
  const auto tr = build_tree_routing(solver, 0, {5, 10}, 2);
  EXPECT_FALSE(validate_tree_routing(gg.graph, tr, {5, 10, 9999}));
}

TEST(TreeRouting, WidthOneStillWorks) {
  const auto gg = cycle_graph(8);
  SplitFlowSolver solver(gg.graph);
  const auto tr = build_tree_routing(solver, 0, {4}, 1);
  EXPECT_EQ(tr.paths.size(), 1u);
  EXPECT_EQ(tr.paths[0].back(), 4u);
}

TEST(TreeRouting, TrimsKeepingDirectEdgesFirst) {
  const auto gg = complete_bipartite(4, 4);
  SplitFlowSolver solver(gg.graph);
  // Source 0 adjacent to all of {4,5,6,7}; ask for width 2.
  const auto tr = build_tree_routing(solver, 0, {4, 5, 6, 7}, 2);
  ASSERT_EQ(tr.paths.size(), 2u);
  for (const auto& p : tr.paths) EXPECT_EQ(p.size(), 2u);
}

TEST(TreeRouting, PathsStopAtFirstTargetOccurrence) {
  Rng rng(5);
  const auto gg = torus_graph(5, 5);
  SplitFlowSolver solver(gg.graph);
  const std::vector<Node> m = {7, 11, 13, 17, 23};
  const auto tr = build_tree_routing(solver, 0, m, 4);
  const std::set<Node> m_set(m.begin(), m.end());
  for (const auto& p : tr.paths) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_FALSE(m_set.count(p[i]) && i > 0)
          << "path " << path_to_string(p) << " passes through M";
    }
  }
}

TEST(TreeRouting, KillingAllPathsNeedsWidthFaults) {
  // Lemma 1's counting argument, verified literally: any width-1 subset of
  // internal/endpoint nodes cannot break every path.
  const auto gg = hypercube(4);
  SplitFlowSolver solver(gg.graph);
  const std::vector<Node> m = {7, 11, 13, 14};  // Gamma(15)
  const std::uint32_t width = 4;
  const auto tr = build_tree_routing(solver, 0, m, width);
  // Any single fault (not the source) leaves >= width-1 surviving paths.
  for (Node f = 1; f < gg.graph.num_nodes(); ++f) {
    std::size_t surviving = 0;
    for (const auto& p : tr.paths) {
      if (std::find(p.begin(), p.end(), f) == p.end()) ++surviving;
    }
    EXPECT_GE(surviving, width - 1) << "fault " << f;
  }
}

TEST(TreeRouting, ValidatorRejectsSharedInternalNode) {
  const auto gg = grid_graph(3, 3);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 1, 2}, {0, 3, 4, 1}};  // invalid & overlapping
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {2, 1}));
}

TEST(TreeRouting, ValidatorRejectsDuplicateEndpoint) {
  const auto gg = complete_graph(5);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 1}, {0, 2, 1}};  // both end at 1
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {1, 3}));
}

TEST(TreeRouting, ValidatorRejectsMissedDirectEdge) {
  const auto gg = complete_graph(5);
  TreeRouting bogus;
  bogus.source = 0;
  bogus.paths = {{0, 2, 1}};  // 0-1 is an edge; must be the direct route
  EXPECT_FALSE(validate_tree_routing(gg.graph, bogus, {1}));
}

TEST(TreeRouting, ValidatorRejectsSourceInTargetSet) {
  const auto gg = complete_graph(4);
  TreeRouting tr;
  tr.source = 1;
  tr.paths = {{1, 2}};
  EXPECT_FALSE(validate_tree_routing(gg.graph, tr, {1, 2}));
}

TEST(TreeRouting, InstallPopulatesTable) {
  const auto gg = hypercube(3);
  SplitFlowSolver solver(gg.graph);
  const std::vector<Node> m = {3, 5, 6};
  const auto tr = build_tree_routing(solver, 0, m, 3);
  RoutingTable table(8, RoutingMode::kBidirectional);
  install_tree_routing(table, tr);
  for (const auto& p : tr.paths) {
    EXPECT_TRUE(table.has_route(0, p.back()));
    EXPECT_TRUE(table.has_route(p.back(), 0));
  }
}

TEST(TreeRouting, WorksFromEveryNonMemberSource) {
  // Property sweep over all sources on a CCC: Lemma 2 promises existence.
  const auto gg = cube_connected_cycles(3);
  SplitFlowSolver solver(gg.graph);
  const auto cut = min_vertex_cut(gg.graph);
  ASSERT_EQ(cut.size(), 3u);
  const std::set<Node> cut_set(cut.begin(), cut.end());
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (cut_set.count(x)) continue;
    const auto tr = build_tree_routing(solver, x, cut, 3);
    EXPECT_TRUE(validate_tree_routing(gg.graph, tr, cut)) << "source " << x;
  }
}

}  // namespace
}  // namespace ftr
