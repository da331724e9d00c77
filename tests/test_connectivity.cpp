#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"

namespace ftr {
namespace {

TEST(LocalConnectivity, CycleHasTwoDisjointPaths) {
  const auto gg = cycle_graph(6);
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 3), 2u);
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 1), 2u);  // edge + long way
}

TEST(LocalConnectivity, CompleteGraph) {
  const auto gg = complete_graph(5);
  // Direct edge plus 3 two-hop paths through the other nodes.
  EXPECT_EQ(local_node_connectivity(gg.graph, 0, 4), 4u);
}

TEST(LocalConnectivity, CutVertexLimits) {
  // Two triangles sharing node 2: local connectivity across the waist is 1.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(2, 4);
  EXPECT_EQ(local_node_connectivity(b.build(), 0, 4), 1u);
}

TEST(NodeConnectivity, KnownFamilies) {
  EXPECT_EQ(node_connectivity(complete_graph(5).graph), 4u);
  EXPECT_EQ(node_connectivity(cycle_graph(7).graph), 2u);
  EXPECT_EQ(node_connectivity(path_graph(5).graph), 1u);
  EXPECT_EQ(node_connectivity(star_graph(4).graph), 1u);
  EXPECT_EQ(node_connectivity(complete_bipartite(3, 5).graph), 3u);
  EXPECT_EQ(node_connectivity(petersen_graph().graph), 3u);
  EXPECT_EQ(node_connectivity(grid_graph(3, 4).graph), 2u);
  EXPECT_EQ(node_connectivity(torus_graph(4, 4).graph), 4u);
}

TEST(NodeConnectivity, HypercubesMatchDimension) {
  for (std::size_t d = 1; d <= 5; ++d) {
    EXPECT_EQ(node_connectivity(hypercube(d).graph), d) << "Q" << d;
  }
}

TEST(NodeConnectivity, CccIsThree) {
  EXPECT_EQ(node_connectivity(cube_connected_cycles(3).graph), 3u);
}

TEST(NodeConnectivity, WrappedButterflyIsFour) {
  EXPECT_EQ(node_connectivity(wrapped_butterfly(3).graph), 4u);
}

TEST(NodeConnectivity, DisconnectedIsZero) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  EXPECT_EQ(node_connectivity(b.build()), 0u);
}

TEST(NodeConnectivity, GeneratorMetadataAgrees) {
  // Every generator that claims a connectivity must be telling the truth
  // (checked on small instances; large ones are the same family).
  const GeneratedGraph cases[] = {
      complete_graph(6),       cycle_graph(9),     complete_bipartite(2, 4),
      grid_graph(3, 3),        torus_graph(3, 5),  petersen_graph(),
      hypercube(4),            butterfly(3),       cube_connected_cycles(4),
      wrapped_butterfly(3),    star_graph(6),      path_graph(8),
  };
  for (const auto& gg : cases) {
    ASSERT_TRUE(gg.known_connectivity.has_value()) << gg.name;
    EXPECT_EQ(node_connectivity(gg.graph), *gg.known_connectivity) << gg.name;
  }
}

TEST(MinVertexCut, SizeEqualsConnectivityAndSeparates) {
  const GeneratedGraph cases[] = {
      cycle_graph(8),
      grid_graph(3, 4),
      torus_graph(3, 4),
      hypercube(3),
      petersen_graph(),
      cube_connected_cycles(3),
  };
  for (const auto& gg : cases) {
    const auto cut = min_vertex_cut(gg.graph);
    EXPECT_EQ(cut.size(), node_connectivity(gg.graph)) << gg.name;
    EXPECT_TRUE(is_separating_set(gg.graph, cut)) << gg.name;
  }
}

TEST(MinVertexCut, CompleteGraphRejected) {
  EXPECT_THROW(min_vertex_cut(complete_graph(4).graph), ContractViolation);
}

TEST(MinVertexCutBetween, SeparatesChosenPair) {
  const auto gg = grid_graph(4, 4);
  const auto cut = min_vertex_cut_between(gg.graph, 0, 15);
  EXPECT_EQ(cut.size(), 2u);
  const Graph reduced = gg.graph.without_nodes(cut);
  EXPECT_EQ(bfs_distances(reduced, 0)[15], kUnreachable);
}

TEST(MinVertexCutBetween, AdjacentRejected) {
  const auto gg = cycle_graph(5);
  EXPECT_THROW(min_vertex_cut_between(gg.graph, 0, 1), ContractViolation);
}

TEST(DisjointPaths, CountMatchesMenger) {
  const auto gg = hypercube(3);
  const auto paths = disjoint_paths(gg.graph, 0, 7);
  EXPECT_EQ(paths.size(), 3u);
}

TEST(DisjointPaths, InternallyDisjointAndValid) {
  const auto gg = hypercube(4);
  const auto paths = disjoint_paths(gg.graph, 0, 15);
  ASSERT_EQ(paths.size(), 4u);
  std::set<Node> internal_seen;
  for (const auto& p : paths) {
    EXPECT_TRUE(gg.graph.is_simple_path(p));
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 15u);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(internal_seen.insert(p[i]).second)
          << "node " << p[i] << " reused";
    }
  }
}

TEST(DisjointPaths, DirectEdgeIncluded) {
  const auto gg = cycle_graph(6);
  const auto paths = disjoint_paths(gg.graph, 0, 1);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (Path{0, 1}));  // the direct edge comes first
  EXPECT_EQ(paths[1].size(), 6u);     // the long way around
}

TEST(DisjointPaths, WantLimitsCount) {
  const auto gg = complete_graph(6);
  EXPECT_EQ(disjoint_paths(gg.graph, 0, 5, 2).size(), 2u);
  EXPECT_EQ(disjoint_paths(gg.graph, 0, 5, 0).size(), 0u);
}

TEST(DisjointPathsToSet, StopsAtFirstOccurrence) {
  const auto gg = hypercube(3);
  // Separate node 7 by its neighborhood {3, 5, 6}.
  const std::vector<Node> m = {3, 5, 6};
  const auto paths = disjoint_paths_to_set(gg.graph, 0, m);
  ASSERT_EQ(paths.size(), 3u);
  std::set<Node> endpoints;
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0u);
    endpoints.insert(p.back());
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_EQ(std::count(m.begin(), m.end(), p[i]), 0)
          << "path passes through target " << p[i];
    }
  }
  EXPECT_EQ(endpoints.size(), 3u);
}

TEST(DisjointPathsToSet, DirectEdgesSeededFirst) {
  const auto gg = complete_bipartite(3, 3);
  // Source 0 (left) is adjacent to all of the right side {3,4,5}.
  const auto paths = disjoint_paths_to_set(gg.graph, 0, {3, 4, 5});
  ASSERT_EQ(paths.size(), 3u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 2u);
}

TEST(DisjointPathsToSet, AvoidExcludesNodes) {
  const auto gg = cycle_graph(6);
  // From 0 to {3}: normally two routes; avoiding 1 leaves the ccw one only
  // ... but 3 can then absorb just one path.
  const auto paths = disjoint_paths_to_set(gg.graph, 0, {3}, {1});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (Path{0, 5, 4, 3}));
}

TEST(DisjointPathsToSet, SourceInSetRejected) {
  const auto gg = cycle_graph(5);
  EXPECT_THROW(disjoint_paths_to_set(gg.graph, 0, {0, 2}), ContractViolation);
}

// Expects fn to throw ContractViolation whose message names `id`.
template <typename Fn>
void expect_rejects_id(Fn&& fn, const std::string& id) {
  try {
    fn();
    ADD_FAILURE() << "id " << id << " was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
  }
}

TEST(DisjointPathsToSet, OutOfRangeTargetRejected) {
  const auto gg = torus_graph(4, 4);
  expect_rejects_id(
      [&] { disjoint_paths_to_set(gg.graph, 0, {5, 10, 9999}); }, "9999");
  SplitFlowSolver solver(gg.graph);
  expect_rejects_id([&] { solver.disjoint_paths_to_set(0, {16}); }, "16");
}

TEST(DisjointPathsToSet, OutOfRangeAvoidRejected) {
  const auto gg = torus_graph(4, 4);
  expect_rejects_id(
      [&] { disjoint_paths_to_set(gg.graph, 0, {5, 10}, {4242}); }, "4242");
  SplitFlowSolver solver(gg.graph);
  expect_rejects_id([&] { solver.disjoint_paths_to_set(0, {5}, {3, 16}); },
                    "16");
}

TEST(DisjointPathsToSet, InternallyDisjoint) {
  const auto gg = torus_graph(4, 4);
  const std::vector<Node> m = {5, 10, 15, 3};
  const auto paths = disjoint_paths_to_set(gg.graph, 0, m);
  ASSERT_GE(paths.size(), 4u);
  std::unordered_set<Node> seen;  // all non-source nodes must be unique
  for (const auto& p : paths) {
    for (std::size_t i = 1; i < p.size(); ++i) {
      EXPECT_TRUE(seen.insert(p[i]).second);
    }
  }
}

TEST(IsSeparatingSet, Basics) {
  const auto gg = path_graph(5);
  EXPECT_TRUE(is_separating_set(gg.graph, {2}));
  EXPECT_FALSE(is_separating_set(gg.graph, {0}));  // leaves remainder whole
  EXPECT_FALSE(is_separating_set(gg.graph, {}));
  const auto cyc = cycle_graph(6);
  EXPECT_FALSE(is_separating_set(cyc.graph, {0}));
  EXPECT_TRUE(is_separating_set(cyc.graph, {0, 3}));
}

TEST(NodeConnectivity, RandomGraphsCrossCheckedAgainstCutSize) {
  // Property sweep: kappa from Esfahanian-Hakimi equals the size of the
  // extracted minimum cut, and removing that cut disconnects the graph.
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const auto gg = gnp_connected(24, 0.25, rng);
    const auto k = node_connectivity(gg.graph);
    if (k == 0) continue;
    if (gg.graph.num_edges() == 24 * 23 / 2) continue;  // complete: no cut
    const auto cut = min_vertex_cut(gg.graph);
    EXPECT_EQ(cut.size(), k);
    EXPECT_TRUE(is_separating_set(gg.graph, cut));
  }
}

}  // namespace
}  // namespace ftr
