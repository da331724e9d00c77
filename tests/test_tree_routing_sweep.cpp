// Parameterized Lemma 2 sweep: on every family, from every non-member
// source, tree routings to both kinds of separating sets used by the
// constructions (minimum cuts and neighborhood shells) must exist at full
// width and validate. This is the load-bearing primitive of the whole
// library, so it gets the widest property net.
#include <gtest/gtest.h>

#include <set>

#include "analysis/neighborhood.hpp"
#include "common/rng.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/connectivity.hpp"
#include "routing/tree_routing.hpp"

namespace ftr {
namespace {

struct SweepCase {
  std::string label;
  GeneratedGraph (*make)();
};

GeneratedGraph sw_c20() { return cycle_graph(20); }
GeneratedGraph sw_grid55() { return grid_graph(5, 5); }
GeneratedGraph sw_torus55() { return torus_graph(5, 5); }
GeneratedGraph sw_q4() { return hypercube(4); }
GeneratedGraph sw_ccc3() { return cube_connected_cycles(3); }
GeneratedGraph sw_wbf3() { return wrapped_butterfly(3); }
GeneratedGraph sw_petersen() { return petersen_graph(); }
GeneratedGraph sw_dodeca() { return dodecahedron(); }
GeneratedGraph sw_kb34() { return complete_bipartite(3, 4); }
GeneratedGraph sw_bf3() { return butterfly(3); }

const SweepCase kSweep[] = {
    {"C20", sw_c20},           {"grid55", sw_grid55},
    {"torus55", sw_torus55},   {"Q4", sw_q4},
    {"CCC3", sw_ccc3},         {"WBF3", sw_wbf3},
    {"petersen", sw_petersen}, {"dodecahedron", sw_dodeca},
    {"K34", sw_kb34},          {"BF3", sw_bf3},
};

std::string sweep_name(const testing::TestParamInfo<SweepCase>& info) {
  return info.param.label;
}

class TreeRoutingSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(TreeRoutingSweep, FullWidthToMinimumCutFromEverySource) {
  const auto gg = GetParam().make();
  SplitFlowSolver solver(gg.graph);
  const auto kappa = gg.known_connectivity ? *gg.known_connectivity
                                           : node_connectivity(gg.graph);
  ASSERT_GE(kappa, 1u);
  const auto cut = min_vertex_cut(gg.graph);
  ASSERT_EQ(cut.size(), kappa);
  const std::set<Node> cut_set(cut.begin(), cut.end());
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (cut_set.count(x)) continue;
    const auto tr = build_tree_routing(solver, x, cut, kappa);
    EXPECT_TRUE(validate_tree_routing(gg.graph, tr, cut)) << "source " << x;
    EXPECT_EQ(tr.paths.size(), kappa);
  }
}

TEST_P(TreeRoutingSweep, FullWidthToNeighborhoodShells) {
  // Shells Gamma(m) are separating sets for m; every source outside the
  // shell (and distinct from m) must reach full width kappa.
  const auto gg = GetParam().make();
  SplitFlowSolver solver(gg.graph);
  const auto kappa = gg.known_connectivity ? *gg.known_connectivity
                                           : node_connectivity(gg.graph);
  Rng rng(5);
  const auto members = randomized_neighborhood_set(gg.graph, rng, 4);
  ASSERT_FALSE(members.empty());
  const Node m = members[0];
  const auto nbrs = gg.graph.neighbors(m);
  const std::vector<Node> shell(nbrs.begin(), nbrs.end());
  const std::set<Node> shell_set(shell.begin(), shell.end());
  for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
    if (x == m || shell_set.count(x)) continue;
    const auto tr = build_tree_routing(solver, x, shell, kappa);
    EXPECT_TRUE(validate_tree_routing(gg.graph, tr, shell)) << "source " << x;
  }
}

TEST_P(TreeRoutingSweep, Lemma1CountingArgument) {
  // Any fault set smaller than the width leaves at least one surviving
  // path, for sampled fault sets avoiding the source.
  const auto gg = GetParam().make();
  SplitFlowSolver solver(gg.graph);
  const auto kappa = gg.known_connectivity ? *gg.known_connectivity
                                           : node_connectivity(gg.graph);
  if (kappa < 2) GTEST_SKIP() << "needs width >= 2";
  const auto cut = min_vertex_cut(gg.graph);
  const std::set<Node> cut_set(cut.begin(), cut.end());
  Rng rng(77);
  Node source = 0;
  while (cut_set.count(source)) ++source;
  const auto tr = build_tree_routing(solver, source, cut, kappa);
  for (int trial = 0; trial < 30; ++trial) {
    auto sample = rng.sample(gg.graph.num_nodes(), kappa - 1);
    std::vector<Node> faults;
    for (auto v : sample) {
      if (static_cast<Node>(v) != source) faults.push_back(static_cast<Node>(v));
    }
    std::size_t surviving = 0;
    for (const auto& p : tr.paths) {
      bool ok = true;
      for (Node v : p) {
        if (std::find(faults.begin(), faults.end(), v) != faults.end())
          ok = false;
      }
      surviving += ok;
    }
    EXPECT_GE(surviving, 1u) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, TreeRoutingSweep, testing::ValuesIn(kSweep),
                         sweep_name);

}  // namespace
}  // namespace ftr
