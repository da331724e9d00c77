// Randomized end-to-end sweeps ("fuzz" style, deterministic seeds): random
// graphs from several models -> profile -> plan -> build -> verify the
// guarantee with sampled faults. Exercises the whole pipeline on graphs no
// other test hand-picked, including awkward shapes (low connectivity,
// irregular degrees, near-threshold sizes).
#include <gtest/gtest.h>

#include <cmath>

#include "core/ftroute.hpp"

namespace ftr {
namespace {

struct FuzzCase {
  std::string name;
  Graph graph;
};

std::vector<FuzzCase> fuzz_graphs() {
  std::vector<FuzzCase> out;
  Rng rng(20260611);
  // Random regular of several degrees.
  for (std::size_t d : {3u, 4u, 5u}) {
    for (int i = 0; i < 3; ++i) {
      auto gg = random_regular(30 + 2 * d, d, rng);
      if (!is_connected(gg.graph)) continue;
      out.push_back({gg.name + "#" + std::to_string(i), std::move(gg.graph)});
    }
  }
  // Connected G(n,p) at a few densities.
  for (double mult : {1.6, 2.5, 4.0}) {
    for (int i = 0; i < 3; ++i) {
      const std::size_t n = 40;
      const double p =
          mult * std::log(static_cast<double>(n)) / static_cast<double>(n);
      auto gg = gnp(n, p, rng);
      if (!is_connected(gg.graph)) continue;
      out.push_back(
          FuzzCase{gg.name + "#" + std::to_string(i), std::move(gg.graph)});
    }
  }
  // Circulants (structured but not hand-tested elsewhere).
  out.push_back({"circulant(26;1,5)", circulant_graph(26, {1, 5}).graph});
  out.push_back({"circulant(30;2,3)", circulant_graph(30, {2, 3}).graph});
  return out;
}

TEST(FuzzPlanner, PlannedGuaranteesHoldOnRandomGraphs) {
  Rng rng(77);
  std::size_t exercised = 0;
  for (auto& fc : fuzz_graphs()) {
    const auto kappa = node_connectivity(fc.graph);
    if (kappa < 2) continue;
    const bool complete =
        fc.graph.num_edges() ==
        fc.graph.num_nodes() * (fc.graph.num_nodes() - 1) / 2;
    if (complete) continue;
    const auto profile = profile_graph(fc.graph, kappa, rng,
                                       /*compute_diameter=*/false);
    const auto planned = build_planned_routing(fc.graph, profile, rng);
    ASSERT_NO_THROW(planned.table.validate(fc.graph)) << fc.name;

    // Sampled verification at the full budget (exhaustive is too big here).
    ToleranceCheckOptions opts;
    opts.exhaustive_budget = 1500;
    opts.samples = 60;
    opts.hillclimb_restarts = 2;
    opts.hillclimb_steps = 8;
    const auto report =
        check_tolerance(planned.table, planned.plan.tolerated_faults,
                        planned.plan.guaranteed_diameter, rng, opts);
    EXPECT_TRUE(report.holds)
        << fc.name << " via " << construction_name(planned.plan.construction)
        << ": " << report.summary();
    ++exercised;
  }
  EXPECT_GE(exercised, 8u) << "fuzz corpus unexpectedly thin";
}

TEST(FuzzPlanner, TreeRoutingsAlwaysValidOnRandomGraphs) {
  // Lemma 2 exercised on arbitrary (kappa >= 2) random graphs: from every
  // source, a width-kappa tree routing to a minimum cut exists and
  // validates.
  Rng rng(99);
  std::size_t graphs_checked = 0;
  for (int trial = 0; trial < 12 && graphs_checked < 4; ++trial) {
    auto gg = gnp(24, 0.18, rng);
    SplitFlowSolver solver(gg.graph);
    const auto kappa = node_connectivity(gg.graph);
    if (kappa < 2) continue;
    if (gg.graph.num_edges() == 24 * 23 / 2) continue;
    const auto cut = min_vertex_cut(gg.graph);
    std::size_t sources = 0;
    for (Node x = 0; x < gg.graph.num_nodes(); ++x) {
      if (std::find(cut.begin(), cut.end(), x) != cut.end()) continue;
      const auto tr = build_tree_routing(solver, x, cut, kappa);
      EXPECT_TRUE(validate_tree_routing(gg.graph, tr, cut))
          << "graph trial " << trial << " source " << x;
      ++sources;
    }
    EXPECT_GT(sources, 0u);
    ++graphs_checked;
  }
  EXPECT_GE(graphs_checked, 2u);
}

TEST(FuzzPlanner, SurvivingGraphDefinitionHoldsUnderRandomFaults) {
  // Cross-validation of surviving_graph against a reference recomputation,
  // on random graphs and fault sets.
  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    auto gg = gnp(20, 0.25, rng);
    if (node_connectivity(gg.graph) < 2) continue;
    if (gg.graph.num_edges() == 190) continue;  // complete
    const auto kr = build_kernel_routing(gg.graph, 1);
    const auto sample = rng.sample(20, 1);
    const std::vector<Node> faults(sample.begin(), sample.end());
    const auto r = surviving_graph(kr.table, faults);
    kr.table.for_each([&](Node x, Node y, const Path& p) {
      bool expect = true;
      for (Node v : p) {
        if (v == faults[0]) expect = false;
      }
      if (x == faults[0] || y == faults[0]) expect = false;
      EXPECT_EQ(r.present(x) && r.present(y) && r.has_arc(x, y), expect);
    });
  }
}

}  // namespace
}  // namespace ftr
