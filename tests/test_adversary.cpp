#include "fault/adversary.hpp"

#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/kernel.hpp"
#include "routing/route_table.hpp"

namespace ftr {
namespace {

// A synthetic evaluator with a known worst case: diameter = sum of faults.
FaultEvaluator sum_eval() {
  return [](const std::vector<Node>& faults) {
    std::uint32_t s = 0;
    for (Node f : faults) s += f;
    return s;
  };
}

TEST(Adversary, ExhaustiveFindsTrueWorst) {
  const auto r = exhaustive_worst_faults(6, 2, sum_eval());
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.worst_diameter, 4u + 5u);
  EXPECT_EQ(r.worst_faults, (std::vector<Node>{4, 5}));
  EXPECT_EQ(r.evaluations, binomial(6, 2));
}

TEST(Adversary, ExhaustiveZeroFaults) {
  const auto r = exhaustive_worst_faults(5, 0, sum_eval());
  EXPECT_EQ(r.worst_diameter, 0u);
  EXPECT_EQ(r.evaluations, 1u);
  EXPECT_TRUE(r.worst_faults.empty());
}

TEST(Adversary, SampledStaysBelowExhaustive) {
  Rng rng(1);
  const auto ex = exhaustive_worst_faults(8, 2, sum_eval());
  const auto sa = sampled_worst_faults(8, 2, 20, sum_eval(), rng);
  EXPECT_LE(sa.worst_diameter, ex.worst_diameter);
  EXPECT_EQ(sa.evaluations, 20u);
}

TEST(Adversary, HillclimbFindsSyntheticOptimum) {
  // The sum evaluator has a smooth landscape; hill-climbing must reach the
  // global optimum {n-2, n-1}.
  Rng rng(2);
  const auto r = hillclimb_worst_faults(12, 2, sum_eval(), rng, 4, 50);
  EXPECT_EQ(r.worst_diameter, 10u + 11u);
}

TEST(Adversary, HillclimbUsesSeeds) {
  Rng rng(3);
  // Seed directly at the optimum: zero steps needed.
  const auto r = hillclimb_worst_faults(12, 2, sum_eval(), rng, 1, 0,
                                        {{10u, 11u}});
  EXPECT_EQ(r.worst_diameter, 21u);
}

TEST(Adversary, HillclimbZeroFaults) {
  Rng rng(4);
  const auto r = hillclimb_worst_faults(5, 0, sum_eval(), rng);
  EXPECT_EQ(r.worst_diameter, 0u);
}

TEST(Adversary, HillclimbMatchesExhaustiveOnRealRouting) {
  // On a small kernel routing the climbing adversary should get close to
  // (and never exceed) the exhaustive ground truth.
  const auto gg = cycle_graph(10);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const FaultEvaluator eval = [&](const std::vector<Node>& f) {
    return surviving_diameter(kr.table, f);
  };
  const auto ex = exhaustive_worst_faults(10, 1, eval);
  Rng rng(5);
  const auto hc = hillclimb_worst_faults(10, 1, eval, rng, 4, 20);
  EXPECT_LE(hc.worst_diameter, ex.worst_diameter);
  EXPECT_EQ(hc.worst_diameter, ex.worst_diameter);  // smooth enough to find
}

TEST(Adversary, ResultCarriesWitness) {
  const auto r = exhaustive_worst_faults(6, 2, sum_eval());
  // Re-evaluating the witness reproduces the reported diameter.
  EXPECT_EQ(sum_eval()(r.worst_faults), r.worst_diameter);
}

}  // namespace
}  // namespace ftr
