// SurvivingRouteGraphEngine must be observationally identical to the
// one-shot path in fault/surviving.cpp — same surviving graphs, same
// diameters — while reusing scratch state across arbitrary interleavings of
// fault sets. These tests are differential: every engine answer is checked
// against the straightforward implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
#include "fault/surviving.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/multirouting.hpp"
#include "routing/route_table.hpp"
#include "sim/recovery.hpp"

namespace ftr {
namespace {

void expect_same_digraph(const Digraph& a, const Digraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_present(), b.num_present());
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  for (Node u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.present(u), b.present(u)) << "node " << u;
    const auto sa = a.successors(u);
    const auto sb = b.successors(u);
    ASSERT_EQ(sa.size(), sb.size()) << "out-degree of " << u;
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(SrgEngine, MatchesOneShotOnKernelRouting) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  EXPECT_EQ(engine.num_nodes(), kr.table.num_nodes());
  EXPECT_EQ(engine.num_routes(), kr.table.num_routes());

  Rng rng(31);
  for (std::size_t f : {0u, 1u, 3u, 6u, 10u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 8, rng);
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(kr.table, faults))
          << "f=" << f;
      expect_same_digraph(engine.surviving_graph(faults),
                          surviving_graph(kr.table, faults));
    }
  }
}

TEST(SrgEngine, MatchesOneShotOnMultirouting) {
  const auto gg = cube_connected_cycles(3);
  Rng rng(7);
  const MultiRouteTable table = build_full_multirouting(gg.graph, 2);
  SurvivingRouteGraphEngine engine(table);
  EXPECT_EQ(engine.num_pairs(), table.num_routed_pairs());
  EXPECT_EQ(engine.num_routes(), table.total_routes());

  for (std::size_t f : {0u, 2u, 4u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      EXPECT_EQ(engine.surviving_diameter(faults),
                surviving_diameter(table, faults))
          << "f=" << f;
      expect_same_digraph(engine.surviving_graph(faults),
                          surviving_graph(table, faults));
    }
  }
}

TEST(SrgEngine, ScratchReuseIsOrderIndependent) {
  // Alternate between heavy and light fault sets; state from one
  // evaluation must never leak into the next.
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(99);
  const auto heavy = random_fault_sets(16, 6, 10, rng);
  const auto light = random_fault_sets(16, 1, 10, rng);
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    EXPECT_EQ(engine.surviving_diameter(heavy[i]),
              surviving_diameter(kr.table, heavy[i]));
    EXPECT_EQ(engine.surviving_diameter(light[i]),
              surviving_diameter(kr.table, light[i]));
    EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{}),
              surviving_diameter(kr.table, {}));
  }
}

TEST(SrgEngine, DuplicateAndOutOfRangeFaults) {
  const auto gg = cycle_graph(8);
  RoutingTable t(8, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  SurvivingRouteGraphEngine engine(t);
  const std::vector<Node> dup{2, 2, 5};
  EXPECT_EQ(engine.surviving_diameter(dup), surviving_diameter(t, dup));
  EXPECT_THROW(engine.surviving_diameter(std::vector<Node>{9}),
               ContractViolation);
}

TEST(SrgEngine, EvaluateReportsSurvivorsAndArcs) {
  const auto gg = cycle_graph(6);
  RoutingTable t(6, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  SurvivingRouteGraphEngine engine(t);

  const auto clean = engine.evaluate(std::vector<Node>{});
  EXPECT_EQ(clean.survivors, 6u);
  EXPECT_EQ(clean.arcs, 12u);  // 6 edges, both directions
  EXPECT_EQ(clean.diameter, 3u);

  const auto struck = engine.evaluate(std::vector<Node>{0});
  EXPECT_EQ(struck.survivors, 5u);
  EXPECT_EQ(struck.arcs, 8u);          // arcs touching node 0 are gone
  EXPECT_EQ(struck.diameter, 4u);      // cycle minus a node = 5-node path
}

TEST(SrgEngine, FewSurvivorsDiameterZero) {
  RoutingTable t(3, RoutingMode::kBidirectional);
  t.set_route({0, 1});
  t.set_route({1, 2});
  t.set_route({0, 1, 2});
  SurvivingRouteGraphEngine engine(t);
  EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{0, 1}), 0u);
  EXPECT_EQ(engine.surviving_diameter(std::vector<Node>{0, 1, 2}), 0u);
}

TEST(SrgEngine, ComponentwiseMatchesRecoveryMetric) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  SurvivingRouteGraphEngine engine(kr.table);
  Rng rng(515);
  for (std::size_t f : {3u, 5u, 7u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      const auto batched =
          componentwise_surviving_diameter(gg.graph, engine, faults);
      const auto oneshot =
          componentwise_surviving_diameter(gg.graph, kr.table, faults);
      EXPECT_EQ(batched.worst, oneshot.worst);
      EXPECT_EQ(batched.num_components, oneshot.num_components);
      EXPECT_EQ(batched.survivors, oneshot.survivors);
    }
  }
}

TEST(SrgEngine, SharedIndexServesManyScratches) {
  // The tentpole contract: one immutable SrgIndex, N independent scratches,
  // all observationally identical to the one-shot path.
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch a(index), b(index);
  Rng rng(17);
  const auto sets = random_fault_sets(25, 3, 12, rng);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    // Interleave the scratches; fault-set state is per-scratch, so neither
    // may perturb the other.
    SrgScratch& scratch = (i % 2 == 0) ? a : b;
    EXPECT_EQ(scratch.surviving_diameter(sets[i]),
              surviving_diameter(kr.table, sets[i]))
        << "set " << i;
  }
}

TEST(SrgEngine, CircularRoutingSweepAgainstOneShot) {
  const auto gg = torus_graph(5, 5);
  Rng rng(42);
  const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 16);
  const auto cr = build_circular_routing(gg.graph, 3, m);
  SurvivingRouteGraphEngine engine(cr.table);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 3, 20, rng);
  for (const auto& faults : sets) {
    EXPECT_EQ(engine.surviving_diameter(faults),
              surviving_diameter(cr.table, faults));
  }
}

// --- the delta state ---------------------------------------------------------

// Number of distinct ids in `faults` — the one-shot oracle's survivor count
// is n minus this.
std::uint32_t distinct_count(std::vector<Node> faults) {
  std::sort(faults.begin(), faults.end());
  return static_cast<std::uint32_t>(
      std::unique(faults.begin(), faults.end()) - faults.begin());
}

// One evaluation on the reused scratch against the one-shot oracle: the
// Result fields, then the materialized graph arc for arc.
template <typename Table>
void expect_matches_oracle(SrgScratch& scratch, const Table& table,
                           const std::vector<Node>& faults) {
  const auto res = scratch.evaluate(faults);
  const Digraph oracle = surviving_graph(table, faults);
  EXPECT_EQ(res.diameter, surviving_diameter(table, faults));
  EXPECT_EQ(res.survivors, table.num_nodes() - distinct_count(faults));
  EXPECT_EQ(res.arcs, oracle.num_arcs());
  expect_same_digraph(scratch.last_surviving_graph(), oracle);
}

// One long walk on a single scratch, so every evaluation is a delta from
// whatever came before: Gray-adjacent steps (one element out, one in),
// random sets of every size from 0 to n - 1, sets with duplicate ids, and
// rejected sets, which must leave the state untouched.
TEST(SrgEngine, LongDeltaWalkMatchesOneShot) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  const std::size_t n = gg.graph.num_nodes();
  Rng rng(9001);

  for (int round = 0; round < 3; ++round) {
    // A stretch of Gray-adjacent sets from a random rank.
    const std::size_t f = 1 + rng.below(4);
    GraySubsetEnumerator e(n, f, rng.below(binomial(n, f)));
    for (int step = 0; step < 25 && e.valid(); ++step, e.advance()) {
      const std::vector<Node> faults(e.current().begin(), e.current().end());
      SCOPED_TRACE("gray f=" + std::to_string(f) + " step " +
                   std::to_string(step));
      expect_matches_oracle(scratch, kr.table, faults);
    }
    // Random sets of every size, each a large jump from the last.
    for (std::size_t k = 0; k < n; ++k) {
      const auto sample = rng.sample(n, k);
      std::vector<Node> faults(sample.begin(), sample.end());
      SCOPED_TRACE("random f=" + std::to_string(k));
      expect_matches_oracle(scratch, kr.table, faults);
    }
    // Duplicates, including a set that repeats one id only.
    for (const std::vector<Node>& faults :
         {std::vector<Node>{3, 3, 9, 3}, std::vector<Node>{7, 7},
          std::vector<Node>{0, 15, 0, 15, 8}}) {
      expect_matches_oracle(scratch, kr.table, faults);
    }
    // A rejected set: the previous set must still be in place, and the
    // next valid set must still match the oracle.
    const std::vector<Node> before{1, 2, 11};
    expect_matches_oracle(scratch, kr.table, before);
    EXPECT_THROW(scratch.evaluate(std::vector<Node>{4, 5, 16}),
                 ContractViolation);
    expect_same_digraph(scratch.last_surviving_graph(),
                        surviving_graph(kr.table, before));
    expect_matches_oracle(scratch, kr.table, std::vector<Node>{4, 5});
  }
}

// Multiroute tables: a pair's arc dies only with its LAST live route, so
// the per-pair live counts see several routes per pair.
TEST(SrgEngine, DeltaWalkMatchesOneShotOnMultirouting) {
  const auto gg = torus_graph(5, 5);
  const MultiRouteTable mr = build_full_multirouting(gg.graph, 2);
  const SrgIndex index(mr);
  SrgScratch scratch(index);
  Rng rng(77);
  for (int round = 0; round < 12; ++round) {
    const auto sample = rng.sample(gg.graph.num_nodes(), 1 + rng.below(5));
    const std::vector<Node> faults(sample.begin(), sample.end());
    expect_matches_oracle(scratch, mr, faults);
  }
}

// Walking the whole revolving-door enumeration on one scratch — exactly
// what the exhaustive bitset sweep does per worker chunk.
TEST(SrgEngine, GrayWalkMatchesOneShot) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const SrgIndex index(kr.table);
  SrgScratch scratch(index);
  GraySubsetEnumerator e(gg.graph.num_nodes(), 2);
  do {
    const std::vector<Node> faults(e.current().begin(), e.current().end());
    const auto res = scratch.evaluate(faults);
    EXPECT_EQ(res.diameter, surviving_diameter(kr.table, faults));
    EXPECT_EQ(res.arcs, surviving_graph(kr.table, faults).num_arcs());
  } while (e.advance());
}

// The out-of-range id sits AFTER valid ones: evaluate() must check every id
// before it strikes any, so the scratch stays usable.
TEST(SrgEngine, RejectedSetLeavesScratchUsable) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const std::uint32_t n = kr.table.num_nodes();

  SrgScratch fresh(index);  // rejected before the state is ever seeded
  EXPECT_THROW(fresh.evaluate(std::vector<Node>{0, n}), ContractViolation);
  expect_matches_oracle(fresh, kr.table, std::vector<Node>{6, 12});

  SrgScratch used(index);
  expect_matches_oracle(used, kr.table, std::vector<Node>{2, 3, 4});
  EXPECT_THROW(used.evaluate(std::vector<Node>{0, n}), ContractViolation);
  EXPECT_THROW(used.componentwise_diameter(
                   std::vector<Node>{1, n + 5},
                   std::vector<std::uint32_t>(n, 0)),
               ContractViolation);
  expect_matches_oracle(used, kr.table, std::vector<Node>{0, 24});
  expect_matches_oracle(used, kr.table, std::vector<Node>{});
}

TEST(SrgEngine, LastSurvivingGraphNeedsAnEvaluation) {
  const auto gg = cycle_graph(8);
  RoutingTable t(8, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  const SrgIndex index(t);
  SrgScratch scratch(index);
  EXPECT_THROW(scratch.last_surviving_graph(), ContractViolation);
}

}  // namespace
}  // namespace ftr
