// End-to-end determinism of the parallel fault-sweep layer: every sweep
// result — tolerance verdicts, diameter histograms, the adversary's
// best-found fault set, recovery metrics, delivery stats — must be
// bit-identical for threads in {1, 2, 8}, and the per-set evaluations must
// equal the pre-refactor serial path (the one-shot implementation in
// fault/surviving.cpp) on kernel, circular, and tri-circular tables.
#include "analysis/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/neighborhood.hpp"
#include "core/planner.hpp"
#include "fault/adversary.hpp"
#include "fault/fault_gen.hpp"
#include "fault/surviving.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"
#include "sim/recovery.hpp"

namespace ftr {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct NamedTable {
  std::string name;
  Graph g;
  RoutingTable table;
  std::uint32_t t;
};

// Kernel, circular, and tri-circular tables — the three construction
// families the determinism satellite calls out.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back({"kernel/torus", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 3});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"circular/torus", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 3});
  }
  {
    const auto gg = cycle_graph(48);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tricircular/cycle", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

void expect_same_summary(const FaultSweepSummary& a,
                         const FaultSweepSummary& b) {
  ASSERT_EQ(a.per_set.size(), b.per_set.size());
  for (std::size_t i = 0; i < a.per_set.size(); ++i) {
    EXPECT_EQ(a.per_set[i].diameter, b.per_set[i].diameter) << "set " << i;
    EXPECT_EQ(a.per_set[i].survivors, b.per_set[i].survivors);
    EXPECT_EQ(a.per_set[i].arcs, b.per_set[i].arcs);
    EXPECT_EQ(a.per_set[i].delivery.pairs_sampled,
              b.per_set[i].delivery.pairs_sampled);
    EXPECT_EQ(a.per_set[i].delivery.delivered, b.per_set[i].delivery.delivered);
    EXPECT_EQ(a.per_set[i].delivery.avg_route_hops,
              b.per_set[i].delivery.avg_route_hops);
    EXPECT_EQ(a.per_set[i].delivery.max_edge_hops,
              b.per_set[i].delivery.max_edge_hops);
  }
  EXPECT_EQ(a.diameter_histogram, b.diameter_histogram);
  EXPECT_EQ(a.disconnected, b.disconnected);
  EXPECT_EQ(a.worst_diameter, b.worst_diameter);
  EXPECT_EQ(a.worst_index, b.worst_index);
  EXPECT_EQ(a.pairs_sampled, b.pairs_sampled);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_route_hops, b.avg_route_hops);
  EXPECT_EQ(a.max_route_hops, b.max_route_hops);
  EXPECT_EQ(a.max_edge_hops, b.max_edge_hops);
}

TEST(FaultSweep, MatchesOneShotAndThreadInvariant) {
  for (const auto& entry : construction_tables()) {
    Rng rng(99);
    const auto sets =
        random_fault_sets(entry.g.num_nodes(), entry.t, 40, rng);

    FaultSweepOptions opts;
    opts.exec.threads = 1;
    opts.delivery_pairs = 6;
    opts.seed = 1234;
    const auto base = sweep_fault_sets(entry.table, sets, opts);

    // Per-set diameters equal the pre-refactor one-shot path.
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(base.per_set[i].diameter,
                surviving_diameter(entry.table, sets[i]))
          << entry.name << " set " << i;
    }

    for (unsigned threads : kThreadCounts) {
      FaultSweepOptions par = opts;
      par.exec.threads = threads;
      const auto swept = sweep_fault_sets(entry.table, sets, par);
      SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads));
      expect_same_summary(base, swept);
    }
  }
}

TEST(FaultSweep, HistogramAccountsForEverySet) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(7);
  const auto sets = random_fault_sets(25, 6, 60, rng);
  FaultSweepOptions opts;
  opts.exec.threads = 2;
  const auto summary = sweep_fault_sets(kr.table, sets, opts);
  std::uint64_t total = summary.disconnected;
  for (const auto count : summary.diameter_histogram) total += count;
  EXPECT_EQ(total, sets.size());
  EXPECT_EQ(summary.per_set[summary.worst_index].diameter,
            summary.worst_diameter);
}

// A stream shorter than one batch per worker is still split over every
// worker (the chunk grain shrinks to the batch's share), with output equal
// to the one-thread run.
TEST(FaultSweep, ShortStreamSplitsOverAllThreads) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  FaultSweepOptions one;
  one.exec.threads = 1;
  SampledStreamSource base_source(25, 3, 512, 17);
  const auto base = sweep_fault_source(kr.table, index, base_source, one);
  FaultSweepOptions two = one;
  two.exec.threads = 2;
  SampledStreamSource source(25, 3, 512, 17);
  const auto got = sweep_fault_source(kr.table, index, source, two);
  EXPECT_EQ(got.executor.workers, 2u);
  expect_same_summary(base, got);
  EXPECT_EQ(got.worst_faults, base.worst_faults);
}

TEST(ToleranceCheck, ReportThreadInvariant) {
  for (const auto& entry : construction_tables()) {
    // Exhaustive path (small f) and adversarial path (forced budget).
    for (const bool force_adversarial : {false, true}) {
      ToleranceCheckOptions opts;
      if (force_adversarial) {
        opts.exhaustive_budget = 1;
        opts.samples = 40;
        opts.hillclimb_restarts = 3;
        opts.hillclimb_steps = 6;
      }
      ToleranceReport base;
      bool have_base = false;
      for (unsigned threads : kThreadCounts) {
        ToleranceCheckOptions topts = opts;
        topts.exec.threads = threads;
        Rng rng(31);
        const auto report =
            check_tolerance(entry.table, entry.t, 6, rng, topts);
        if (!have_base) {
          base = report;
          have_base = true;
          EXPECT_EQ(report.exhaustive, !force_adversarial);
          continue;
        }
        SCOPED_TRACE(entry.name + " threads=" + std::to_string(threads) +
                     (force_adversarial ? " adversarial" : " exhaustive"));
        EXPECT_EQ(report.worst_diameter, base.worst_diameter);
        EXPECT_EQ(report.worst_faults, base.worst_faults);
        EXPECT_EQ(report.fault_sets_checked, base.fault_sets_checked);
        EXPECT_EQ(report.holds, base.holds);
        EXPECT_EQ(report.exhaustive, base.exhaustive);
        EXPECT_EQ(report.summary(), base.summary());
      }
    }
  }
}

TEST(Adversary, ParallelExhaustiveEqualsSerial) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const auto serial = exhaustive_worst_faults(
      25, 2, [&](const std::vector<Node>& f) {
        return surviving_diameter(kr.table, f);
      });

  auto index = std::make_shared<const SrgIndex>(kr.table);
  const FaultEvaluatorFactory factory = [index]() {
    auto scratch = std::make_shared<SrgScratch>(*index);
    return [index, scratch](const std::vector<Node>& f) {
      return scratch->surviving_diameter(f);
    };
  };
  for (unsigned threads : kThreadCounts) {
    const auto par =
        exhaustive_worst_faults_slice(25, 2, factory, 0, binomial(25, 2),
                                      SearchExecution{{.threads = threads}});
    EXPECT_EQ(par.d, serial.worst_diameter);
    EXPECT_EQ(par.faults, serial.worst_faults);
    EXPECT_EQ(par.evaluations, serial.evaluations);
  }
}

TEST(Adversary, SampledAndHillclimbThreadInvariant) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  auto index = std::make_shared<const SrgIndex>(kr.table);
  const FaultEvaluatorFactory factory = [index]() {
    auto scratch = std::make_shared<SrgScratch>(*index);
    return [index, scratch](const std::vector<Node>& f) {
      return scratch->surviving_diameter(f);
    };
  };
  const auto sampled_base = sampled_worst_faults_slice(
      25, 3, 0, 50, factory, 77, SearchExecution{{.threads = 1}});
  const auto climbed_base = hillclimb_worst_faults(
      25, 3, factory, 77, SearchExecution{{.threads = 1}}, 4, 8, {{0, 1, 2}});
  EXPECT_EQ(sampled_base.evaluations, 50u);
  for (unsigned threads : kThreadCounts) {
    const auto s = sampled_worst_faults_slice(
        25, 3, 0, 50, factory, 77, SearchExecution{{.threads = threads}});
    EXPECT_EQ(s.d, sampled_base.d);
    EXPECT_EQ(s.faults, sampled_base.faults);
    EXPECT_EQ(s.evaluations, sampled_base.evaluations);
    const auto h = hillclimb_worst_faults(25, 3, factory, 77,
                                          SearchExecution{{.threads = threads}}, 4, 8,
                                          {{0, 1, 2}});
    EXPECT_EQ(h.worst_diameter, climbed_base.worst_diameter);
    EXPECT_EQ(h.worst_faults, climbed_base.worst_faults);
    EXPECT_EQ(h.evaluations, climbed_base.evaluations);
  }
}

TEST(Recovery, ComponentwiseSweepMatchesSerial) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  Rng rng(515);
  const auto sets = random_fault_sets(25, 5, 30, rng);
  const SrgIndex index(kr.table);
  std::vector<ComponentwiseDiameter> serial;
  for (const auto& faults : sets) {
    serial.push_back(componentwise_surviving_diameter(gg.graph, kr.table,
                                                      faults));
  }
  for (unsigned threads : kThreadCounts) {
    const auto swept = componentwise_sweep(gg.graph, index, sets, ExecPolicy{.threads = threads});
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(swept[i].worst, serial[i].worst) << "set " << i;
      EXPECT_EQ(swept[i].num_components, serial[i].num_components);
      EXPECT_EQ(swept[i].survivors, serial[i].survivors);
    }
  }
}

TEST(Planner, CertifiedRoutingThreadInvariant) {
  const auto gg = torus_graph(5, 5);
  ToleranceReport base;
  bool have_base = false;
  for (unsigned threads : kThreadCounts) {
    Rng rng(42);
    ToleranceCheckOptions opts;
    opts.exec.threads = threads;
    const auto certified =
        build_certified_routing(gg.graph, gg.known_connectivity, rng, opts);
    // The certificate is the measured evidence for the plan's claim.
    EXPECT_TRUE(certified.certificate.holds)
        << certified.certificate.summary();
    EXPECT_EQ(certified.certificate.claimed_bound,
              certified.routing.plan.guaranteed_diameter);
    if (!have_base) {
      base = certified.certificate;
      have_base = true;
      continue;
    }
    EXPECT_EQ(certified.certificate.summary(), base.summary());
    EXPECT_EQ(certified.certificate.worst_faults, base.worst_faults);
  }
}

}  // namespace
}  // namespace ftr
