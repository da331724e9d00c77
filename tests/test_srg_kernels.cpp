// Differential suite for the SRG evaluation kernels (fault/srg_engine.hpp):
// bitset (word-packed BFS over the delta-maintained fault-set state) and
// packed (Gray-adjacent fault sets evaluated lane-parallel in
// width-parameterized blocks of 64/128/256/512 lanes). The reference is the
// one-shot oracle in fault/surviving.cpp, evaluated per set in a test-local
// loop and folded into the same aggregates the consumer reports. The
// contract under test is bit-identity: every consumer — exhaustive Gray
// sweeps, streamed sweeps, the adversary's Gray scan, tolerance checks,
// componentwise recovery — must produce byte-for-byte the oracle's results
// for every kernel, every packed lane width (explicit and auto-resolved),
// every thread count in {1, 2, 8}, and every source kind, including
// evaluation counts, early-stop behavior, and the reported witnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "fault/fault_gen.hpp"
#include "fault/surviving.hpp"
#include "fault/tolerance_check.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/route_table.hpp"
#include "routing/tricircular.hpp"
#include "sim/network_sim.hpp"
#include "sim/recovery.hpp"

namespace ftr {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};
constexpr SrgKernel kAllKernels[] = {SrgKernel::kBitset, SrgKernel::kPacked,
                                     SrgKernel::kAuto};
constexpr unsigned kExplicitWidths[] = {64, 128, 256, 512};
// 0 = auto (env hook, then widest probed ISA) — the default every caller
// gets; the explicit widths pin each LaneBlock<W> instantiation.
constexpr unsigned kAllWidths[] = {0, 64, 128, 256, 512};

// The bitset kernel never consults the lane width; looping widths over it
// would re-run byte-identical code.
std::vector<unsigned> widths_for(SrgKernel kernel) {
  if (kernel == SrgKernel::kPacked || kernel == SrgKernel::kAuto) {
    return {std::begin(kAllWidths), std::end(kAllWidths)};
  }
  return {0};
}

struct NamedTable {
  std::string name;
  Graph g;
  RoutingTable table;
  std::size_t f;  // fault budget for the exhaustive sweeps below
};

// Kernel, circular, and tri-circular constructions plus a hypercube —
// different route shapes (trees, concentrator stars, long ring chords) so
// the kernels see varied SRG densities and kill-index fan-outs.
std::vector<NamedTable> construction_tables() {
  std::vector<NamedTable> out;
  Rng rng(555);
  {
    const auto gg = torus_graph(5, 5);
    out.push_back(
        {"kernel/torus", gg.graph, build_kernel_routing(gg.graph, 3).table, 2});
    const auto m = neighborhood_set_of_size(gg.graph, 5, rng, 32);
    out.push_back({"circular/torus", gg.graph,
                   build_circular_routing(gg.graph, 3, m).table, 2});
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
  {
    const auto gg = hypercube(4);
    out.push_back({"kernel/hypercube", gg.graph,
                   build_kernel_routing(gg.graph, 3).table, 2});
  }
  return out;
}

// Streaming-summary comparator: everything deterministic (per_set is empty
// on the streaming entry points, so record equality is covered by the
// worst-witness fields plus the histogram, which accounts for every set).
void expect_same_summary(const FaultSweepSummary& a,
                         const FaultSweepSummary& b) {
  EXPECT_EQ(a.total_sets, b.total_sets);
  EXPECT_EQ(a.diameter_histogram, b.diameter_histogram);
  EXPECT_EQ(a.disconnected, b.disconnected);
  EXPECT_EQ(a.worst_diameter, b.worst_diameter);
  EXPECT_EQ(a.worst_index, b.worst_index);
  EXPECT_EQ(a.worst_faults, b.worst_faults);
  EXPECT_EQ(a.pairs_sampled, b.pairs_sampled);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_route_hops, b.avg_route_hops);
  EXPECT_EQ(a.max_route_hops, b.max_route_hops);
  EXPECT_EQ(a.max_edge_hops, b.max_edge_hops);
}

// The one-shot oracle's record for one fault set, with the delivery sample
// a sweep draws for the set at global index `index`.
FaultSweepRecord oracle_record(const RoutingTable& table,
                               const std::vector<Node>& faults,
                               const FaultSweepOptions& options,
                               std::uint64_t index) {
  const Digraph g = surviving_graph(table, faults);
  FaultSweepRecord rec;
  rec.diameter = surviving_diameter(table, faults);
  rec.survivors = static_cast<std::uint32_t>(g.num_present());
  rec.arcs = static_cast<std::uint32_t>(g.num_arcs());
  if (options.delivery_pairs > 0) {
    Rng rng = Rng::stream(options.seed, index);
    rec.delivery = measure_delivery_on(table, g, options.delivery_pairs, rng);
  }
  return rec;
}

// Folds the oracle records of a whole stream, in input order, into the
// summary a sweep of that stream reports.
FaultSweepSummary oracle_summary(const RoutingTable& table,
                                 FaultSetSource& source,
                                 const FaultSweepOptions& options) {
  SweepPartial partial;
  std::vector<Node> faults;
  while (source.next(faults)) {
    const std::uint64_t i = partial.sets;
    absorb_sweep_record(partial, i, oracle_record(table, faults, options, i),
                        &faults);
  }
  return summarize_sweep_partial(partial);
}

FaultSweepSummary oracle_gray_summary(const RoutingTable& table, std::size_t f,
                                      const FaultSweepOptions& options) {
  ExhaustiveGraySource source(table.num_nodes(), f);
  return oracle_summary(table, source, options);
}

// The Gray-order adversary scan on the oracle: first worst set in rank
// order, every set counted.
AdversaryResult oracle_gray_scan(const RoutingTable& table, std::size_t f) {
  AdversaryResult r;
  r.exhaustive = true;
  GraySubsetEnumerator e(table.num_nodes(), f);
  do {
    const std::vector<Node> faults(e.current().begin(), e.current().end());
    const std::uint32_t d = surviving_diameter(table, faults);
    ++r.evaluations;
    if (r.evaluations == 1 || d > r.worst_diameter) {
      r.worst_diameter = d;
      r.worst_faults = faults;
    }
  } while (e.advance());
  return r;
}

FaultEvaluatorFactory oracle_evaluator_factory(const RoutingTable& table) {
  return [&table]() {
    return [&table](const std::vector<Node>& faults) {
      return surviving_diameter(table, faults);
    };
  };
}

TEST(SrgKernels, ParseAndNameRoundTrip) {
  for (const SrgKernel k : kAllKernels) {
    const auto parsed = parse_srg_kernel(srg_kernel_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_srg_kernel("frog").has_value());
  EXPECT_FALSE(parse_srg_kernel("scalar").has_value());
  EXPECT_FALSE(parse_srg_kernel("").has_value());
}

TEST(SrgKernels, ExhaustiveGrayAllKernelsIdentical) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const auto base = oracle_gray_summary(entry.table, entry.f, {});
    ASSERT_EQ(base.total_sets,
              binomial(entry.g.num_nodes(), entry.f));

    for (const SrgKernel kernel : kAllKernels) {
      for (unsigned threads : kThreadCounts) {
        for (unsigned lanes : widths_for(kernel)) {
          FaultSweepOptions opts;
          opts.exec.threads = threads;
          opts.exec.kernel = kernel;
          opts.exec.lanes = lanes;
          SCOPED_TRACE(entry.name + " kernel=" + srg_kernel_name(kernel) +
                       " threads=" + std::to_string(threads) + " lanes=" +
                       std::to_string(lanes));
          expect_same_summary(
              base, sweep_exhaustive_gray(entry.table, index, entry.f, opts));
        }
      }
    }
  }
}

// Odd batch sizes shift every chunk boundary, so packed blocks straddle
// batches and end in partial (< lane_width) tails everywhere — at every
// width, including batches smaller than one block.
TEST(SrgKernels, ExhaustiveGrayBatchSizeInvariant) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto base = oracle_gray_summary(kr.table, 2, {});
  for (const std::size_t batch : {1u, 7u, 64u, 301u}) {
    for (const SrgKernel kernel : {SrgKernel::kBitset, SrgKernel::kPacked}) {
      for (unsigned lanes : widths_for(kernel)) {
        FaultSweepOptions opts;
        opts.exec.threads = 2;
        opts.exec.batch_size = batch;
        opts.exec.kernel = kernel;
        opts.exec.lanes = lanes;
        SCOPED_TRACE("batch=" + std::to_string(batch) + " kernel=" +
                     srg_kernel_name(kernel) + " lanes=" +
                     std::to_string(lanes));
        expect_same_summary(base,
                            sweep_exhaustive_gray(kr.table, index, 2, opts));
      }
    }
  }
}

// Delivery measurement needs per-set materialized graphs, which the packed
// kernel cannot provide: requesting kPacked with delivery_pairs > 0 must
// quietly ride the bitset path and still match the oracle exactly
// (including the randomized per-pair delivery statistics) — at EVERY lane
// width, since the degrade decision must fire before the width matters.
TEST(SrgKernels, ExhaustiveGrayDeliveryFallsBackFromPacked) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  FaultSweepOptions base_opts;
  base_opts.delivery_pairs = 4;
  base_opts.seed = 99;
  const auto base = oracle_gray_summary(kr.table, 2, base_opts);
  EXPECT_GT(base.pairs_sampled, 0u);
  for (const SrgKernel kernel : kAllKernels) {
    for (unsigned lanes : widths_for(kernel)) {
      FaultSweepOptions opts = base_opts;
      opts.exec.kernel = kernel;
      opts.exec.lanes = lanes;
      opts.exec.threads = 2;
      SCOPED_TRACE(std::string(srg_kernel_name(kernel)) + " lanes=" +
                   std::to_string(lanes));
      expect_same_summary(base,
                          sweep_exhaustive_gray(kr.table, index, 2, opts));
    }
  }
}

// The gray fast path must also be indistinguishable from streaming the same
// enumeration through the generic engine, for every kernel.
TEST(SrgKernels, ExhaustiveGraySourceMatchesFastPath) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto base = oracle_gray_summary(kr.table, 2, {});
  for (const SrgKernel kernel : kAllKernels) {
    FaultSweepOptions opts;
    opts.exec.kernel = kernel;
    opts.exec.threads = 2;
    ExhaustiveGraySource source(gg.graph.num_nodes(), 2);
    SCOPED_TRACE(srg_kernel_name(kernel));
    expect_same_summary(base,
                        sweep_fault_source(kr.table, index, source, opts));
    expect_same_summary(base, sweep_exhaustive_gray(kr.table, index, 2, opts));
  }
}

TEST(SrgKernels, SampledStreamAllKernelsIdentical) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    FaultSweepOptions base_opts;
    base_opts.delivery_pairs = 4;  // delivery rides every kernel here
    base_opts.seed = 4242;
    SampledStreamSource base_source(entry.g.num_nodes(), entry.f + 1, 60,
                                    4242);
    const auto base = oracle_summary(entry.table, base_source, base_opts);

    for (const SrgKernel kernel : kAllKernels) {
      for (unsigned threads : kThreadCounts) {
        FaultSweepOptions opts = base_opts;
        opts.exec.threads = threads;
        opts.exec.kernel = kernel;
        SampledStreamSource source(entry.g.num_nodes(), entry.f + 1, 60,
                                   4242);
        SCOPED_TRACE(entry.name + " kernel=" + srg_kernel_name(kernel) +
                     " threads=" + std::to_string(threads));
        expect_same_summary(
            base, sweep_fault_source(entry.table, index, source, opts));
      }
    }
  }
}

TEST(SrgKernels, StdinSourceAllKernelsIdentical) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const std::string feed =
      "# hand-written fault sets\n"
      "0 1 2\n"
      "\n"
      "24\n"
      "3 17\n"
      "5 6 7 8 9 10\n"
      "12 18 24\n";

  std::istringstream base_in(feed);
  IstreamFaultSetSource base_source(base_in, gg.graph.num_nodes());
  const auto base = oracle_summary(kr.table, base_source, {});
  ASSERT_EQ(base.total_sets, 5u);

  for (const SrgKernel kernel : kAllKernels) {
    for (unsigned threads : kThreadCounts) {
      FaultSweepOptions opts;
      opts.exec.threads = threads;
      opts.exec.kernel = kernel;
      std::istringstream in(feed);
      IstreamFaultSetSource source(in, gg.graph.num_nodes());
      SCOPED_TRACE(std::string(srg_kernel_name(kernel)) + " threads=" +
                   std::to_string(threads));
      expect_same_summary(base,
                          sweep_fault_source(kr.table, index, source, opts));
    }
  }
}

// The check's Gray phase: the index-only range scan, read as an adversary
// partial, against the oracle's first-worst-in-gray-order scan.
TEST(SrgKernels, AdversaryGrayScanIdenticalAcrossKernels) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const auto base = oracle_gray_scan(entry.table, entry.f);
    for (const SrgKernel kernel : kAllKernels) {
      for (unsigned threads : kThreadCounts) {
        for (unsigned lanes : widths_for(kernel)) {
          FaultSweepOptions opts;
          opts.exec = {.threads = threads, .kernel = kernel, .lanes = lanes};
          const AdvPartial got = adv_partial_of(sweep_exhaustive_gray_range(
              index, entry.f, 0, base.evaluations, opts));
          SCOPED_TRACE(entry.name + " kernel=" + srg_kernel_name(kernel) +
                       " threads=" + std::to_string(threads) + " lanes=" +
                       std::to_string(lanes));
          EXPECT_EQ(base.worst_diameter, got.d);
          EXPECT_EQ(base.worst_faults, got.faults);
          EXPECT_EQ(base.evaluations, got.evaluations);
        }
      }
    }
  }
}

TEST(SrgKernels, ToleranceCheckIdenticalAcrossKernels) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);

  // Gray fast path (f = 2 fits the exhaustive budget): the report is the
  // oracle's Gray scan...
  {
    const auto scan = oracle_gray_scan(kr.table, 2);
    ToleranceReport base;
    base.claimed_bound = 10;
    base.faults = 2;
    base.worst_diameter = scan.worst_diameter;
    base.worst_faults = scan.worst_faults;
    base.fault_sets_checked = scan.evaluations;
    base.exhaustive = true;
    base.holds = base.worst_diameter <= 10;
    for (const SrgKernel kernel : kAllKernels) {
      for (unsigned threads : kThreadCounts) {
        for (unsigned lanes : widths_for(kernel)) {
          ToleranceCheckOptions opts;
          opts.exec.threads = threads;
          opts.exec.kernel = kernel;
          opts.exec.lanes = lanes;
          Rng rng(7);
          const auto got = check_tolerance(kr.table, 2, 10, rng, opts);
          SCOPED_TRACE(std::string(srg_kernel_name(kernel)) + " threads=" +
                       std::to_string(threads) + " lanes=" +
                       std::to_string(lanes));
          EXPECT_EQ(base.summary(), got.summary());
          EXPECT_EQ(base.worst_faults, got.worst_faults);
          EXPECT_EQ(base.fault_sets_checked, got.fault_sets_checked);
        }
      }
    }
  }

  // ...and the sampled + hill-climbing path (budget forced below C(25, 2)):
  // the same search over oracle evaluators, seeded as check_tolerance seeds
  // it (one draw from the caller's rng, the top-f route-load nodes).
  {
    ToleranceCheckOptions base_opts;
    base_opts.exhaustive_budget = 50;
    base_opts.samples = 40;
    ToleranceCheckOptions oracle_opts = base_opts;
    const auto ranked = nodes_by_route_load(kr.table);
    oracle_opts.seeds.push_back({ranked[0], ranked[1]});
    Rng base_rng(7);
    const auto base =
        check_tolerance_with(kr.table.num_nodes(),
                             oracle_evaluator_factory(kr.table), 2, 10,
                             base_rng(), oracle_opts);
    EXPECT_FALSE(base.exhaustive);
    for (const SrgKernel kernel : kAllKernels) {
      for (unsigned threads : kThreadCounts) {
        ToleranceCheckOptions opts = base_opts;
        opts.exec.threads = threads;
        opts.exec.kernel = kernel;
        Rng rng(7);
        const auto got = check_tolerance(kr.table, 2, 10, rng, opts);
        SCOPED_TRACE(std::string(srg_kernel_name(kernel)) + " threads=" +
                     std::to_string(threads));
        EXPECT_EQ(base.summary(), got.summary());
        EXPECT_EQ(base.worst_faults, got.worst_faults);
      }
    }
  }
}

TEST(SrgKernels, SingleSetBitsetMatchesOneShotOracle) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch bitset(index);

  Rng rng(31);
  for (std::size_t f : {0u, 1u, 3u, 6u, 12u, 22u}) {
    const auto sets = random_fault_sets(gg.graph.num_nodes(), f, 6, rng);
    for (const auto& faults : sets) {
      const auto got = bitset.evaluate(faults);
      const auto want = oracle_record(kr.table, faults, {}, 0);
      EXPECT_EQ(want.diameter, got.diameter) << "f=" << f;
      EXPECT_EQ(want.survivors, got.survivors);
      EXPECT_EQ(want.arcs, got.arcs);
    }
  }
  // Duplicate fault ids collapse as they do in the oracle.
  const std::vector<Node> dup{2, 2, 5};
  EXPECT_EQ(bitset.surviving_diameter(dup), surviving_diameter(kr.table, dup));
}

TEST(SrgKernels, ComponentwiseSweepIdenticalAcrossKernels) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(515);
  const auto sets = random_fault_sets(gg.graph.num_nodes(), 5, 12, rng);
  std::vector<ComponentwiseDiameter> base;
  for (const auto& faults : sets) {
    base.push_back(componentwise_surviving_diameter(gg.graph, kr.table, faults));
  }
  for (const SrgKernel kernel : kAllKernels) {
    for (unsigned threads : kThreadCounts) {
      const auto got =
          componentwise_sweep(gg.graph, index, sets, ExecPolicy{.threads = threads, .kernel = kernel});
      ASSERT_EQ(base.size(), got.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE(std::string(srg_kernel_name(kernel)) + " threads=" +
                     std::to_string(threads) + " set " + std::to_string(i));
        EXPECT_EQ(base[i].worst, got[i].worst);
        EXPECT_EQ(base[i].num_components, got[i].num_components);
        EXPECT_EQ(base[i].survivors, got[i].survivors);
      }
    }
  }
}

// set_lane_width / lane_width round-trip: explicit widths are honored,
// 0 re-resolves to the auto width, and re-setting re-sizes the scratch.
TEST(SrgKernels, ScratchLaneWidthRoundTrip) {
  const auto gg = cycle_graph(10);
  RoutingTable t(10, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  const SrgIndex index(t);
  SrgScratch scratch(index);
  for (unsigned lanes : kExplicitWidths) {
    scratch.set_lane_width(lanes);
    EXPECT_EQ(scratch.lane_width(), lanes);
  }
  scratch.set_lane_width(0);
  EXPECT_TRUE(is_valid_lane_width(scratch.lane_width()));
}

// Direct block-kernel contract: evaluate_gray_block's lanes must agree
// lane-for-lane with per-set evaluate() at the matching gray ranks, at
// every width, for partial tail blocks (count < lane_width, including
// non-word-multiple counts that leave a partially-filled word) and full
// blocks, on a table where many sets disconnect (the ring) — the
// disconnect bit and the early lane-drop are the subtle parts.
TEST(SrgKernels, PackedBlockMatchesPerSetEvaluate) {
  const auto gg = cycle_graph(12);
  RoutingTable t(12, RoutingMode::kBidirectional);
  install_edge_routes(t, gg.graph);
  const SrgIndex index(t);
  SrgScratch per_set(index);

  constexpr std::size_t kBlockSizes[] = {1,   7,   33,  64,  65,  127,
                                         128, 129, 255, 256, 311, 512};
  for (const unsigned width : kExplicitWidths) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    for (const std::size_t block : kBlockSizes) {
      if (block > width) continue;
      GraySubsetEnumerator e(12, 2);  // C(12,2) = 66 sets
      const std::uint64_t total = e.count();
      std::uint64_t rank = 0;
      SrgScratch::Result out[512];
      while (rank < total) {
        const std::size_t cnt = static_cast<std::size_t>(
            std::min<std::uint64_t>(block, total - rank));
        packed.evaluate_gray_block(e, cnt, out);
        for (std::size_t i = 0; i < cnt; ++i) {
          const auto set64 = gray_subset_at_rank(12, 2, rank + i);
          const std::vector<Node> faults(set64.begin(), set64.end());
          const auto expect = per_set.evaluate(faults);
          SCOPED_TRACE("width=" + std::to_string(width) + " block=" +
                       std::to_string(block) + " rank=" +
                       std::to_string(rank + i));
          EXPECT_EQ(expect.diameter, out[i].diameter);
          EXPECT_EQ(expect.survivors, out[i].survivors);
          EXPECT_EQ(expect.arcs, out[i].arcs);
        }
        rank += cnt;
        if (rank < total) {
          ASSERT_TRUE(e.advance());
        }
      }
    }
  }
}

// A single block wider than one word whose count fills several words plus a
// partial tail: the lanes past `count` must stay dead through every phase
// (a stray live lane would corrupt the worklists the NEXT block inherits).
TEST(SrgKernels, PackedBlockTailLanesStayDead) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  SrgScratch per_set(index);
  const std::uint64_t total = GraySubsetEnumerator(16, 2).count();  // 120

  for (const unsigned width : {256u, 512u}) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    // 120 sets in one 256/512-lane block: 1 full word + a 56-lane tail.
    GraySubsetEnumerator e(16, 2);
    SrgScratch::Result out[512];
    packed.evaluate_gray_block(e, static_cast<std::size_t>(total), out);
    // The same scratch must then evaluate a fresh enumeration cleanly (the
    // sparse cleanup has to have erased all tail-lane state).
    GraySubsetEnumerator e2(16, 2);
    SrgScratch::Result out2[512];
    packed.evaluate_gray_block(e2, 64, out2);
    for (std::size_t i = 0; i < 64; ++i) {
      SCOPED_TRACE("width=" + std::to_string(width) + " rank=" +
                   std::to_string(i));
      EXPECT_EQ(out[i].diameter, out2[i].diameter);
      EXPECT_EQ(out[i].survivors, out2[i].survivors);
      EXPECT_EQ(out[i].arcs, out2[i].arcs);
      const auto set64 = gray_subset_at_rank(16, 2, i);
      const std::vector<Node> faults(set64.begin(), set64.end());
      EXPECT_EQ(per_set.evaluate(faults).diameter, out[i].diameter);
    }
  }
}

// Survivor counts of 1 and 0 pin diameter to 0 by definition; the packed
// kernel must get that from its lane masks, not from a BFS — at every
// width.
TEST(SrgKernels, PackedBlockFewSurvivors) {
  RoutingTable t(3, RoutingMode::kBidirectional);
  t.set_route({0, 1});
  t.set_route({1, 2});
  t.set_route({0, 1, 2});
  const SrgIndex index(t);
  SrgScratch per_set(index);

  for (const unsigned width : kExplicitWidths) {
    SrgScratch packed(index);
    packed.set_lane_width(width);
    GraySubsetEnumerator e(3, 2);  // 3 sets, every one leaves 1 survivor
    SrgScratch::Result out[512];
    packed.evaluate_gray_block(e, 3, out);
    for (std::size_t i = 0; i < 3; ++i) {
      const auto set64 = gray_subset_at_rank(3, 2, i);
      const std::vector<Node> faults(set64.begin(), set64.end());
      const auto expect = per_set.evaluate(faults);
      SCOPED_TRACE("width=" + std::to_string(width));
      EXPECT_EQ(expect.diameter, out[i].diameter);
      EXPECT_EQ(out[i].diameter, 0u);
      EXPECT_EQ(expect.survivors, out[i].survivors);
      EXPECT_EQ(expect.arcs, out[i].arcs);
    }
  }
}

}  // namespace
}  // namespace ftr
