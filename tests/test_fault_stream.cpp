// The streaming fault-sweep layer: FaultSetSource implementations, the
// constant-memory batched engine, and the revolving-door (Gray) exhaustive
// fast path. The central contracts, all differential:
//
//  * streaming a source == materializing the same sets and batch-sweeping
//    them, for any thread count and any batch size;
//  * sweep_exhaustive_gray (the Gray fast path) is bit-identical —
//    histograms, verdicts, worst witness, delivery — to pushing an
//    ExhaustiveGraySource through the generic streaming engine, on kernel /
//    circular / tri-circular tables, threads {1, 2, 8}, f in {1, 2, 3};
//  * the line-delimited istream feed reproduces the materialized sweep.
#include "analysis/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/neighborhood.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/adversary.hpp"
#include "fault/fault_gen.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "routing/circular.hpp"
#include "routing/kernel.hpp"
#include "routing/tricircular.hpp"

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
// families the gray-vs-rebuild acceptance criterion names.
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
    const auto gg = cycle_graph(45);
    const auto m = neighborhood_set_of_size(gg.graph, 15, rng, 32);
    out.push_back({"tricircular/cycle", gg.graph,
                   build_tricircular_routing(gg.graph, 1, m,
                                             TriCircularVariant::kFull)
                       .table,
                   1});
  }
  return out;
}

// Every deterministic aggregate of the summary (per_set and telemetry
// excluded — streaming paths have no per_set by design).
void expect_same_aggregates(const FaultSweepSummary& a,
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

// --- sources -----------------------------------------------------------------

TEST(FaultSetSource, ExplicitListYieldsTheListInOrder) {
  const std::vector<std::vector<Node>> sets = {{1, 2}, {0}, {3, 4, 5}};
  ExplicitListSource source(sets);
  ASSERT_TRUE(source.size().has_value());
  EXPECT_EQ(*source.size(), sets.size());
  std::vector<Node> out;
  for (const auto& expected : sets) {
    ASSERT_TRUE(source.next(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(source.next(out));
  EXPECT_FALSE(source.next(out));  // stays exhausted
}

TEST(FaultSetSource, SampledStreamIsAPureFunctionOfSeedAndIndex) {
  SampledStreamSource source(30, 3, 16, 99);
  std::vector<Node> out;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(source.next(out));
    Rng rng = Rng::stream(99, i);
    const auto expected = rng.sample(30, 3);
    EXPECT_EQ(out, std::vector<Node>(expected.begin(), expected.end()));
  }
  EXPECT_FALSE(source.next(out));
}

TEST(FaultSetSource, ExhaustiveGrayMatchesTheEnumerator) {
  ExhaustiveGraySource source(7, 3);
  ASSERT_TRUE(source.size().has_value());
  EXPECT_EQ(*source.size(), binomial(7, 3));
  GraySubsetEnumerator e(7, 3);
  std::vector<Node> out;
  std::uint64_t count = 0;
  while (source.next(out)) {
    EXPECT_EQ(out, std::vector<Node>(e.current().begin(), e.current().end()));
    ++count;
    if (count < binomial(7, 3)) e.advance();
  }
  EXPECT_EQ(count, binomial(7, 3));
}

TEST(FaultSetSource, IstreamParsesLinesCommentsAndBlanks) {
  std::istringstream in(
      "1 2 3\n"
      "\n"
      "# a full-line comment\n"
      "  7   0  # trailing comment\n"
      "4\n");
  IstreamFaultSetSource source(in, 10);
  std::vector<Node> out;
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{1, 2, 3}));
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{7, 0}));
  ASSERT_TRUE(source.next(out));
  EXPECT_EQ(out, (std::vector<Node>{4}));
  EXPECT_FALSE(source.next(out));
}

TEST(FaultSetSource, IstreamRejectsGarbageAndOutOfRangeIds) {
  {
    std::istringstream in("1 frog 2\n");
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    EXPECT_THROW(source.next(out), ContractViolation);
  }
  {
    std::istringstream in("3 99\n");
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    EXPECT_THROW(source.next(out), ContractViolation);
  }
}

TEST(FaultSetSource, IstreamErrorsNameTheLineAndToken) {
  // Malformed feeds fail with the 1-based line number and the offending
  // token — never a silent wrap or half-parsed line. Comment and blank
  // lines count toward the numbering (they are real lines of the feed).
  const auto expect_throw_mentioning = [](const std::string& text,
                                          const std::string& line_tag,
                                          const std::string& token) {
    std::istringstream in(text);
    IstreamFaultSetSource source(in, 10);
    std::vector<Node> out;
    for (;;) {
      try {
        if (!source.next(out)) {
          FAIL() << "expected ContractViolation from: " << text;
          return;
        }
      } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(line_tag), std::string::npos) << what;
        EXPECT_NE(what.find(token), std::string::npos) << what;
        return;
      }
    }
  };
  expect_throw_mentioning("1 2\n# comment\n\n4 frog\n", "line 4", "'frog'");
  // A negative id is non-numeric, not a 2^64 wraparound.
  expect_throw_mentioning("-1 3\n", "line 1", "'-1'");
  expect_throw_mentioning("0 1\n3 99\n", "line 2", "'99'");
  // Digits that overflow unsigned long long are out of range, not UB.
  expect_throw_mentioning("123456789012345678901234567890\n", "line 1",
                          "out of range");
}

// --- streaming engine vs materialized path ----------------------------------

TEST(FaultStream, StreamingMatchesMaterializedAcrossThreadsAndBatches) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(17);
  const auto sets = random_fault_sets(25, 4, 75, rng);

  FaultSweepOptions base_opts;
  base_opts.delivery_pairs = 5;
  base_opts.seed = 4242;
  const auto materialized = sweep_fault_sets(kr.table, index, sets, base_opts);
  ASSERT_EQ(materialized.per_set.size(), sets.size());
  EXPECT_EQ(materialized.worst_faults, sets[materialized.worst_index]);

  for (unsigned threads : kThreadCounts) {
    // Deliberately awkward batch sizes: boundaries must never show.
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{1024}}) {
      FaultSweepOptions opts = base_opts;
      opts.exec.threads = threads;
      opts.exec.batch_size = batch;
      ExplicitListSource source(sets);
      const auto streamed = sweep_fault_source(kr.table, index, source, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      EXPECT_TRUE(streamed.per_set.empty());  // constant-memory contract
      expect_same_aggregates(streamed, materialized);
    }
  }
}

TEST(FaultStream, IstreamFeedMatchesMaterialized) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(23);
  const auto sets = random_fault_sets(25, 3, 40, rng);

  std::string text = "# fault sets, one per line\n";
  for (const auto& s : sets) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0) text += ' ';
      text += std::to_string(s[i]);
    }
    text += '\n';
  }

  FaultSweepOptions opts;
  opts.exec.threads = 2;
  opts.exec.batch_size = 16;
  const auto materialized = sweep_fault_sets(kr.table, index, sets, opts);
  std::istringstream in(text);
  IstreamFaultSetSource source(in, 25);
  const auto streamed = sweep_fault_source(kr.table, index, source, opts);
  expect_same_aggregates(streamed, materialized);
}

TEST(FaultStream, EmptySourceYieldsEmptySummary) {
  const auto gg = torus_graph(4, 4);
  const auto kr = build_kernel_routing(gg.graph, 2);
  const SrgIndex index(kr.table);
  std::istringstream in("# nothing but comments\n\n");
  IstreamFaultSetSource source(in, 16);
  const auto summary = sweep_fault_source(kr.table, index, source, {});
  EXPECT_EQ(summary.total_sets, 0u);
  EXPECT_EQ(summary.disconnected, 0u);
  EXPECT_TRUE(summary.diameter_histogram.empty());
  EXPECT_TRUE(summary.worst_faults.empty());
}

TEST(FaultStream, ProgressFiresBetweenBatches) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  Rng rng(3);
  const auto sets = random_fault_sets(25, 3, 64, rng);

  std::vector<std::uint64_t> reported;
  FaultSweepOptions opts;
  opts.exec.batch_size = 8;
  opts.exec.progress_every = 10;
  opts.on_progress = [&](const FaultSweepProgress& p) {
    reported.push_back(p.sets_done);
  };
  ExplicitListSource source(sets);
  const auto summary = sweep_fault_source(kr.table, index, source, opts);
  EXPECT_EQ(summary.total_sets, 64u);
  ASSERT_FALSE(reported.empty());
  for (std::size_t i = 1; i < reported.size(); ++i) {
    EXPECT_GT(reported[i], reported[i - 1]);  // strictly increasing
  }
  EXPECT_EQ(reported.back(), 64u);  // the final batch reports completion
}

// --- the Gray fast path vs the streaming path ---------------------------------

// THE acceptance differential: the revolving-door fast path and the
// generic engine fed the same enumeration must agree bit for bit on every
// aggregate, across the three construction families, f in {1, 2, 3}, and
// threads {1, 2, 8}.
TEST(FaultStream, GrayFastPathBitIdenticalToStreamedSource) {
  for (const auto& entry : construction_tables()) {
    const SrgIndex index(entry.table);
    const std::size_t n = entry.g.num_nodes();
    for (std::size_t f : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      FaultSweepOptions base_opts;
      // Delivery exercises the canonical-order digraph materialization;
      // keep it to f = 1 so the full product stays fast.
      base_opts.delivery_pairs = (f == 1) ? 4 : 0;
      base_opts.seed = 99;
      base_opts.exec.batch_size = 64;  // force several batches at f >= 2

      ExhaustiveGraySource ref_source(n, f);
      const auto rebuild =
          sweep_fault_source(entry.table, index, ref_source, base_opts);
      ASSERT_EQ(rebuild.total_sets, binomial(n, f)) << entry.name;

      for (unsigned threads : kThreadCounts) {
        FaultSweepOptions opts = base_opts;
        opts.exec.threads = threads;
        const auto gray = sweep_exhaustive_gray(entry.table, index, f, opts);
        SCOPED_TRACE(entry.name + " f=" + std::to_string(f) +
                     " threads=" + std::to_string(threads));
        expect_same_aggregates(gray, rebuild);
      }
    }
  }
}

TEST(FaultStream, GraySweepWorstWitnessIsConsistent) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const SrgIndex index(kr.table);
  const auto summary = sweep_exhaustive_gray(kr.table, index, 2, {});
  // The unranked witness must actually attain the reported worst diameter.
  SrgScratch scratch(index);
  EXPECT_EQ(scratch.evaluate(summary.worst_faults).diameter,
            summary.worst_diameter);
  EXPECT_EQ(gray_subset_rank(std::vector<std::size_t>(
                summary.worst_faults.begin(), summary.worst_faults.end())),
            summary.worst_index);
}

// --- the Gray exhaustive scan the tolerance check runs ----------------------

TEST(AdversaryGray, MatchesLexicographicGroundTruth) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  auto index = std::make_shared<const SrgIndex>(kr.table);

  const auto serial = exhaustive_worst_faults(
      25, 2,
      [&](const std::vector<Node>& f) {
        SrgScratch scratch(*index);
        return scratch.surviving_diameter(f);
      });

  SweepPartial base;
  bool have_base = false;
  for (unsigned threads : kThreadCounts) {
    FaultSweepOptions opts;
    opts.exec.threads = threads;
    const auto gray =
        sweep_exhaustive_gray_range(*index, 2, 0, binomial(25, 2), opts);
    // Same ground truth (the max over all sets) and the same coverage...
    EXPECT_EQ(gray.worst_diameter, serial.worst_diameter);
    EXPECT_EQ(gray.sets, serial.evaluations);
    // ...the witness may be a different set (gray vs lex order), but must
    // attain the max.
    SrgScratch scratch(*index);
    EXPECT_EQ(scratch.surviving_diameter(gray.worst_faults),
              gray.worst_diameter);
    // And the gray path itself is thread-count-invariant.
    if (!have_base) {
      base = gray;
      have_base = true;
      continue;
    }
    EXPECT_EQ(gray.worst_faults, base.worst_faults);
    EXPECT_EQ(gray.worst_diameter, base.worst_diameter);
    EXPECT_EQ(gray.sets, base.sets);
  }
}

TEST(AdversaryGray, DegenerateBudgets) {
  const auto gg = cycle_graph(8);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const SrgIndex index(kr.table);
  // f = 0: exactly one (empty) evaluation.
  const auto none = sweep_exhaustive_gray_range(index, 0, 0, 1);
  EXPECT_EQ(none.sets, 1u);
  EXPECT_TRUE(none.have_worst);
  EXPECT_TRUE(none.worst_faults.empty());
  // f = n: the single everyone-faulty set has diameter 0 by convention.
  const auto all = sweep_exhaustive_gray_range(index, 8, 0, 1);
  EXPECT_EQ(all.sets, 1u);
  EXPECT_EQ(all.worst_diameter, 0u);
}

}  // namespace
}  // namespace ftr
