// Tolerance-check goldens: runs every branch of the check's decision tree —
// exhaustive Gray (f <= 3), exhaustive lexicographic (f > 3), sampled +
// hill-climbing, and f = 0 — on fixed tables with fixed seeds, and pins the
// report's summary line (verdict, measured diameter, sets checked) together
// with the witness. Each case runs in-process at two thread counts and, for
// single-route tables, through a two-worker distributed pool; all must print
// the pinned line. The expectations were recorded with the check as it stood
// before its phases moved onto the sweep engine (a separate Gray walker and a
// mirrored distributed decision tree), so they also pin that the move changed
// no report.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ftroute.hpp"
#include "dist/coordinator.hpp"
#include "fault/surviving.hpp"

namespace ftr {
namespace {

struct CheckCase {
  const char* label;
  std::uint32_t f;
  std::uint32_t claimed;
  std::uint64_t seed;
  bool adversarial;  // force the sampled + hill-climbing branch
  const char* want;  // summary() + " worst=" + witness
};

std::string report_line(const ToleranceReport& r) {
  std::ostringstream os;
  os << r.summary() << " worst=";
  for (std::size_t i = 0; i < r.worst_faults.size(); ++i) {
    os << (i ? "," : "") << r.worst_faults[i];
  }
  return os.str();
}

ToleranceCheckOptions options_for(const CheckCase& c, unsigned threads) {
  ToleranceCheckOptions o;
  o.exec.threads = threads;
  if (c.adversarial) {
    o.exhaustive_budget = 1;
    o.samples = 40;
    o.hillclimb_restarts = 4;
    o.hillclimb_steps = 8;
  }
  return o;
}

// Runs every case in-process (threads 1 and 3) and, when `snap` is given,
// through a two-worker pool; each run must print the case's pinned line.
template <typename Table>
void expect_cases(const Table& table, const TableSnapshot* snap,
                  const std::vector<CheckCase>& cases) {
  const auto index = std::make_shared<const SrgIndex>(table);
  std::optional<DistSweepPool> pool;
  if (snap != nullptr) {
    DistPoolOptions po;
    po.workers = 2;
    pool.emplace(*snap, "", po);
  }
  for (const CheckCase& c : cases) {
    SCOPED_TRACE(c.label);
    for (const unsigned threads : {1u, 3u}) {
      Rng rng(c.seed);
      const auto r = check_tolerance(table, index, c.f, c.claimed, rng,
                                     options_for(c, threads));
      EXPECT_EQ(report_line(r), c.want) << "threads=" << threads;
      // The witness is genuine: the one-shot oracle reproduces its diameter.
      EXPECT_EQ(surviving_diameter(table, r.worst_faults), r.worst_diameter);
    }
    if (pool) {
      Rng rng(c.seed);
      const auto r = check_tolerance_distributed(*pool, c.f, c.claimed, rng,
                                                 options_for(c, 1));
      EXPECT_EQ(report_line(r), c.want) << "distributed";
    }
  }
}

TEST(CheckGolden, KernelTorus5x5) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const TableSnapshot snap = make_table_snapshot(gg.graph, kr.table);
  expect_cases(kr.table, &snap,
               {
                   {"gray f=2", 2, 6, 7, false,
                    "f=2 claimed<=6 measured=3 (exhaustive, 300 sets) HOLDS worst=0,2"},
                   {"lex f=4", 4, 6, 8, false,
                    "f=4 claimed<=6 measured=disconnected (exhaustive, 12650 sets) VIOLATED worst=0,2,6,21"},
                   {"sampled+climb f=3", 3, 6, 9, true,
                    "f=3 claimed<=6 measured=3 (adversarial, 304 sets) HOLDS worst=0,8,13"},
                   {"default sampled f=5", 5, 6, 10, false,
                    "f=5 claimed<=6 measured=disconnected (adversarial, 266 sets) VIOLATED worst=9,10,13,19,22"},
                   {"f=0", 0, 6, 11, false,
                    "f=0 claimed<=6 measured=2 (exhaustive, 1 sets) HOLDS worst="},
               });
}

TEST(CheckGolden, PlannedHypercube4) {
  const auto gg = hypercube(4);
  Rng plan_rng(21);
  const auto planned = build_planned_routing(gg.graph, std::nullopt, plan_rng);
  const TableSnapshot snap = make_table_snapshot(gg.graph, planned.table);
  expect_cases(planned.table, &snap,
               {
                   {"gray f=2", 2, 4, 1, false,
                    "f=2 claimed<=4 measured=3 (exhaustive, 120 sets) HOLDS worst=2,3"},
                   {"gray f=3", 3, 4, 2, false,
                    "f=3 claimed<=4 measured=4 (exhaustive, 560 sets) HOLDS worst=1,7,8"},
                   {"lex f=4", 4, 4, 3, false,
                    "f=4 claimed<=4 measured=disconnected (exhaustive, 1820 sets) VIOLATED worst=0,3,5,9"},
                   {"sampled+climb f=3", 3, 4, 4, true,
                    "f=3 claimed<=4 measured=4 (adversarial, 218 sets) HOLDS worst=1,7,8"},
                   {"f=0", 0, 4, 5, false,
                    "f=0 claimed<=4 measured=2 (exhaustive, 1 sets) HOLDS worst="},
               });
}

TEST(CheckGolden, PlannedTorus6x6) {
  const auto gg = torus_graph(6, 6);
  Rng plan_rng(11);
  const auto planned = build_planned_routing(gg.graph, std::nullopt, plan_rng);
  const TableSnapshot snap = make_table_snapshot(gg.graph, planned.table);
  expect_cases(planned.table, &snap,
               {
                   {"gray f=2", 2, 8, 3, false,
                    "f=2 claimed<=8 measured=3 (exhaustive, 630 sets) HOLDS worst=14,19"},
                   {"sampled+climb f=3", 3, 8, 5, true,
                    "f=3 claimed<=8 measured=3 (adversarial, 428 sets) HOLDS worst=0,4,26"},
                   {"default sampled f=4", 4, 8, 6, false,
                    "f=4 claimed<=8 measured=disconnected (adversarial, 772 sets) VIOLATED worst=1,3,8,32"},
                   {"f=0", 0, 8, 7, false,
                    "f=0 claimed<=8 measured=2 (exhaustive, 1 sets) HOLDS worst="},
               });
}

// A ring routed over its edges only: two non-adjacent faults split it, so
// the climbs reach kUnreachable and the later restarts are discarded.
TEST(CheckGolden, EdgeRoutedCycleDisconnects) {
  const auto gg = cycle_graph(12);
  RoutingTable table(12, RoutingMode::kBidirectional);
  install_edge_routes(table, gg.graph);
  const TableSnapshot snap = make_table_snapshot(gg.graph, table);
  expect_cases(table, &snap,
               {
                   {"gray f=2", 2, 6, 1, false,
                    "f=2 claimed<=6 measured=disconnected (exhaustive, 66 sets) VIOLATED worst=0,2"},
                   {"sampled+climb f=2", 2, 6, 2, true,
                    "f=2 claimed<=6 measured=disconnected (adversarial, 42 sets) VIOLATED worst=2,4"},
               });
}

TEST(CheckGolden, MultiRoutePetersen) {
  const auto gg = petersen_graph();
  const auto table = build_full_multirouting(gg.graph, 2);
  expect_cases(table, nullptr,
               {
                   {"gray f=2", 2, 1, 1, false,
                    "f=2 claimed<=1 measured=1 (exhaustive, 45 sets) HOLDS worst=0,1"},
                   {"lex f=4", 4, 1, 2, false,
                    "f=4 claimed<=1 measured=disconnected (exhaustive, 210 sets) VIOLATED worst=0,1,3,7"},
                   {"sampled+climb f=3", 3, 1, 3, true,
                    "f=3 claimed<=1 measured=disconnected (adversarial, 44 sets) VIOLATED worst=1,3,7"},
                   {"f=0", 0, 1, 4, false,
                    "f=0 claimed<=1 measured=1 (exhaustive, 1 sets) HOLDS worst="},
               });
}

// The generic evaluator-factory form runs the same plan without an index:
// exhaustion is lexicographic at every f.
TEST(CheckGolden, EvaluatorFactoryForm) {
  const auto gg = torus_graph(5, 5);
  const auto kr = build_kernel_routing(gg.graph, 3);
  const FaultEvaluatorFactory oracle = [&kr]() {
    return [&kr](const std::vector<Node>& faults) {
      return surviving_diameter(kr.table, faults);
    };
  };
  const std::vector<CheckCase> cases = {
      {"lex f=2", 2, 6, 7, false,
       "f=2 claimed<=6 measured=3 (exhaustive, 300 sets) HOLDS worst=0,2"},
      {"sampled+climb f=3", 3, 6, 9, true,
       "f=3 claimed<=6 measured=4 (adversarial, 345 sets) HOLDS worst=4,8,14"},
  };
  for (const CheckCase& c : cases) {
    SCOPED_TRACE(c.label);
    for (const unsigned threads : {1u, 3u}) {
      const auto r = check_tolerance_with(25, oracle, c.f, c.claimed, c.seed,
                                          options_for(c, threads));
      EXPECT_EQ(report_line(r), c.want) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ftr
