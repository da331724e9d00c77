// The (d, f)-tolerance verification harness: the bridge between the paper's
// theorems and the benchmark tables. Given a routing and a claimed bound, it
// measures the worst surviving diameter over fault sets of size <= f —
// exhaustively when affordable, otherwise with sampling + targeted
// hill-climbing — and reports claimed vs. measured.
//
// Checks fan their fault sets across ToleranceCheckOptions::threads workers
// (one SrgScratch per worker over one shared SrgIndex); the report —
// verdict, witness, evaluation count — is bit-identical for any thread
// count. Exhaustive checks at f <= 3 take the revolving-door fast path
// (Gray-order enumeration, one-element deltas per set), so the reported
// witness is the first worst set in gray order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "graph/graph.hpp"
#include "routing/multi_route_table.hpp"
#include "routing/route_table.hpp"

namespace ftr {

struct ToleranceReport {
  std::uint32_t claimed_bound = 0;   // the theorem's d
  std::uint32_t faults = 0;          // the f actually injected
  std::uint32_t worst_diameter = 0;  // measured (kUnreachable = disconnected)
  std::uint64_t fault_sets_checked = 0;
  bool exhaustive = false;  // ground truth vs. adversarial lower bound
  bool holds = false;       // worst_diameter <= claimed_bound
  std::vector<Node> worst_faults;

  std::string summary() const;
};

struct ToleranceCheckOptions {
  /// Enumerate all C(n, f) fault sets when that count is <= this budget.
  std::uint64_t exhaustive_budget = 20000;
  /// Otherwise: this many uniform samples ...
  std::size_t samples = 200;
  /// ... plus hill-climbing with this many restarts and step budget.
  std::size_t hillclimb_restarts = 6;
  std::size_t hillclimb_steps = 24;
  /// Extra seed sets (e.g. concentrator-targeted) for the hill-climber.
  std::vector<std::vector<Node>> seeds;
  /// How the check executes (see common/exec_policy.hpp): threads fan the
  /// fault sweep across workers, kernel/lanes drive the evaluators (kAuto
  /// runs the f <= 3 exhaustive fast path packed and the sampled /
  /// hill-climbing evaluators on the bitset kernel), executor picks the
  /// chunk scheduler. The report is identical for any value of any of it.
  ExecPolicy exec;
};

/// Worst-case check for exactly f faults (the paper's bounds are monotone
/// in f for the exhaustive case; sweep callers vary f explicitly).
ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options = {});

ToleranceReport check_tolerance(const MultiRouteTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options = {});

/// Index-handle forms: run the same check against a PREBUILT shared
/// preprocessing instead of constructing an SrgIndex per call. This is what
/// the serving layer's table registry hands out, so repeated checks against
/// the same table pay the preprocessing once. `index` must have been built
/// from `table`; the report is bit-identical to the table-only overloads
/// (which now delegate here after building a fresh index).
ToleranceReport check_tolerance(const RoutingTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng,
                                const ToleranceCheckOptions& options = {});

ToleranceReport check_tolerance(const MultiRouteTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng,
                                const ToleranceCheckOptions& options = {});

/// Generic version over a single evaluator. The evaluator may own scratch
/// state, so this path always runs serially (options.threads is ignored).
ToleranceReport check_tolerance_with(std::size_t n, const FaultEvaluator& eval,
                                     std::uint32_t f,
                                     std::uint32_t claimed_bound, Rng& rng,
                                     const ToleranceCheckOptions& options);

/// Generic parallel version over an evaluator factory (one evaluator per
/// worker chunk). All randomness derives from `seed` via counter-based
/// streams, so the report is a pure function of its arguments.
ToleranceReport check_tolerance_with(std::size_t n,
                                     const FaultEvaluatorFactory& make_eval,
                                     std::uint32_t f,
                                     std::uint32_t claimed_bound,
                                     std::uint64_t seed,
                                     const ToleranceCheckOptions& options);

}  // namespace ftr
