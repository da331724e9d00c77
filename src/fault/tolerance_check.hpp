// The (d, f)-tolerance verification harness: the bridge between the paper's
// theorems and the benchmark tables. Given a routing and a claimed bound, it
// measures the worst surviving diameter over fault sets of size <= f —
// exhaustively when affordable, otherwise with sampling + targeted
// hill-climbing — and reports claimed vs. measured.
//
// The check is one plan (run_tolerance_check) over one of two backends:
// in-process, or a distributed worker pool (dist/coordinator.hpp). The plan
// checks f <= n, then picks a branch:
//  * exhaustive Gray — C(n, f) within budget and f <= 3: every set in
//    revolving-door order on the sweep engine (one-element deltas per set),
//    so the witness is the first worst set in gray order;
//  * exhaustive lexicographic — C(n, f) within budget, f > 3 (or no
//    SrgIndex to walk Gray-adjacent sets on);
//  * sampled + hill-climbing — otherwise: uniform samples on the sweep
//    engine, then climbs seeded by the caller's sets or, for single-route
//    tables, by the f busiest nodes by route load.
// All randomness derives from ONE draw of the caller's Rng, and every phase
// folds its task space in index order (first set reaching the maximum
// wins), so the report — verdict, witness, evaluation count — is
// bit-identical for any thread count, worker count or unit size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
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
  /// How the check executes (see common/exec_policy.hpp): threads fan each
  /// phase across workers, kernel/lanes drive the evaluators (kAuto runs
  /// the f <= 3 exhaustive Gray phase packed and the other phases on the
  /// bitset kernel), batch_size sizes the sweep engine's batches. The
  /// report is identical for any value of any of it.
  ExecPolicy exec;
};

/// Where a check's phases run. Each phase returns the AdvPartial of its
/// whole task space folded in task order, first index reaching the maximum
/// winning, so a backend decides where the work runs, never the report.
/// Implemented in-process (tolerance_check.cpp) and over a DistSweepPool
/// (dist/coordinator.cpp).
class CheckBackend {
 public:
  virtual ~CheckBackend() = default;
  /// All C(n, f) sets in revolving-door order, or nullopt when the backend
  /// has no SrgIndex to walk them on.
  virtual std::optional<AdvPartial> gray(std::uint32_t f) = 0;
  /// All C(n, f) sets in lexicographic order.
  virtual AdvPartial lex(std::uint32_t f) = 0;
  /// `samples` uniform sets; set i is Rng::stream(seed, i).sample(n, f).
  virtual AdvPartial sampled(std::uint32_t f, std::uint64_t samples,
                             std::uint64_t seed) = 0;
  /// Hill-climbing as hillclimb_worst_faults: restart i climbs with
  /// Rng::stream(seed, i), starting from seeds[i] when there is one.
  virtual AdvPartial climb(std::uint32_t f, std::uint64_t seed,
                           std::size_t restarts, std::size_t max_steps,
                           const std::vector<std::vector<Node>>& seeds) = 0;
  /// Every node, busiest first by route load (nodes_by_route_load); empty
  /// when the table has no single route per pair to rank by.
  virtual std::vector<Node> route_load_ranking() const { return {}; }
};

/// The check's plan, for every backend and every table flavor: f <= n
/// (ContractViolation naming both otherwise), then the branch described at
/// the top of this file. `seed` is the one draw from the caller's Rng.
ToleranceReport run_tolerance_check(CheckBackend& backend, std::size_t n,
                                    std::uint32_t f,
                                    std::uint32_t claimed_bound,
                                    std::uint64_t seed,
                                    const ToleranceCheckOptions& options);

/// A delivery-free sweep partial read as the adversary partial of the same
/// scan: same worst diameter and witness, one evaluation per set.
AdvPartial adv_partial_of(const SweepPartial& partial);

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
/// Without an SrgIndex every exhaustive check is lexicographic.
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
