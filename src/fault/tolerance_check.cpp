#include "fault/tolerance_check.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/fault_gen.hpp"
#include "fault/srg_engine.hpp"
#include "graph/bfs.hpp"

namespace ftr {

std::string ToleranceReport::summary() const {
  std::ostringstream os;
  os << "f=" << faults << " claimed<=" << claimed_bound << " measured=";
  if (worst_diameter == kUnreachable) {
    os << "disconnected";
  } else {
    os << worst_diameter;
  }
  os << (exhaustive ? " (exhaustive, " : " (adversarial, ")
     << fault_sets_checked << " sets) " << (holds ? "HOLDS" : "VIOLATED");
  return os.str();
}

ToleranceReport check_tolerance_with(std::size_t n,
                                     const FaultEvaluatorFactory& make_eval,
                                     std::uint32_t f,
                                     std::uint32_t claimed_bound,
                                     std::uint64_t seed,
                                     const ToleranceCheckOptions& options) {
  ToleranceReport report;
  report.claimed_bound = claimed_bound;
  report.faults = f;
  const SearchExecution exec{options.exec};

  if (binomial(n, f) <= options.exhaustive_budget) {
    const AdversaryResult r = exhaustive_worst_faults(n, f, make_eval, exec);
    report.worst_diameter = r.worst_diameter;
    report.worst_faults = r.worst_faults;
    report.fault_sets_checked = r.evaluations;
    report.exhaustive = true;
  } else {
    // Independent stream roots for the two search phases, both derived from
    // the one seed so the whole report is a pure function of it.
    const std::uint64_t sampled_seed = Rng::stream(seed, 1)();
    const std::uint64_t climb_seed = Rng::stream(seed, 2)();
    AdversaryResult best = sampled_worst_faults(n, f, options.samples,
                                                make_eval, sampled_seed, exec);
    AdversaryResult climbed = hillclimb_worst_faults(
        n, f, make_eval, climb_seed, exec, options.hillclimb_restarts,
        options.hillclimb_steps, options.seeds);
    if (climbed.worst_diameter > best.worst_diameter) {
      best.worst_diameter = climbed.worst_diameter;
      best.worst_faults = std::move(climbed.worst_faults);
    }
    best.evaluations += climbed.evaluations;
    report.worst_diameter = best.worst_diameter;
    report.worst_faults = std::move(best.worst_faults);
    report.fault_sets_checked = best.evaluations;
    report.exhaustive = false;
  }
  report.holds = report.worst_diameter <= claimed_bound;
  return report;
}

ToleranceReport check_tolerance_with(std::size_t n, const FaultEvaluator& eval,
                                     std::uint32_t f,
                                     std::uint32_t claimed_bound, Rng& rng,
                                     const ToleranceCheckOptions& options) {
  // A lone evaluator may own scratch, so never share it across workers.
  ToleranceCheckOptions serial = options;
  serial.exec.threads = 1;
  const FaultEvaluatorFactory make_eval = [&eval]() { return eval; };
  return check_tolerance_with(n, make_eval, f, claimed_bound, rng(), serial);
}

namespace {

// One shared preprocessing, one scratch per worker chunk: the canonical
// parallel-sweep evaluator.
FaultEvaluatorFactory engine_evaluator_factory(
    const std::shared_ptr<const SrgIndex>& index) {
  return [index]() {
    auto scratch = std::make_shared<SrgScratch>(*index);
    return [index, scratch](const std::vector<Node>& faults) {
      return scratch->surviving_diameter(faults);
    };
  };
}

// Exhaustive verification of small fault budgets goes through the
// revolving-door fast path: Gray-order enumeration, each set one element
// away from the last, against the shared index. Beyond f = 3 the
// one-element deltas no longer dominate the per-set cost, so the generic
// chunked lexicographic scan keeps that territory.
constexpr std::uint32_t kGrayFastPathMaxFaults = 3;

// The index-level check: gray fast path when the budget allows exhausting
// f <= 3, otherwise the sampled + hill-climbing adversary via the evaluator
// factory. The index is a handle so worker evaluators can co-own it.
ToleranceReport check_tolerance_index(const std::shared_ptr<const SrgIndex>& index,
                                      std::uint32_t f,
                                      std::uint32_t claimed_bound,
                                      std::uint64_t seed,
                                      const ToleranceCheckOptions& options) {
  const std::size_t n = index->num_nodes();
  if (f <= kGrayFastPathMaxFaults && f <= n &&
      binomial(n, f) <= options.exhaustive_budget) {
    ToleranceReport report;
    report.claimed_bound = claimed_bound;
    report.faults = f;
    const AdversaryResult r =
        exhaustive_worst_faults_gray(*index, f, SearchExecution{options.exec});
    report.worst_diameter = r.worst_diameter;
    report.worst_faults = r.worst_faults;
    report.fault_sets_checked = r.evaluations;
    report.exhaustive = true;
    report.holds = report.worst_diameter <= claimed_bound;
    return report;
  }
  return check_tolerance_with(n,
                              engine_evaluator_factory(index),
                              f, claimed_bound, seed, options);
}

// Route-load-targeted hill-climber seeds: knocking out the busiest nodes
// first is the natural informed attack. Applied for single-route tables
// only (matching the historical behavior of the table-level overloads).
ToleranceCheckOptions with_route_load_seeds(const RoutingTable& table,
                                            std::uint32_t f,
                                            const ToleranceCheckOptions& options) {
  ToleranceCheckOptions opts = options;
  if (opts.seeds.empty() && f > 0 && f <= table.num_nodes()) {
    const auto ranked = nodes_by_route_load(table);
    std::vector<Node> top(ranked.begin(), ranked.begin() + f);
    opts.seeds.push_back(std::move(top));
  }
  return opts;
}

}  // namespace

ToleranceReport check_tolerance(const RoutingTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr);
  FTR_EXPECTS(index->num_nodes() == table.num_nodes());
  return check_tolerance_index(index, f, claimed_bound, rng(),
                               with_route_load_seeds(table, f, options));
}

ToleranceReport check_tolerance(const MultiRouteTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr);
  FTR_EXPECTS(index->num_nodes() == table.num_nodes());
  return check_tolerance_index(index, f, claimed_bound, rng(), options);
}

ToleranceReport check_tolerance(const RoutingTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options) {
  return check_tolerance(table, std::make_shared<const SrgIndex>(table), f,
                         claimed_bound, rng, options);
}

ToleranceReport check_tolerance(const MultiRouteTable& table, std::uint32_t f,
                                std::uint32_t claimed_bound, Rng& rng,
                                const ToleranceCheckOptions& options) {
  return check_tolerance(table, std::make_shared<const SrgIndex>(table), f,
                         claimed_bound, rng, options);
}

}  // namespace ftr
