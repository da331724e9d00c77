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

AdvPartial adv_partial_of(const SweepPartial& partial) {
  AdvPartial p;
  p.d = partial.worst_diameter;
  p.faults = partial.worst_faults;
  p.evaluations = partial.sets;
  p.any = partial.have_worst;
  return p;
}

namespace {

// Exhaustive verification of small fault budgets goes through the
// revolving-door phase: Gray-order enumeration, each set one element away
// from the last, against the shared index. Beyond f = 3 the one-element
// deltas no longer dominate the per-set cost, so the lexicographic scan
// keeps that territory.
constexpr std::uint32_t kGrayFastPathMaxFaults = 3;

// In-process phases, one evaluator per worker chunk. Given the shared
// SrgIndex, the Gray and sampled phases run on the sweep engine; without
// one there is no Gray phase. `table` (null for multi-route tables) ranks
// the climbers' informed start.
class InProcessBackend final : public CheckBackend {
 public:
  InProcessBackend(std::size_t n, FaultEvaluatorFactory make_eval,
                   const ExecPolicy& exec,
                   std::shared_ptr<const SrgIndex> index = nullptr,
                   const RoutingTable* table = nullptr)
      : n_(n),
        make_eval_(std::move(make_eval)),
        exec_{exec},
        index_(std::move(index)),
        table_(table) {
    sweep_.exec = exec;
  }

  std::optional<AdvPartial> gray(std::uint32_t f) override {
    if (index_ == nullptr) return std::nullopt;
    return adv_partial_of(sweep_exhaustive_gray_range(
        *index_, f, 0, enumerable_subsets(n_, f), sweep_));
  }
  AdvPartial lex(std::uint32_t f) override {
    return exhaustive_worst_faults_slice(n_, f, make_eval_, 0,
                                         enumerable_subsets(n_, f), exec_);
  }
  AdvPartial sampled(std::uint32_t f, std::uint64_t samples,
                     std::uint64_t seed) override {
    if (index_ == nullptr) {
      return sampled_worst_faults_slice(n_, f, 0, samples, make_eval_, seed,
                                        exec_);
    }
    SampledStreamSource source(n_, f, samples, seed);
    return adv_partial_of(
        sweep_fault_source_partial(*index_, source, 0, sweep_));
  }
  AdvPartial climb(std::uint32_t f, std::uint64_t seed, std::size_t restarts,
                   std::size_t max_steps,
                   const std::vector<std::vector<Node>>& seeds) override {
    AdversaryResult r = hillclimb_worst_faults(n_, f, make_eval_, seed, exec_,
                                               restarts, max_steps, seeds);
    AdvPartial p;
    p.d = r.worst_diameter;
    p.faults = std::move(r.worst_faults);
    p.evaluations = r.evaluations;
    p.any = true;
    return p;
  }
  std::vector<Node> route_load_ranking() const override {
    if (table_ == nullptr) return {};
    return nodes_by_route_load(*table_);
  }

 private:
  std::size_t n_;
  FaultEvaluatorFactory make_eval_;
  SearchExecution exec_;
  FaultSweepOptions sweep_;
  std::shared_ptr<const SrgIndex> index_;
  const RoutingTable* table_;
};

// The index-level check both table flavors run.
ToleranceReport check_on_index(const std::shared_ptr<const SrgIndex>& index,
                               const RoutingTable* table, std::uint32_t f,
                               std::uint32_t claimed_bound, Rng& rng,
                               const ToleranceCheckOptions& options) {
  const std::size_t n = index->num_nodes();
  InProcessBackend backend(n, scratch_evaluator_factory(index), options.exec,
                           index, table);
  return run_tolerance_check(backend, n, f, claimed_bound, rng(), options);
}

}  // namespace

ToleranceReport run_tolerance_check(CheckBackend& backend, std::size_t n,
                                    std::uint32_t f,
                                    std::uint32_t claimed_bound,
                                    std::uint64_t seed,
                                    const ToleranceCheckOptions& options) {
  expect_fault_budget(n, f);
  ToleranceReport report;
  report.claimed_bound = claimed_bound;
  report.faults = f;
  AdvPartial worst;
  if (binomial(n, f) <= options.exhaustive_budget) {
    std::optional<AdvPartial> gray;
    if (f <= kGrayFastPathMaxFaults) gray = backend.gray(f);
    worst = gray ? std::move(*gray) : backend.lex(f);
    report.exhaustive = true;
  } else {
    // Independent stream roots for the two search phases, both derived from
    // the one seed so the whole report is a pure function of it.
    worst = backend.sampled(f, options.samples, Rng::stream(seed, 1)());
    std::vector<std::vector<Node>> seeds = options.seeds;
    if (seeds.empty() && f > 0) {
      // Knocking out the busiest nodes first is the natural informed attack.
      const std::vector<Node> ranked = backend.route_load_ranking();
      if (!ranked.empty()) {
        seeds.emplace_back(ranked.begin(), ranked.begin() + f);
      }
    }
    AdvPartial climbed =
        backend.climb(f, Rng::stream(seed, 2)(), options.hillclimb_restarts,
                      options.hillclimb_steps, seeds);
    if ((climbed.any ? climbed.d : 0) > (worst.any ? worst.d : 0)) {
      worst.d = climbed.d;
      worst.faults = std::move(climbed.faults);
      worst.any = true;
    }
    worst.evaluations += climbed.evaluations;
  }
  report.worst_diameter = worst.any ? worst.d : 0;
  report.worst_faults = std::move(worst.faults);
  report.fault_sets_checked = worst.evaluations;
  report.holds = report.worst_diameter <= claimed_bound;
  return report;
}

ToleranceReport check_tolerance_with(std::size_t n,
                                     const FaultEvaluatorFactory& make_eval,
                                     std::uint32_t f,
                                     std::uint32_t claimed_bound,
                                     std::uint64_t seed,
                                     const ToleranceCheckOptions& options) {
  InProcessBackend backend(n, make_eval, options.exec);
  return run_tolerance_check(backend, n, f, claimed_bound, seed, options);
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

ToleranceReport check_tolerance(const RoutingTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr && index->num_nodes() == table.num_nodes());
  return check_on_index(index, &table, f, claimed_bound, rng, options);
}

ToleranceReport check_tolerance(const MultiRouteTable& table,
                                const std::shared_ptr<const SrgIndex>& index,
                                std::uint32_t f, std::uint32_t claimed_bound,
                                Rng& rng, const ToleranceCheckOptions& options) {
  FTR_EXPECTS(index != nullptr && index->num_nodes() == table.num_nodes());
  return check_on_index(index, nullptr, f, claimed_bound, rng, options);
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
