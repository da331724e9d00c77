#include "fault/adversary.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "graph/bfs.hpp"

namespace ftr {

FaultEvaluatorFactory scratch_evaluator_factory(
    std::shared_ptr<const SrgIndex> index) {
  return [index = std::move(index)]() {
    auto scratch = std::make_shared<SrgScratch>(*index);
    return [index, scratch](const std::vector<Node>& faults) {
      return scratch->surviving_diameter(faults);
    };
  };
}

void merge_adversary_partials(AdvPartial& into, const AdvPartial& next) {
  // Once a slice has stopped, everything after it in task order is work the
  // serial scan never did: discard it whole, evaluations included.
  if (into.stopped) return;
  into.evaluations += next.evaluations;
  if (next.any && (!into.any || next.d > into.d)) {
    into.d = next.d;
    into.faults = next.faults;
    into.any = true;
  }
  into.stopped = next.stopped;
}

namespace {

// Lock-free "minimum chunk that stopped": later chunks use it to skip work
// that the ordered merge would discard anyway.
void note_stop(std::atomic<std::size_t>& first_stop, std::size_t chunk) {
  std::size_t cur = first_stop.load(std::memory_order_relaxed);
  while (chunk < cur && !first_stop.compare_exchange_weak(
                            cur, chunk, std::memory_order_relaxed)) {
  }
}

// The chunked scaffolding shared by every slice scan: chunk the global
// window [begin, end) by `grain` (0: the sweep heuristic), run
// `scan(partial, chunk_begin, chunk_end)` per chunk with GLOBAL indices (a
// climb that disconnects the graph sets partial.stopped), skip chunks past
// the first stopped one, and fold the chunk partials in index order via
// merge_adversary_partials — the same merge the distributed coordinator
// applies across worker slices, so inner chunking and outer unit
// boundaries are interchangeable.
template <typename ChunkScan>
AdvPartial chunked_rank_scan(std::uint64_t begin, std::uint64_t end,
                             const ExecPolicy& policy, std::size_t grain,
                             const ChunkScan& scan) {
  const unsigned threads = policy.resolved_threads();
  const auto count = static_cast<std::size_t>(end - begin);
  if (grain == 0) grain = sweep_grain(count, threads);
  std::vector<AdvPartial> partials(num_chunks(count, grain));
  std::atomic<std::size_t> first_stop{partials.size()};

  parallel_for_chunks(
      count, threads, grain,
      [&](std::size_t chunk, std::size_t c_begin, std::size_t c_end) {
        // The ordered merge discards everything past a stopped chunk, so
        // skipping it is a pure optimization.
        if (chunk > first_stop.load(std::memory_order_relaxed)) return;
        AdvPartial& p = partials[chunk];
        scan(p, begin + c_begin, begin + c_end);
        if (p.stopped) note_stop(first_stop, chunk);
      });

  AdvPartial acc;
  for (const auto& p : partials) merge_adversary_partials(acc, p);
  return acc;
}

}  // namespace

AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluator& eval) {
  expect_fault_budget(n, f);
  AdversaryResult result;
  result.exhaustive = true;
  std::vector<Node> faults(f);
  for_each_subset(n, f, [&](const std::vector<std::size_t>& subset) {
    for (std::size_t i = 0; i < f; ++i) faults[i] = static_cast<Node>(subset[i]);
    const std::uint32_t d = eval(faults);
    ++result.evaluations;
    if (result.evaluations == 1 || d > result.worst_diameter) {
      result.worst_diameter = d;
      result.worst_faults = faults;
    }
    return true;
  });
  return result;
}

AdvPartial exhaustive_worst_faults_slice(std::size_t n, std::size_t f,
                                         const FaultEvaluatorFactory& make_eval,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const SearchExecution& exec) {
  const std::uint64_t total = enumerable_subsets(n, f);
  FTR_EXPECTS(begin_rank <= end_rank && end_rank <= total);
  return chunked_rank_scan(
      begin_rank, end_rank, exec.exec, 0,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end) {
        const FaultEvaluator eval = make_eval();
        SubsetEnumerator e(n, f, static_cast<std::size_t>(begin));
        std::vector<Node> faults(f);
        for (std::uint64_t r = begin; r < end && e.valid(); ++r, e.advance()) {
          const auto& subset = e.current();
          for (std::size_t i = 0; i < f; ++i) {
            faults[i] = static_cast<Node>(subset[i]);
          }
          const std::uint32_t d = eval(faults);
          ++p.evaluations;
          if (!p.any || d > p.d) {
            p.any = true;
            p.d = d;
            p.faults = faults;
          }
        }
      });
}

AdversaryResult sampled_worst_faults(std::size_t n, std::size_t f,
                                     std::size_t samples,
                                     const FaultEvaluator& eval, Rng& rng) {
  FTR_EXPECTS(f <= n);
  AdversaryResult result;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto sample = rng.sample(n, f);
    std::vector<Node> faults(sample.begin(), sample.end());
    const std::uint32_t d = eval(faults);
    ++result.evaluations;
    if (d > result.worst_diameter || result.worst_faults.empty()) {
      result.worst_diameter = std::max(result.worst_diameter, d);
      result.worst_faults = std::move(faults);
    }
  }
  return result;
}

namespace {

// One hill-climbing run from `start`; returns the local optimum.
std::pair<std::vector<Node>, std::uint32_t> climb(
    std::size_t n, const FaultEvaluator& eval, std::vector<Node> current,
    std::size_t max_steps, Rng& rng, std::uint64_t& evaluations) {
  std::uint32_t best = eval(current);
  ++evaluations;
  for (std::size_t step = 0; step < max_steps; ++step) {
    bool improved = false;
    // Try swaps in a random order; accept the first strict improvement.
    const auto slot_order = rng.permutation(current.size());
    for (std::size_t si : slot_order) {
      const Node old = current[si];
      const auto cand_order = rng.permutation(n);
      for (std::size_t cand : cand_order) {
        const Node nv = static_cast<Node>(cand);
        if (std::find(current.begin(), current.end(), nv) != current.end())
          continue;
        current[si] = nv;
        const std::uint32_t d = eval(current);
        ++evaluations;
        if (d > best) {
          best = d;
          improved = true;
          break;
        }
        current[si] = old;
        // Cap the inner scan: full n per slot is wasteful on big graphs.
        if (evaluations % 64 == 0 && cand > n / 2) break;
      }
      if (improved) break;
    }
    if (!improved) break;
    if (best == kUnreachable) break;  // cannot get worse than disconnected
  }
  return {std::move(current), best};
}

}  // namespace

AdversaryResult hillclimb_worst_faults(
    std::size_t n, std::size_t f, const FaultEvaluator& eval, Rng& rng,
    std::size_t restarts, std::size_t max_steps,
    const std::vector<std::vector<Node>>& seeds) {
  FTR_EXPECTS(f <= n);
  AdversaryResult result;
  if (f == 0) {
    result.worst_diameter = eval({});
    result.evaluations = 1;
    return result;
  }
  std::vector<std::vector<Node>> starts = seeds;
  while (starts.size() < restarts) {
    const auto sample = rng.sample(n, f);
    starts.emplace_back(sample.begin(), sample.end());
  }
  for (auto& start : starts) {
    FTR_EXPECTS(start.size() == f);
    auto [faults, d] = climb(n, eval, std::move(start), max_steps, rng,
                             result.evaluations);
    if (d > result.worst_diameter || result.worst_faults.empty()) {
      result.worst_diameter = d;
      result.worst_faults = std::move(faults);
    }
    if (result.worst_diameter == kUnreachable) break;
  }
  return result;
}

AdvPartial sampled_worst_faults_slice(std::size_t n, std::size_t f,
                                      std::uint64_t begin_index,
                                      std::uint64_t end_index,
                                      const FaultEvaluatorFactory& make_eval,
                                      std::uint64_t seed,
                                      const SearchExecution& exec) {
  FTR_EXPECTS(f <= n);
  FTR_EXPECTS(begin_index <= end_index);
  return chunked_rank_scan(
      begin_index, end_index, exec.exec, 0,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end) {
        const FaultEvaluator eval = make_eval();
        for (std::uint64_t i = begin; i < end; ++i) {
          // Sample i is a pure function of (seed, i): thread-count-proof
          // AND partition-proof.
          Rng rng = Rng::stream(seed, i);
          const auto sample = rng.sample(n, f);
          std::vector<Node> faults(sample.begin(), sample.end());
          const std::uint32_t d = eval(faults);
          ++p.evaluations;
          if (!p.any || d > p.d) {
            p.any = true;
            p.d = d;
            p.faults = std::move(faults);
          }
        }
      });
}

AdvPartial hillclimb_worst_faults_slice(
    std::size_t n, std::size_t f, const FaultEvaluatorFactory& make_eval,
    std::uint64_t seed, const SearchExecution& exec,
    std::uint64_t begin_restart, std::uint64_t end_restart,
    std::size_t max_steps, const std::vector<std::vector<Node>>& seeds) {
  FTR_EXPECTS(f <= n && f > 0);
  FTR_EXPECTS(begin_restart <= end_restart);
  // One restart per chunk: climbs dominate the cost and balance poorly, so
  // the finest grain gives the scheduler the most room.
  return chunked_rank_scan(
      begin_restart, end_restart, exec.exec, 1,
      [&](AdvPartial& p, std::uint64_t restart, std::uint64_t) {
        const FaultEvaluator eval = make_eval();
        Rng rng = Rng::stream(seed, restart);
        std::vector<Node> start;
        if (restart < seeds.size()) {
          start = seeds[static_cast<std::size_t>(restart)];
        } else {
          const auto sample = rng.sample(n, f);
          start.assign(sample.begin(), sample.end());
        }
        FTR_EXPECTS(start.size() == f);
        auto [faults, d] =
            climb(n, eval, std::move(start), max_steps, rng, p.evaluations);
        p.any = true;
        p.d = d;
        p.faults = std::move(faults);
        // Cannot get worse than disconnected: later restarts are not needed.
        p.stopped = d == kUnreachable;
      });
}

AdversaryResult hillclimb_worst_faults(std::size_t n, std::size_t f,
                                       const FaultEvaluatorFactory& make_eval,
                                       std::uint64_t seed,
                                       const SearchExecution& exec,
                                       std::size_t restarts,
                                       std::size_t max_steps,
                                       const std::vector<std::vector<Node>>& seeds) {
  FTR_EXPECTS(f <= n);
  if (f == 0) {
    AdversaryResult result;
    result.worst_diameter = make_eval()({});
    result.evaluations = 1;
    return result;
  }
  const std::size_t total = std::max(seeds.size(), restarts);
  AdvPartial p = hillclimb_worst_faults_slice(n, f, make_eval, seed, exec, 0,
                                              total, max_steps, seeds);
  AdversaryResult result;
  result.worst_diameter = p.any ? p.d : 0;
  result.worst_faults = std::move(p.faults);
  result.evaluations = p.evaluations;
  return result;
}

}  // namespace ftr
