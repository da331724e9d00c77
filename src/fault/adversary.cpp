#include "fault/adversary.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "graph/bfs.hpp"

namespace ftr {

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

// The rank-chunked scaffolding shared by every slice scan: chunk the global
// window [begin, end), run `scan(partial, chunk_begin, chunk_end, aborted)`
// per chunk with GLOBAL indices (the scan sets partial.stopped when it
// early-stops), skip or mid-chunk-abort chunks past the first stopped one,
// and fold the chunk partials in rank order via merge_adversary_partials —
// the same merge the distributed coordinator applies across worker slices,
// so inner chunking and outer unit boundaries are interchangeable.
template <typename ChunkScan>
AdvPartial chunked_rank_scan(std::uint64_t begin, std::uint64_t end,
                             const ExecPolicy& policy, ExecutorStats* executor,
                             const ChunkScan& scan) {
  const unsigned threads = policy.resolved_threads();
  const auto count = static_cast<std::size_t>(end - begin);
  const std::size_t grain = sweep_grain(count, threads);
  const std::size_t chunks = num_chunks(count, grain);
  std::vector<AdvPartial> partials(chunks);
  std::atomic<std::size_t> first_stop{chunks};

  ExecutorStats stats;
  parallel_for_chunks(
      count, threads, grain,
      [&](std::size_t chunk, std::size_t c_begin, std::size_t c_end) {
        // A chunk past an already-stopped one will be discarded by the
        // ordered merge, so skipping — or, via `aborted`, bailing out
        // mid-scan once a LOWER chunk stops — is a pure optimization. The
        // per-rank poll matters under the work-stealing executor: workers
        // start deep in their own partitions rather than in ascending
        // chunk order, so without it a low-rank stop would be discovered
        // only after every in-flight high chunk ground to completion.
        const auto aborted = [&] {
          return chunk > first_stop.load(std::memory_order_relaxed);
        };
        if (aborted()) return;
        AdvPartial& p = partials[chunk];
        scan(p, begin + c_begin, begin + c_end, aborted);
        if (p.stopped) note_stop(first_stop, chunk);
      },
      &stats);
  if (executor != nullptr) executor->accumulate(stats);

  AdvPartial acc;
  for (const auto& p : partials) {
    merge_adversary_partials(acc, p);
    if (acc.stopped) break;
  }
  return acc;
}

// Expands a fully merged partial into the result type of the full-space
// searchers.
AdversaryResult result_from_partial(AdvPartial&& p, bool exhaustive_scan,
                                    const ExecutorStats& executor) {
  AdversaryResult result;
  result.worst_diameter = p.any ? p.d : 0;
  result.worst_faults = std::move(p.faults);
  result.evaluations = p.evaluations;
  result.exhaustive = exhaustive_scan && !p.stopped;
  result.executor = executor;
  return result;
}

std::uint64_t checked_total(std::size_t n, std::size_t f) {
  const std::uint64_t total = binomial(n, f);
  FTR_EXPECTS_MSG(total != ~std::uint64_t{0},
                  "C(" << n << "," << f << ") saturated; not enumerable");
  return total;
}

}  // namespace

AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluator& eval,
                                        std::uint32_t stop_above) {
  FTR_EXPECTS(f <= n);
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
    if (stop_above != 0 && d > stop_above) {
      result.exhaustive = false;  // aborted early
      return false;
    }
    return true;
  });
  return result;
}

AdvPartial exhaustive_worst_faults_slice(std::size_t n, std::size_t f,
                                         const FaultEvaluatorFactory& make_eval,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const SearchExecution& exec,
                                         std::uint32_t stop_above,
                                         ExecutorStats* executor) {
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_total(n, f);
  FTR_EXPECTS(begin_rank <= end_rank && end_rank <= total);
  return chunked_rank_scan(
      begin_rank, end_rank, exec.exec, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        const FaultEvaluator eval = make_eval();
        SubsetEnumerator e(n, f, static_cast<std::size_t>(begin));
        std::vector<Node> faults(f);
        for (std::uint64_t r = begin; r < end && e.valid(); ++r, e.advance()) {
          // A lower chunk stopped: this partial is merge-dead, drop it now
          // (one relaxed load per rank, dwarfed by the evaluation).
          if (aborted()) return;
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
          if (stop_above != 0 && d > stop_above) {
            p.stopped = true;
            break;
          }
        }
      });
}

AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluatorFactory& make_eval,
                                        const SearchExecution& exec,
                                        std::uint32_t stop_above) {
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_total(n, f);
  ExecutorStats executor;
  AdvPartial p = exhaustive_worst_faults_slice(n, f, make_eval, 0, total, exec,
                                               stop_above, &executor);
  return result_from_partial(std::move(p), /*exhaustive_scan=*/true, executor);
}

AdvPartial exhaustive_worst_faults_gray_slice(const SrgIndex& index,
                                              std::size_t f,
                                              std::uint64_t begin_rank,
                                              std::uint64_t end_rank,
                                              const SearchExecution& exec,
                                              std::uint32_t stop_above,
                                              ExecutorStats* executor) {
  const std::size_t n = index.num_nodes();
  FTR_EXPECTS(f <= n);
  const std::uint64_t total = checked_total(n, f);
  FTR_EXPECTS(begin_rank <= end_rank && end_rank <= total);
  const bool packed =
      exec.exec.resolved_kernel(/*gray_adjacent=*/true) == SrgKernel::kPacked;
  if (packed) {
    // Up to lane_width() Gray-adjacent sets per bit-parallel pass. The
    // lanes of each block are consumed in rank order, so the running best,
    // the evaluation count, and the early-stop point are exactly the serial
    // scan's — whatever the block width; the witness is unranked from the
    // winning rank at chunk end (sorted ascending, like the enumerator's
    // current()). aborted() is polled per block instead of per rank — a
    // pure optimization either way, since the ordered merge discards
    // aborted partials.
    return chunked_rank_scan(
        begin_rank, end_rank, exec.exec, executor,
        [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
            const auto& aborted) {
          SrgScratch scratch(index);
          scratch.set_lane_width(exec.exec.lanes);
          const std::uint64_t lanes = scratch.lane_width();
          GraySubsetEnumerator e(n, f, begin);
          SrgScratch::Result res[512];
          std::uint64_t best_rank = begin;
          std::uint64_t r = begin;
          while (r < end) {
            if (aborted()) return;
            const auto cnt = static_cast<std::size_t>(
                std::min<std::uint64_t>(lanes, end - r));
            scratch.evaluate_gray_block(e, cnt, res);
            for (std::size_t i = 0; i < cnt; ++i) {
              const std::uint32_t d = res[i].diameter;
              ++p.evaluations;
              if (!p.any || d > p.d) {
                p.any = true;
                p.d = d;
                best_rank = r + i;
              }
              if (stop_above != 0 && d > stop_above) {
                p.stopped = true;
                break;
              }
            }
            if (p.stopped) break;
            r += cnt;
            if (r < end) e.advance();
          }
          if (p.any) {
            const auto worst = gray_subset_at_rank(n, f, best_rank);
            p.faults.assign(worst.begin(), worst.end());
          }
        });
  }
  return chunked_rank_scan(
      begin_rank, end_rank, exec.exec, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        SrgScratch scratch(index);
        GraySubsetEnumerator e(n, f, begin);
        std::vector<Node> faults;
        for (std::uint64_t r = begin; r < end; ++r) {
          // A lower chunk stopped: this partial is merge-dead, drop it now.
          if (aborted()) return;
          // Adjacent ranks differ by one element, which is all evaluate()
          // re-applies.
          faults.assign(e.current().begin(), e.current().end());
          const std::uint32_t d = scratch.evaluate(faults).diameter;
          ++p.evaluations;
          if (!p.any || d > p.d) {
            p.any = true;
            p.d = d;
            p.faults = faults;
          }
          if (stop_above != 0 && d > stop_above) {
            p.stopped = true;
            break;
          }
          if (r + 1 < end) e.advance();
        }
      });
}

AdversaryResult exhaustive_worst_faults_gray(const SrgIndex& index,
                                             std::size_t f,
                                             const SearchExecution& exec,
                                             std::uint32_t stop_above) {
  const std::uint64_t total = checked_total(index.num_nodes(), f);
  ExecutorStats executor;
  AdvPartial p = exhaustive_worst_faults_gray_slice(index, f, 0, total, exec,
                                                    stop_above, &executor);
  return result_from_partial(std::move(p), /*exhaustive_scan=*/true, executor);
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
                                      const SearchExecution& exec,
                                      ExecutorStats* executor) {
  FTR_EXPECTS(f <= n);
  FTR_EXPECTS(begin_index <= end_index);
  return chunked_rank_scan(
      begin_index, end_index, exec.exec, executor,
      [&](AdvPartial& p, std::uint64_t begin, std::uint64_t end,
          const auto& aborted) {
        (void)aborted;  // sampling never early-stops
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

AdversaryResult sampled_worst_faults(std::size_t n, std::size_t f,
                                     std::size_t samples,
                                     const FaultEvaluatorFactory& make_eval,
                                     std::uint64_t seed,
                                     const SearchExecution& exec) {
  ExecutorStats executor;
  AdvPartial p = sampled_worst_faults_slice(n, f, 0, samples, make_eval, seed,
                                            exec, &executor);
  return result_from_partial(std::move(p), /*exhaustive_scan=*/false,
                             executor);
}

AdvPartial hillclimb_worst_faults_slice(
    std::size_t n, std::size_t f, const FaultEvaluatorFactory& make_eval,
    std::uint64_t seed, const SearchExecution& exec,
    std::uint64_t begin_restart, std::uint64_t end_restart,
    std::size_t max_steps, const std::vector<std::vector<Node>>& seeds,
    ExecutorStats* executor) {
  FTR_EXPECTS(f <= n && f > 0);
  FTR_EXPECTS(begin_restart <= end_restart);
  const auto count = static_cast<std::size_t>(end_restart - begin_restart);
  std::vector<AdvPartial> partials(count);
  std::atomic<std::size_t> first_stop{count};

  ExecutorStats stats;
  // One restart per chunk: climbs dominate the cost and balance poorly, so
  // the finest grain gives the scheduler the most room.
  parallel_for_chunks(
      count, exec.exec.resolved_threads(), 1,
      [&](std::size_t chunk, std::size_t c_begin, std::size_t c_end) {
        (void)c_end;
        if (chunk > first_stop.load(std::memory_order_relaxed)) return;
        AdvPartial& p = partials[chunk];
        const FaultEvaluator eval = make_eval();
        const std::uint64_t restart = begin_restart + c_begin;
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
        if (d == kUnreachable) {
          p.stopped = true;
          note_stop(first_stop, chunk);
        }
      },
      &stats);
  if (executor != nullptr) executor->accumulate(stats);

  AdvPartial acc;
  for (const auto& p : partials) {
    merge_adversary_partials(acc, p);
    // Serial scan breaks after absorbing a disconnecting restart.
    if (acc.stopped) break;
  }
  return acc;
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
  ExecutorStats executor;
  AdvPartial p = hillclimb_worst_faults_slice(n, f, make_eval, seed, exec, 0,
                                              total, max_steps, seeds,
                                              &executor);
  return result_from_partial(std::move(p), /*exhaustive_scan=*/false,
                             executor);
}

}  // namespace ftr
