// Worst-case fault search. The paper's (d, f)-tolerance quantifies over ALL
// fault sets of size <= f; we reproduce that with
//  * exhaustive enumeration when C(n, f) fits a budget (ground truth),
//  * randomized sampling plus hill-climbing local search otherwise
//    (1-swap neighborhood, restarts seeded uniformly and by route load).
//
// The searchers are generic over an evaluation callback so they work for
// single-route tables, multiroute tables, and any future routing flavor.
//
// Each searcher has two forms:
//  * the single-evaluator form — one FaultEvaluator, scanned serially
//    (unchanged from the original API);
//  * the factory form — a FaultEvaluatorFactory that mints one evaluator
//    per worker chunk, fanned across SearchExecution::threads. Work is
//    split deterministically (subset-rank ranges, sample indices, restart
//    indices) and merged in index order with the serial tie-breaking rule
//    (first set reaching the max wins), and randomized searchers draw from
//    counter-based Rng streams keyed by task index — so the result,
//    including the reported witness and evaluation count, is bit-identical
//    for ANY thread count, and equal to a serial scan.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"

namespace ftr {

/// Maps a fault set to the diameter of the surviving route graph.
using FaultEvaluator = std::function<std::uint32_t(const std::vector<Node>&)>;

/// Mints a fresh evaluator for one worker chunk. Each returned evaluator is
/// used from exactly one thread at a time, so it may own mutable scratch
/// (an SrgScratch over a shared SrgIndex is the canonical instance).
using FaultEvaluatorFactory = std::function<FaultEvaluator()>;

/// Execution knobs for the factory-form searchers: a plain composition of
/// the repo-wide ExecPolicy (see common/exec_policy.hpp for the resolution
/// rules). threads fans chunks across workers; kernel/lanes drive the
/// searchers that own their scratches (exhaustive_worst_faults_gray —
/// factory-form searchers bake the kernel into their evaluators instead);
/// batch_size/progress_every are unused by the searchers. Results never
/// depend on any of it.
struct SearchExecution {
  ExecPolicy exec;
};

struct AdversaryResult {
  std::vector<Node> worst_faults;
  std::uint32_t worst_diameter = 0;
  std::uint64_t evaluations = 0;
  bool exhaustive = false;
  /// Executor telemetry from the factory-form searchers (zeros on the
  /// serial forms). Scheduling-dependent — unlike every field above, this
  /// is NOT bit-identical across runs; it exists for stderr probes.
  ExecutorStats executor;
};

/// A mergeable fragment of an adversary search over one ordered slice of
/// the task space (subset ranks, sample indices, restart indices). This is
/// the merge authority shared by the in-process chunked scans and the
/// distributed coordinator: both fold slices with merge_adversary_partials,
/// so the two paths cannot drift.
struct AdvPartial {
  std::uint32_t d = 0;          // worst diameter seen in this slice
  std::vector<Node> faults;     // its witness
  std::uint64_t evaluations = 0;
  bool any = false;             // a candidate has been recorded
  bool stopped = false;         // this slice hit its early-stop condition
};

/// Folds `next` into `into` with the serial scan's semantics. PRECONDITION:
/// `next` covers task indices strictly after everything already folded into
/// `into`. If `into` has stopped, `next` is discarded entirely — its
/// evaluations are NOT counted, reproducing the serial early break (work
/// past the stop point never happened). Otherwise evaluations add, a
/// strictly greater diameter replaces the witness (equal keeps the earlier
/// slice's, the serial tie-break), and next's stop propagates. Under the
/// index-order discipline this is associative: any contiguous partition of
/// the task space — threads, chunks, worker processes — folds to the same
/// result.
void merge_adversary_partials(AdvPartial& into, const AdvPartial& next);

/// Ground truth: evaluates every f-subset of {0..n-1}. `stop_above`, if
/// nonzero, aborts early once a fault set exceeding that diameter is found
/// (useful to falsify a claimed bound quickly).
AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluator& eval,
                                        std::uint32_t stop_above = 0);

/// Parallel ground truth: chunks the lexicographic subset enumeration into
/// rank ranges. The merged result (witness, diameter, evaluation count,
/// early-stop behavior) is identical to the serial scan: chunks are merged
/// in rank order and everything after the first early-stopped chunk is
/// discarded, un-counted.
AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluatorFactory& make_eval,
                                        const SearchExecution& exec,
                                        std::uint32_t stop_above = 0);

/// Ground truth over an SrgIndex via the revolving-door fast path: fault
/// sets are enumerated in Gray order and each worker evaluates them on the
/// packed kernel, or on one scratch whose fault-set state moves by one
/// element per set — the f <= 3 certification fast path behind
/// check_tolerance/build_certified_routing. Same chunked merge discipline
/// as the lexicographic factory form (rank-ordered chunks, first set
/// reaching the max wins, everything after the first early-stopped chunk
/// discarded), so the result is bit-identical for any thread count; the
/// reported witness is the first maximum in GRAY order, which may be a
/// different (equally worst) set than the lexicographic scan reports.
AdversaryResult exhaustive_worst_faults_gray(const SrgIndex& index,
                                             std::size_t f,
                                             const SearchExecution& exec = {},
                                             std::uint32_t stop_above = 0);

/// Uniform random sampling of `samples` fault sets.
AdversaryResult sampled_worst_faults(std::size_t n, std::size_t f,
                                     std::size_t samples,
                                     const FaultEvaluator& eval, Rng& rng);

/// Parallel sampling: sample i is drawn from Rng::stream(seed, i), so the
/// sampled sets — and therefore the result — do not depend on the thread
/// count or on chunk boundaries.
AdversaryResult sampled_worst_faults(std::size_t n, std::size_t f,
                                     std::size_t samples,
                                     const FaultEvaluatorFactory& make_eval,
                                     std::uint64_t seed,
                                     const SearchExecution& exec);

/// Hill-climbing: from each start set, repeatedly try swapping one fault for
/// one non-fault, keeping strict improvements, until no swap helps or the
/// step budget runs out. `seeds` provides informed starting points (e.g.
/// concentrator members); uniform restarts fill the rest.
AdversaryResult hillclimb_worst_faults(std::size_t n, std::size_t f,
                                       const FaultEvaluator& eval, Rng& rng,
                                       std::size_t restarts = 8,
                                       std::size_t max_steps = 64,
                                       const std::vector<std::vector<Node>>& seeds = {});

/// Parallel hill-climbing: restart i climbs with Rng::stream(seed, i)
/// (uniform restarts also draw their start set from that stream), one
/// restart per chunk. Restarts are merged in index order; once a restart
/// reaches kUnreachable the rest are discarded, matching the serial early
/// break.
AdversaryResult hillclimb_worst_faults(std::size_t n, std::size_t f,
                                       const FaultEvaluatorFactory& make_eval,
                                       std::uint64_t seed,
                                       const SearchExecution& exec,
                                       std::size_t restarts = 8,
                                       std::size_t max_steps = 64,
                                       const std::vector<std::vector<Node>>& seeds = {});

// --- slice forms -------------------------------------------------------------
//
// Each searcher's slice form runs one contiguous window of its task space
// (still fanned across exec.threads internally) and returns the AdvPartial
// for that window; folding adjacent windows in order with
// merge_adversary_partials is bit-identical to the full-space search. These
// are what distributed workers execute — indices are GLOBAL (a worker
// handed ranks [begin, end) evaluates exactly what the local scan would
// there), so the coordinator's unit boundaries can never change the result.
// Executor telemetry accumulates into *executor when given.

/// Lexicographic exhaustive scan over subset ranks [begin_rank, end_rank).
AdvPartial exhaustive_worst_faults_slice(std::size_t n, std::size_t f,
                                         const FaultEvaluatorFactory& make_eval,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const SearchExecution& exec,
                                         std::uint32_t stop_above = 0,
                                         ExecutorStats* executor = nullptr);

/// Revolving-door exhaustive scan over gray ranks [begin_rank, end_rank).
AdvPartial exhaustive_worst_faults_gray_slice(const SrgIndex& index,
                                              std::size_t f,
                                              std::uint64_t begin_rank,
                                              std::uint64_t end_rank,
                                              const SearchExecution& exec = {},
                                              std::uint32_t stop_above = 0,
                                              ExecutorStats* executor = nullptr);

/// Random sampling over sample indices [begin_index, end_index); sample i
/// is always Rng::stream(seed, i).
AdvPartial sampled_worst_faults_slice(std::size_t n, std::size_t f,
                                      std::uint64_t begin_index,
                                      std::uint64_t end_index,
                                      const FaultEvaluatorFactory& make_eval,
                                      std::uint64_t seed,
                                      const SearchExecution& exec,
                                      ExecutorStats* executor = nullptr);

/// Hill-climbing over restart indices [begin_restart, end_restart); restart
/// i climbs with Rng::stream(seed, i) and starts from seeds[i] when
/// i < seeds.size().
AdvPartial hillclimb_worst_faults_slice(
    std::size_t n, std::size_t f, const FaultEvaluatorFactory& make_eval,
    std::uint64_t seed, const SearchExecution& exec,
    std::uint64_t begin_restart, std::uint64_t end_restart,
    std::size_t max_steps,
    const std::vector<std::vector<Node>>& seeds = {},
    ExecutorStats* executor = nullptr);

}  // namespace ftr
