// Worst-case fault search. The paper's (d, f)-tolerance quantifies over ALL
// fault sets of size <= f; we reproduce that with
//  * exhaustive enumeration when C(n, f) fits a budget (ground truth),
//  * randomized sampling plus hill-climbing local search otherwise
//    (1-swap neighborhood, restarts seeded uniformly and by route load).
//
// The searchers are generic over an evaluation callback so they work for
// single-route tables, multiroute tables, and any future routing flavor.
// Exhaustive scans here walk LEXICOGRAPHIC order; the revolving-door (Gray)
// walk over an SrgIndex is the sweep engine's (analysis/fault_sweep.hpp),
// which the tolerance check runs for its f <= 3 phase.
//
// Each searcher has a serial form over one FaultEvaluator and a slice form
// over a FaultEvaluatorFactory that mints one evaluator per worker chunk,
// fanned across SearchExecution::threads (hill-climbing also has a
// full-space factory form). Work is split deterministically (subset-rank
// ranges, sample indices, restart indices) and merged in index order with
// the serial tie-breaking rule (first set reaching the max wins), and
// randomized searchers draw from counter-based Rng streams keyed by task
// index — so the result, including the reported witness and evaluation
// count, is bit-identical for ANY thread count and ANY partition.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// The canonical factory: each evaluator owns one SrgScratch over the
/// shared index. Used by every in-process and worker-side search.
FaultEvaluatorFactory scratch_evaluator_factory(
    std::shared_ptr<const SrgIndex> index);

/// Execution knobs for the factory-form searchers: a plain composition of
/// the repo-wide ExecPolicy (see common/exec_policy.hpp for the resolution
/// rules). threads fans chunks across workers; the evaluators bake in their
/// own kernel, and batch_size/progress_every are unused by the searchers.
/// Results never depend on any of it.
struct SearchExecution {
  ExecPolicy exec;
};

struct AdversaryResult {
  std::vector<Node> worst_faults;
  std::uint32_t worst_diameter = 0;
  std::uint64_t evaluations = 0;
  bool exhaustive = false;
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
  bool stopped = false;         // a climb in this slice disconnected the
                                // graph; later restarts are not needed
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

/// Ground truth: evaluates every f-subset of {0..n-1} in lexicographic
/// order; the witness is the first set reaching the maximum.
AdversaryResult exhaustive_worst_faults(std::size_t n, std::size_t f,
                                        const FaultEvaluator& eval);

/// Uniform random sampling of `samples` fault sets.
AdversaryResult sampled_worst_faults(std::size_t n, std::size_t f,
                                     std::size_t samples,
                                     const FaultEvaluator& eval, Rng& rng);

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
// Each slice form runs one contiguous window of its task space (fanned
// across exec.threads) and returns the AdvPartial for that window; folding
// adjacent windows in order with merge_adversary_partials is bit-identical
// to one window over the union. Indices are GLOBAL, so a distributed
// worker handed [begin, end) evaluates exactly what the local scan would
// there.

/// Lexicographic exhaustive scan over subset ranks [begin_rank, end_rank).
AdvPartial exhaustive_worst_faults_slice(std::size_t n, std::size_t f,
                                         const FaultEvaluatorFactory& make_eval,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const SearchExecution& exec);

/// Random sampling over sample indices [begin_index, end_index); sample i
/// is always Rng::stream(seed, i).
AdvPartial sampled_worst_faults_slice(std::size_t n, std::size_t f,
                                      std::uint64_t begin_index,
                                      std::uint64_t end_index,
                                      const FaultEvaluatorFactory& make_eval,
                                      std::uint64_t seed,
                                      const SearchExecution& exec);

/// Hill-climbing over restart indices [begin_restart, end_restart); restart
/// i climbs with Rng::stream(seed, i) and starts from seeds[i] when
/// i < seeds.size().
AdvPartial hillclimb_worst_faults_slice(
    std::size_t n, std::size_t f, const FaultEvaluatorFactory& make_eval,
    std::uint64_t seed, const SearchExecution& exec,
    std::uint64_t begin_restart, std::uint64_t end_restart,
    std::size_t max_steps,
    const std::vector<std::vector<Node>>& seeds = {});

}  // namespace ftr
