// The fault-sweep pipeline: evaluate one routing table against a stream of
// fault sets and aggregate what every experiment in this repo wants from
// such a sweep — the surviving-diameter distribution, the worst witness,
// and (optionally) per-set delivery measurements from the paper's cost
// model. This is the library surface behind the CLI `sweep` verb and the
// scenario benches.
//
// The architecture is pull-based: a FaultSetSource yields fault sets one at
// a time, and the sweep engine consumes it in bounded batches — one batch
// of options.batch_size sets per worker is in flight at any moment, and the
// aggregates (histogram, worst witness, delivery sums) are folded in input
// order as each batch retires. Memory is therefore constant in the stream
// length: a 10^7-set sweep materializes nothing beyond the reused batch
// buffers. Sources exist for explicit lists, counter-seeded random streams,
// the exhaustive revolving-door enumeration, and line-delimited text feeds
// (the CLI's `sweep --stdin`).
//
// Execution fans each batch across FaultSweepOptions::threads workers, each
// owning an SrgScratch over one shared SrgIndex. Per-set results land at
// their input index and the aggregation is a single index-ordered pass, so
// a sweep's output — every record, the histogram, the worst index — is
// bit-identical for any thread count AND for any batch size. Randomized
// delivery sampling draws from Rng::stream(seed, set_index), never from a
// shared generator.
//
// sweep_exhaustive_gray is the fast path for "all C(n, f) fault sets": it
// enumerates in revolving-door order and evaluates blocks of adjacent sets
// on the packed kernel, or — when per-set graphs are needed or the bitset
// kernel is requested — each set as a one-element delta on the worker's
// scratch. Its output is bit-identical to streaming an ExhaustiveGraySource
// through the generic engine (differentially tested).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/parallel.hpp"
#include "fault/srg_engine.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"
#include "sim/network_sim.hpp"

namespace ftr {

/// A pull-based stream of fault sets. next() overwrites `out` with the next
/// set and returns true, or returns false when the stream is exhausted.
/// Sources are single-pass and not thread-safe; the sweep engine consumes
/// them from one thread and fans the batches out itself.
class FaultSetSource {
 public:
  virtual ~FaultSetSource() = default;

  /// Number of sets the source will produce, when known up front
  /// (exhaustive, sampled, explicit lists); nullopt for unbounded feeds.
  virtual std::optional<std::uint64_t> size() const { return std::nullopt; }

  virtual bool next(std::vector<Node>& out) = 0;
};

/// Streams a materialized list (no copy; the list must outlive the source).
class ExplicitListSource final : public FaultSetSource {
 public:
  explicit ExplicitListSource(const std::vector<std::vector<Node>>& sets)
      : sets_(&sets) {}
  std::optional<std::uint64_t> size() const override { return sets_->size(); }
  bool next(std::vector<Node>& out) override;

 private:
  const std::vector<std::vector<Node>>* sets_;
  std::size_t pos_ = 0;
};

/// `count` uniform random f-subsets of {0..n-1}; set i is drawn from
/// Rng::stream(seed, i), so the stream is a pure function of (n, f, count,
/// seed) — independent of batching, threading, and of how many sets were
/// consumed before (unlike random_fault_sets, which advances one shared
/// generator).
class SampledStreamSource final : public FaultSetSource {
 public:
  SampledStreamSource(std::size_t n, std::size_t f, std::uint64_t count,
                      std::uint64_t seed)
      : SampledStreamSource(n, f, count, seed, 0) {}

  /// Sub-range constructor: yields sets `start .. start + count - 1` of the
  /// same stream (set i is always Rng::stream(seed, i)). A distributed
  /// sweep hands each worker a disjoint [start, start + count) window and
  /// the union reproduces the single-process stream set-for-set.
  SampledStreamSource(std::size_t n, std::size_t f, std::uint64_t count,
                      std::uint64_t seed, std::uint64_t start)
      : n_(n), f_(f), count_(count), seed_(seed), pos_(start),
        end_(start + count) {}

  std::optional<std::uint64_t> size() const override { return count_; }
  bool next(std::vector<Node>& out) override;

 private:
  std::size_t n_;
  std::size_t f_;
  std::uint64_t count_;
  std::uint64_t seed_;
  std::uint64_t pos_;
  std::uint64_t end_;
};

/// Every f-subset of {0..n-1} in revolving-door (Gray) order — the
/// enumeration order sweep_exhaustive_gray uses, so the two paths are
/// comparable set-for-set.
class ExhaustiveGraySource final : public FaultSetSource {
 public:
  ExhaustiveGraySource(std::size_t n, std::size_t f);
  std::optional<std::uint64_t> size() const override { return enum_.count(); }
  bool next(std::vector<Node>& out) override;

 private:
  GraySubsetEnumerator enum_;
  bool first_ = true;
};

/// Line-delimited text feed: one fault set per line as whitespace-separated
/// node ids, blank lines and '#' comments skipped. Malformed lines —
/// non-numeric tokens (a leading '-' included) or node ids >= n — throw
/// ContractViolation naming the 1-based line number and the offending
/// token, so a bad feed fails with a diagnosable error instead of silent
/// misparsing. An empty file yields an empty stream. This is the
/// `ftroute sweep --stdin` reader.
class IstreamFaultSetSource final : public FaultSetSource {
 public:
  IstreamFaultSetSource(std::istream& in, std::size_t n) : in_(&in), n_(n) {}
  bool next(std::vector<Node>& out) override;

 private:
  std::istream* in_;
  std::size_t n_;
  std::string line_;           // reused line buffer
  std::size_t line_no_ = 0;    // 1-based, for error messages
};

/// Progress snapshot handed to FaultSweepOptions::on_progress (aggregates
/// so far; sets_done counts fully reduced sets).
struct FaultSweepProgress {
  std::uint64_t sets_done = 0;
  std::uint32_t worst_diameter = 0;
  std::uint64_t disconnected = 0;
  double seconds = 0.0;
  /// Work-stealing telemetry accumulated over the batches so far
  /// (scheduling-dependent — stderr probes only, never results).
  ExecutorStats executor;
};

struct FaultSweepOptions {
  /// How the sweep executes — threads, kernel, lanes, batch size, progress
  /// cadence (see common/exec_policy.hpp for the resolution rules).
  /// Results never depend on any of it. exec.progress_every schedules
  /// on_progress below: invoked roughly every that many sets (0 = never),
  /// between batches, on the calling thread — it never races the workers.
  ExecPolicy exec;
  /// Ordered survivor pairs to sample per fault set for delivery stats;
  /// 0 skips delivery measurement entirely.
  std::size_t delivery_pairs = 0;
  /// Root seed for the per-set delivery sampling streams.
  std::uint64_t seed = 0;
  std::function<void(const FaultSweepProgress&)> on_progress;
};

struct FaultSweepRecord {
  std::uint32_t diameter = 0;  // kUnreachable = some pair cannot route
  std::uint32_t survivors = 0;
  std::uint32_t arcs = 0;
  DeliveryStats delivery;  // only populated when delivery_pairs > 0
};

struct FaultSweepSummary {
  /// One record per input fault set, positionally aligned. Only the
  /// materialized sweep_fault_sets API fills this; the streaming entry
  /// points leave it empty (constant memory).
  std::vector<FaultSweepRecord> per_set;

  /// Sets processed (streaming sweeps have no per_set to count).
  std::uint64_t total_sets = 0;

  /// diameter_histogram[d] = number of sets with finite surviving diameter
  /// d; disconnected sets are counted separately.
  std::vector<std::uint64_t> diameter_histogram;
  std::uint64_t disconnected = 0;

  /// Worst surviving diameter over the stream (kUnreachable if any set
  /// disconnects), the first input index attaining it, and that set's
  /// contents (tracked incrementally — available even when per_set is not).
  std::uint32_t worst_diameter = 0;
  std::size_t worst_index = 0;
  std::vector<Node> worst_faults;

  /// Delivery aggregates over all sampled pairs of all sets (zero when
  /// delivery_pairs == 0).
  std::uint64_t pairs_sampled = 0;
  std::uint64_t delivered = 0;
  double avg_route_hops = 0.0;  // mean over delivered messages
  std::uint32_t max_route_hops = 0;
  std::uint64_t max_edge_hops = 0;

  /// Execution telemetry (not part of the deterministic result).
  unsigned threads_used = 1;
  double seconds = 0.0;
  double fault_sets_per_sec = 0.0;
  /// Work-stealing executor counters accumulated over all batches.
  ExecutorStats executor;
};

/// A mergeable fragment of a sweep: everything FaultSweepSummary aggregates,
/// folded over one contiguous index range of the input stream. This is the
/// single merge authority — the in-process reduce, the streaming batches,
/// and the distributed coordinator all fold records with absorb_sweep_record
/// and combine ranges with merge_sweep_partials, so the two paths cannot
/// drift.
///
/// Every field is exact (integer hop totals, not means), which makes the
/// merge strictly associative: any partition of the stream into contiguous
/// ranges — threads, batches, worker processes — folds to bit-identical
/// aggregates. worst_index is the GLOBAL input index of the worst witness.
struct SweepPartial {
  std::uint64_t sets = 0;
  std::vector<std::uint64_t> diameter_histogram;
  std::uint64_t disconnected = 0;

  bool have_worst = false;
  std::uint32_t worst_diameter = 0;
  std::uint64_t worst_index = 0;
  /// Contents of the worst set. May be left empty by producers that can
  /// reconstruct it from worst_index afterwards (the Gray sweep unranks it).
  std::vector<Node> worst_faults;

  std::uint64_t pairs_sampled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t route_hops_total = 0;  // exact; the mean is derived once
  std::uint32_t max_route_hops = 0;
  std::uint64_t max_edge_hops = 0;
};

/// Folds one per-set record at its global input index. The worst-witness
/// rule is "first index attaining the maximum wins": a record replaces the
/// incumbent only on a strictly greater diameter, so calling this in
/// ascending index order reproduces the serial scan exactly. `faults` may
/// be null when the caller reconstructs the worst set from worst_index.
void absorb_sweep_record(SweepPartial& partial, std::uint64_t index,
                         const FaultSweepRecord& rec,
                         const std::vector<Node>* faults);

/// Merges `next` into `into`. PRECONDITION: `next` covers input indices
/// strictly after everything already folded into `into` — the worst-witness
/// tie-break ("earlier index wins on equal diameter") is encoded as
/// "strictly greater replaces", which is only correct for index-ordered
/// merging. Under that discipline the operation is associative, so any
/// contiguous partition of a sweep folds to the same result.
void merge_sweep_partials(SweepPartial& into, const SweepPartial& next);

/// Expands a fully merged partial into the deterministic fields of a
/// summary (total_sets, histogram, worst witness, delivery aggregates; the
/// mean is computed here, once, from the exact totals). Telemetry fields
/// (threads_used, seconds, rate, executor) are the caller's to fill.
FaultSweepSummary summarize_sweep_partial(const SweepPartial& partial);

/// Streams `source` through the sweep engine and returns the partial
/// instead of a summary. `base_index` is the global input index of the
/// source's first set — worst_index and the per-set delivery RNG streams
/// (Rng::stream(options.seed, global index)) are keyed globally, so a
/// worker evaluating sets [base, base + k) produces exactly the fragment
/// the full sweep would. Executor telemetry lands in *executor when given.
SweepPartial sweep_fault_source_partial(const RoutingTable& table,
                                        const SrgIndex& index,
                                        FaultSetSource& source,
                                        std::uint64_t base_index,
                                        const FaultSweepOptions& options = {},
                                        ExecutorStats* executor = nullptr);

/// Exhaustive Gray sweep restricted to revolving-door ranks
/// [begin_rank, end_rank). The partial's worst_faults is unranked from the
/// winning global rank (never empty when the range is non-empty). Merging
/// adjacent ranges in order is bit-identical to one sweep of the union.
SweepPartial sweep_exhaustive_gray_range(const RoutingTable& table,
                                         const SrgIndex& index, std::size_t f,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const FaultSweepOptions& options = {},
                                         ExecutorStats* executor = nullptr);

/// Index-only forms of the two partial entry points, for sweeps without
/// delivery sampling (options.delivery_pairs must be 0): the index alone
/// decides every diameter, so they serve multi-route tables too. The
/// tolerance check runs its Gray and sampled phases on these.
SweepPartial sweep_fault_source_partial(const SrgIndex& index,
                                        FaultSetSource& source,
                                        std::uint64_t base_index,
                                        const FaultSweepOptions& options = {},
                                        ExecutorStats* executor = nullptr);
SweepPartial sweep_exhaustive_gray_range(const SrgIndex& index, std::size_t f,
                                         std::uint64_t begin_rank,
                                         std::uint64_t end_rank,
                                         const FaultSweepOptions& options = {},
                                         ExecutorStats* executor = nullptr);

/// Streams `source` through the sweep at constant memory. The deterministic
/// fields of the summary are a pure function of (table, the source's sets,
/// options.delivery_pairs, options.seed) — identical to materializing the
/// same sets and calling sweep_fault_sets, minus per_set.
FaultSweepSummary sweep_fault_source(const RoutingTable& table,
                                     const SrgIndex& index,
                                     FaultSetSource& source,
                                     const FaultSweepOptions& options = {});

/// Exhaustive sweep over all C(n, f) fault sets in revolving-door order:
/// each worker chunk seeds the enumeration at its gray rank and walks it,
/// in packed blocks or one set at a time on one scratch (so each
/// evaluation is a one-element delta). Aggregates are bit-identical to
/// streaming an ExhaustiveGraySource through sweep_fault_source. Requires
/// C(n, f) to be representable (no uint64 saturation).
FaultSweepSummary sweep_exhaustive_gray(const RoutingTable& table,
                                        const SrgIndex& index, std::size_t f,
                                        const FaultSweepOptions& options = {});

/// Materialized batch sweep (fills per_set). Built on the same streaming
/// engine; kept as the ergonomic API for in-memory batches.
FaultSweepSummary sweep_fault_sets(const RoutingTable& table,
                                   const SrgIndex& index,
                                   const std::vector<std::vector<Node>>& fault_sets,
                                   const FaultSweepOptions& options = {});

/// Convenience overload that builds the index itself.
FaultSweepSummary sweep_fault_sets(const RoutingTable& table,
                                   const std::vector<std::vector<Node>>& fault_sets,
                                   const FaultSweepOptions& options = {});

}  // namespace ftr
