// The coordinator side of the distributed sweep layer: forks a pool of
// worker processes (pipe pair each, single host), partitions a sweep's or
// adversary search's task space into UnitSpec windows, fans them over the
// workers, and folds the returned partials in unit order with exactly the
// merge authorities the in-process paths use (merge_sweep_partials /
// merge_adversary_partials). Because units carry GLOBAL indices and the
// merges are associative under the index-order discipline, the merged
// result — every aggregate, the worst witness, the evaluation count, the
// climb's stop point — is bit-identical to the in-process computation for
// ANY worker count and ANY unit size. The tolerance check runs its one plan
// here through a pool backend: the Gray and sampled phases as sweeps, the
// lexicographic and climbing phases as adversary searches.
//
// Robustness: a worker that dies mid-unit has its window requeued for the
// survivors (or executed inline by the coordinator when none remain); a
// worker that hangs past the per-unit timeout is SIGKILLed and its unit runs
// inline — so a unit is re-dispatched, never lost and never double-counted
// (results are keyed and stored once per unit id). A climb that
// disconnects the graph stops dispatch past its unit but lets in-flight
// units finish, so the pipes are drained between calls and the pool can be
// reused.
//
// Table acquisition is snapshot-fed: workers load the binary snapshot
// AFTER the fork — from the original file when the CLI input was already a
// snapshot, otherwise from an unlinked temp file the coordinator serializes
// once and the children inherit by fd (positional reads, so all children
// share one file description safely). The parent's heap is never relied on
// post-fork.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "analysis/fault_sweep.hpp"
#include "common/rng.hpp"
#include "dist/wire.hpp"
#include "fault/tolerance_check.hpp"
#include "routing/serialization.hpp"

namespace ftr {

struct DistPoolOptions {
  /// Worker processes to fork. Must be >= 1 (0 workers means "don't build a
  /// pool" — the callers keep the in-process path for that).
  unsigned workers = 1;
  /// Task items (subset ranks, sample indices, restart indices, literal
  /// sets) per unit; 0 = auto (~8 units per worker over the task space,
  /// clamped to [1, 65536]; streams of unknown length use 4096).
  std::uint64_t unit_items = 0;
  /// How units execute INSIDE each worker process (the process x thread
  /// hierarchy): exec.threads is the per-worker thread count, and
  /// kernel/lanes/batch ride along unchanged. Unit boundaries are
  /// invariant under every knob, so stdout never depends on any of them.
  ExecPolicy exec;
  /// Per-unit wall-clock budget; a worker that blows it is SIGKILLed and
  /// its unit runs inline. 0 disables the watchdog.
  double unit_timeout_sec = 300.0;
};

struct DistWorkerStats {
  std::uint64_t units = 0;  // completed by this worker
  std::uint64_t items = 0;  // task items inside those units
  std::uint64_t bytes_rx = 0;
  double busy_seconds = 0.0;
};

/// Coordinator telemetry (scheduling-dependent — stderr probes, never part
/// of the deterministic result). Accumulates over the pool's lifetime.
struct DistStats {
  std::uint64_t units_dispatched = 0;
  std::uint64_t units_completed = 0;  // by workers
  std::uint64_t units_retried = 0;    // requeued after a worker died
  std::uint64_t units_inline = 0;     // executed by the coordinator itself
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  unsigned workers_spawned = 0;
  unsigned workers_exited = 0;  // died on their own (EOF/EPIPE)
  unsigned workers_killed = 0;  // hung past the timeout, SIGKILLed
  std::vector<DistWorkerStats> per_worker;
};

class DistSweepPool {
 public:
  /// Forks options.workers children immediately. `snapshot` must outlive
  /// the pool (it backs the inline fallback and the distributed check);
  /// `snapshot_path` names the snapshot file workers should mmap, or "" to
  /// have the coordinator serialize `snapshot` into an unlinked temp file
  /// the children inherit by fd. Call from a single-threaded process state
  /// (the parallel executor joins its threads per call, so any point
  /// between sweeps qualifies).
  DistSweepPool(const TableSnapshot& snapshot, std::string snapshot_path,
                const DistPoolOptions& options);
  ~DistSweepPool();
  DistSweepPool(const DistSweepPool&) = delete;
  DistSweepPool& operator=(const DistSweepPool&) = delete;

  // Sweeps (no early stop; the merged partial summarizes via
  // summarize_sweep_partial exactly like the in-process engine).
  SweepPartial sweep_exhaustive(std::size_t f,
                                const FaultSweepOptions& sweep_options);
  SweepPartial sweep_sampled(std::size_t f, std::uint64_t count,
                             const FaultSweepOptions& sweep_options);
  /// Consumes `source` on the coordinator, re-chunking it into explicit-set
  /// units (this is how unbounded stdin feeds distribute).
  SweepPartial sweep_source(FaultSetSource& source,
                            const FaultSweepOptions& sweep_options);

  // Adversary searches (the climb stops dispatching past the first unit
  // whose climb disconnected the graph; evaluation counts match the
  // in-process scans).
  AdvPartial adv_lex(std::uint32_t f);
  AdvPartial adv_climb(std::uint32_t f, std::uint64_t restarts,
                       std::uint64_t seed, std::uint64_t max_steps,
                       const std::vector<std::vector<Node>>& seeds = {});

  const TableSnapshot& snapshot() const { return *snapshot_; }
  const DistPoolOptions& options() const { return options_; }
  const DistStats& stats() const { return stats_; }
  unsigned live_workers() const;

 private:
  struct Worker;
  /// Yields the units of one search in generation order, then nullopt.
  using Feed = std::function<std::optional<UnitSpec>()>;

  [[noreturn]] void child_main(int in_fd, int out_fd, unsigned index);
  void spawn_workers();
  std::uint64_t auto_unit_items(std::uint64_t total) const;

  /// The event loop: pulls units from `feed` (which assigns no ids — the
  /// pool numbers them 0..k in generation order), dispatches, recovers, and
  /// stores results. Exactly one of the output vectors fills, positionally
  /// by unit id.
  void run(const Feed& feed, bool adversary,
           std::vector<std::optional<SweepPartial>>& sweeps,
           std::vector<std::optional<AdvPartial>>& advs);
  SweepPartial run_sweep(const Feed& feed);
  AdvPartial run_adv(const Feed& feed);

  UnitSpec base_sweep_unit(UnitKind kind, std::size_t f,
                           const FaultSweepOptions& sweep_options) const;
  UnitSpec base_adv_unit(UnitKind kind, std::uint32_t f) const;
  /// Copies of `unit` over auto-sized windows of [0, total).
  Feed window_feed(UnitSpec unit, std::uint64_t total) const;

  const TableSnapshot* snapshot_;
  std::string snapshot_path_;
  DistPoolOptions options_;
  DistStats stats_;
  std::vector<Worker> workers_;
  int payload_fd_ = -1;
};

/// The table-level check_tolerance with its phases fanned over the pool's
/// workers: the same plan (run_tolerance_check) on a pool backend, so the
/// report is bit-identical to the in-process check.
ToleranceReport check_tolerance_distributed(
    DistSweepPool& pool, std::uint32_t f, std::uint32_t claimed_bound,
    Rng& rng, const ToleranceCheckOptions& options = {});

}  // namespace ftr
