// Batched evaluation of surviving route graphs R(G, rho)/F.
//
// The hot loop of every experiment in this repo is "strike a fault set,
// materialize the surviving route graph, measure its diameter" — repeated
// across thousands of fault sets against the SAME routing table (tolerance
// checks, adversarial hill-climbing, recovery sweeps). The one-shot path in
// fault/surviving.cpp rebuilds a Digraph (one heap vector per node) and
// re-walks every route per fault set; this layer preprocesses the table
// once and answers each fault set from reusable scratch state.
//
// The split matters for the parallel sweep layer:
//
//  * SrgIndex is the immutable preprocessing — the route arena flattened
//    into per-route node ranges plus a node -> routes inverted index. It is
//    read-only after construction, so ONE index serves any number of
//    concurrent workers.
//  * SrgScratch is the per-thread mutable state — one fault-set state plus
//    BFS buffers. Each sweep worker owns one; evaluations are
//    allocation-free after warm-up.
//  * SurvivingRouteGraphEngine is the single-threaded facade (one shared
//    index + one scratch) that all pre-existing call sites keep using; its
//    index() handle is what parallel sweeps fan out to worker scratches.
//
// ONE FAULT-SET STATE. A scratch holds exact counts for the fault set it
// last evaluated: per-route fault counts, per-pair live-route counts, and
// the surviving arcs as succ/pred adjacency bitmaps. evaluate(F) applies
// the set difference from the previous set — unstrike what left, strike
// what joined — each in O(routes through the node). Consecutive sets in a
// Gray-order enumeration differ by one element, hill-climbing steps by one
// swap, and random sets by at most 2f nodes, so no evaluation re-derives
// the kill index from scratch. The state is seeded (empty fault set) by the
// first evaluate(); a scratch that only runs evaluate_gray_block() never
// pays for it.
//
// Semantics match fault/surviving.cpp exactly: an arc x -> y survives iff
// some route rho(x, y) avoids every fault (endpoints included), and the
// diameter is the directed max over ordered survivor pairs (kUnreachable if
// any pair cannot route, 0 when fewer than two survivors remain).
//
// EVALUATION KERNELS. The diameter BFS dominates every evaluation (the
// surviving route graph is near-complete — one arc per ordered pair with a
// live route — so each BFS touches ~n^2 arcs). Two kernels run it:
//
//  * bitset — evaluate() and componentwise_diameter(): word-packed
//    frontier/visited bitmaps over the maintained adjacency bitmaps, with a
//    direction-optimizing (top-down/bottom-up) switch driven by frontier
//    density. The surviving route graphs are dense-frontier for most of
//    each BFS, exactly the regime where bottom-up's "scan unvisited nodes,
//    test predecessor rows" wins.
//  * packed — evaluate_gray_block(): up to lane_width() adjacent
//    revolving-door fault sets evaluated against one W-word lane block at a
//    time (W in {1,2,4,8} words -> 64/128/256/512 lanes; set_lane_width()
//    forces one, auto picks the widest the CPU profits from — see
//    common/cpu_features.hpp). Per-route kill masks, per-pair dead masks,
//    and a lane-parallel BFS turn route liveness, arc counts, and
//    reachability into AND/OR/popcount over lane blocks; the block body is
//    dispatched at runtime to a portable, AVX2, or AVX-512 instantiation
//    (fault/srg_packed.hpp). Packed applies ONLY to Gray-adjacent streams
//    that need no per-set surviving graph; its state is independent of the
//    fault-set state above. Lanes are consumed in rank order, so neither
//    the width nor the chosen instantiation is observable in any result.
//
// Which kernel a consumer runs is ExecPolicy::resolved_kernel's decision
// (common/exec_policy.hpp). Both produce bit-identical Results for every
// fault set — pinned against the one-shot oracle by tests/test_srg_engine.cpp
// and tests/test_srg_kernels.cpp — so kernel choice, like thread count and
// batch size, never leaks into any output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/exec_policy.hpp"
#include "common/flat_array.hpp"
#include "fault/srg_packed.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "routing/multi_route_table.hpp"
#include "routing/route_table.hpp"

namespace ftr {

// SrgKernel (the selection knob, its name/parse helpers, and the kAuto
// resolution rule) lives in common/exec_policy.hpp with the rest of the
// execution policy; this header provides the kernels themselves.

/// Immutable preprocessing of one routing table: flattened routes plus the
/// node -> routes inverted index. Thread-safe to share by const reference
/// across any number of SrgScratch workers.
class SrgIndex {
 public:
  explicit SrgIndex(const RoutingTable& table);
  explicit SrgIndex(const MultiRouteTable& table);

  std::size_t num_nodes() const { return n_; }
  /// Directed routes preprocessed (multiroute tables count every parallel
  /// route; ordered pairs may share one arc).
  std::size_t num_routes() const { return route_src_.size(); }
  std::size_t num_pairs() const { return num_pairs_; }

  /// Heap footprint of the preprocessing arrays (capacities), for
  /// byte-accounted caches like the serving layer's table registry.
  std::size_t memory_bytes() const;

 private:
  friend class SrgScratch;
  friend struct SnapshotAccess;  // binary snapshot save/load (serialization)

  SrgIndex() = default;  // snapshot loads fill the arrays directly

  void finalize_routes();

  // All flat arrays: owned vectors when built from a table, aliases into a
  // mapped snapshot on the zero-copy load path (the index never mutates
  // after construction either way).
  std::size_t n_ = 0;
  FlatArray<Node> route_nodes_;           // all route nodes, back to back
  FlatArray<std::uint32_t> route_off_;    // per route, offset into nodes
  FlatArray<Node> route_src_;
  FlatArray<Node> route_dst_;
  FlatArray<std::uint32_t> route_pair_;   // route -> ordered-pair id
  std::size_t num_pairs_ = 0;
  FlatArray<Node> pair_src_;              // ordered-pair id -> endpoints
  FlatArray<Node> pair_dst_;
  FlatArray<std::uint32_t> pair_route_count_;  // routes per ordered pair
  FlatArray<std::uint32_t> node_route_off_;  // node -> routes through it
  FlatArray<std::uint32_t> node_route_ids_;

  // Packed-kernel support. Routes of one ordered pair occupy a contiguous
  // route-id range (both table constructors emit them that way; finalize
  // asserts it), so a pair's routes are [pair_route_off_[p],
  // pair_route_off_[p + 1]). src_pair_* lists the ordered pairs by source
  // node — the adjacency the lane-parallel BFS walks, since in packed mode
  // "arc" and "pair with a live route" coincide.
  FlatArray<std::uint32_t> pair_route_off_;  // pair -> first route id
  FlatArray<std::uint32_t> src_pair_off_;    // node -> pairs sourced at it
  FlatArray<std::uint32_t> src_pair_ids_;
};

/// Per-worker mutable state for fault-set evaluation against a shared
/// SrgIndex. NOT thread-safe itself — each thread owns one scratch; the
/// index it references must outlive it.
class SrgScratch {
 public:
  explicit SrgScratch(const SrgIndex& index);

  const SrgIndex& index() const { return *index_; }
  std::size_t num_nodes() const { return index_->num_nodes(); }

  /// Accepted for callers that configure a scratch from a kernel request;
  /// it changes nothing. Single-set evaluation always runs the bitset
  /// kernel and evaluate_gray_block() the packed one — consumers pick
  /// between them with ExecPolicy::resolved_kernel.
  void set_kernel(SrgKernel) {}

  /// Requests a packed lane width: 0 (the default) resolves at first use
  /// via ftr::resolve_lane_width() — FTROUTE_FORCE_LANE_WIDTH, then the
  /// widest width the CPU supports; 64/128/256/512 force that width.
  /// Only evaluate_gray_block() throughput is affected — results are
  /// bit-identical at every width. Changing the width mid-stream is legal
  /// between blocks (the packed state is re-sized lazily).
  void set_lane_width(unsigned lanes);

  /// The resolved lanes-per-block (64/128/256/512) the next
  /// evaluate_gray_block() call will use; resolves kAuto on first call.
  unsigned lane_width();

  struct Result {
    std::uint32_t diameter = 0;  // kUnreachable if some pair cannot route
    std::uint32_t survivors = 0;
    std::uint32_t arcs = 0;
  };

  /// Evaluates one fault set by applying its difference from the
  /// previously evaluated set. Fault ids must be < num_nodes(); duplicates
  /// are tolerated. Every id is checked before any state changes, so a
  /// ContractViolation leaves the previous set in place.
  Result evaluate(std::span<const Node> faults);

  /// diam R(G, rho)/F — the batched counterpart of ftr::surviving_diameter.
  std::uint32_t surviving_diameter(std::span<const Node> faults);

  /// Worst finite surviving-route distance over ordered survivor pairs that
  /// share a class in `comp` (one id per node of the underlying graph);
  /// kUnreachable if some same-class pair cannot route. Used by the
  /// componentwise recovery metric (Section 7, open problem 3).
  std::uint32_t componentwise_diameter(std::span<const Node> faults,
                                       std::span<const std::uint32_t> comp);

  /// Materializes the surviving route graph as a Digraph, for callers that
  /// need the full structure (property checks, delivery simulation).
  Digraph surviving_graph(std::span<const Node> faults);

  /// Materializes the Digraph of the most recently evaluated fault set
  /// without re-applying it — the graph surviving_graph() in
  /// fault/surviving.cpp builds. At least one evaluate() must have happened
  /// since construction.
  Digraph last_surviving_graph() const;

  /// Evaluates `count` (1..lane_width()) CONSECUTIVE revolving-door fault
  /// sets in one bit-parallel pass: out[i] is exactly what evaluate() would
  /// return on the i-th set. The enumerator must be positioned on the first
  /// set of the block over this index's node universe; the call advances it
  /// by count - 1 steps (so the caller advances once more between blocks).
  /// Independent of the fault-set state — interleaving with evaluate() is
  /// safe.
  void evaluate_gray_block(GraySubsetEnumerator& e, std::size_t count,
                           Result* out);

 private:
  // Moves the fault-set state to `faults` (validated first, seeded on
  // first use).
  void apply_faults(std::span<const Node> faults);
  void seed();
  void strike(Node v);
  void unstrike(Node v);
  // Direction-optimizing bitset BFS from s over succ_bits_/pred_bits_.
  // Returns the eccentricity among reached survivors, stores the reached
  // count, and leaves visited_bits_ (and dist_, when fill_dist) describing
  // the traversal.
  std::uint32_t bfs_from(Node s, std::uint32_t* reached_out, bool fill_dist);
  void ensure_packed_state();

  const SrgIndex* index_;

  // Fault-set state (sized by seed()). The adjacency bitmaps are n *
  // words_ rows with bit (u, v) set iff pair u -> v has a live route;
  // ordered pairs are unique, so arc <-> pair is one-to-one.
  bool seeded_ = false;
  std::vector<std::uint8_t> faulty_;       // node -> currently faulty?
  std::vector<Node> faults_;               // current set, distinct ids
  std::vector<Node> next_faults_;          // evaluate() staging
  std::vector<std::uint8_t> in_next_;      // evaluate() staging marks
  std::vector<std::uint32_t> route_kill_;  // route -> #faults on it
  std::vector<std::uint32_t> pair_live_;   // pair -> #live routes
  std::uint32_t survivors_ = 0;
  std::uint32_t arcs_ = 0;
  std::size_t words_ = 0;                  // ceil(n / 64)
  std::vector<std::uint64_t> succ_bits_;   // n * words_
  std::vector<std::uint64_t> pred_bits_;   // n * words_
  std::vector<std::uint64_t> alive_bits_;  // words_
  std::vector<std::uint64_t> visited_bits_;   // words_, per BFS
  std::vector<std::uint64_t> frontier_bits_;  // words_
  std::vector<std::uint64_t> next_bits_;      // words_
  std::vector<std::uint32_t> dist_;           // n, componentwise only

  // Packed-kernel state (lazy; pk_words_ uint64_t of lanes per node/route/
  // pair — entity i owns words [i*W, (i+1)*W)). The mask arrays are all-
  // zero between blocks (the kernel's sparse cleanup restores that), so a
  // width change only needs a re-size. pk_fn_ is the runtime-dispatched
  // block body (portable/AVX2/AVX-512) for the resolved width.
  unsigned pk_requested_lanes_ = 0;  // set_lane_width() request; 0 = auto
  unsigned pk_lanes_ = 0;            // resolved lanes per block; 0 = not yet
  unsigned pk_words_ = 0;            // pk_lanes_ / 64, once sized
  packed::PackedBlockFn pk_fn_ = nullptr;
  std::vector<std::uint64_t> lane_node_mask_;  // node -> lanes where faulty
  std::vector<Node> lane_touched_;
  std::vector<std::uint64_t> route_kill_mask_;  // route -> lanes killed
  std::vector<std::uint32_t> pk_dirty_routes_;
  std::vector<std::uint64_t> pair_dead_mask_;  // pair -> lanes with 0 routes
  std::vector<std::uint8_t> pair_dirty_;
  std::vector<std::uint32_t> pk_dirty_pairs_;
  std::vector<std::uint64_t> pk_visited_;   // node -> lanes reached
  std::vector<std::uint64_t> pk_new_;       // node -> lanes newly reached
  std::vector<std::uint64_t> pk_next_mask_;
  std::vector<Node> pk_frontier_;
  std::vector<Node> pk_next_;
  std::vector<Node> pk_members_;  // current fault set during the lane walk
  std::vector<std::uint32_t> pk_dead_pairs_;    // per-lane outputs (64*W)
  std::vector<std::uint32_t> pk_diam_;          // 64*W
  std::vector<std::uint32_t> pk_ecc_;           // 64*W BFS scratch
  std::vector<std::uint64_t> pk_disconnected_;  // W words
};

/// Single-threaded batching facade: one shared, immutable SrgIndex plus one
/// SrgScratch. Existing call sites use this directly; parallel sweeps grab
/// index() and give each worker its own SrgScratch.
class SurvivingRouteGraphEngine {
 public:
  explicit SurvivingRouteGraphEngine(const RoutingTable& table)
      : index_(std::make_shared<const SrgIndex>(table)), scratch_(*index_) {}
  explicit SurvivingRouteGraphEngine(const MultiRouteTable& table)
      : index_(std::make_shared<const SrgIndex>(table)), scratch_(*index_) {}

  using Result = SrgScratch::Result;

  std::size_t num_nodes() const { return index_->num_nodes(); }
  std::size_t num_routes() const { return index_->num_routes(); }
  std::size_t num_pairs() const { return index_->num_pairs(); }

  /// The shared preprocessing; hand this to parallel sweep workers (one
  /// SrgScratch each) so one table preprocessing serves N threads.
  const std::shared_ptr<const SrgIndex>& index() const { return index_; }

  /// The facade's own scratch, for callers that interleave engine use with
  /// scratch-level calls.
  SrgScratch& scratch() { return scratch_; }

  Result evaluate(std::span<const Node> faults) {
    return scratch_.evaluate(faults);
  }
  std::uint32_t surviving_diameter(std::span<const Node> faults) {
    return scratch_.surviving_diameter(faults);
  }
  std::uint32_t componentwise_diameter(std::span<const Node> faults,
                                       std::span<const std::uint32_t> comp) {
    return scratch_.componentwise_diameter(faults, comp);
  }
  Digraph surviving_graph(std::span<const Node> faults) {
    return scratch_.surviving_graph(faults);
  }

 private:
  std::shared_ptr<const SrgIndex> index_;
  SrgScratch scratch_;
};

}  // namespace ftr
