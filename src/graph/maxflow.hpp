// Dinic max-flow on small integer-capacity networks.
//
// This is the Menger engine behind everything in ftroute: node connectivity,
// minimum vertex cuts, internally node-disjoint paths, and the tree routings
// of Lemma 2 are all computed on vertex-split unit-capacity networks built on
// top of this class (see SplitFlowSolver in graph/connectivity.hpp). Unit
// capacities make Dinic run in O(E * sqrt(V)).
//
// Life cycle: arcs are added with add_edge, then freeze() (called implicitly
// by the first max_flow) lays the arcs out as flat CSR: each node's arcs
// occupy one contiguous run of slots, in insertion order, and the per-arc
// arrays (head, residual capacity, paired reverse slot) are permuted into
// slot order so the level BFS and the augmenting DFS scan memory linearly.
// Edge ids (the values add_edge returned) stay the public handles. After
// the freeze the arc set is fixed, but every forward arc's capacity can be
// re-armed with set_capacity, which also zeroes its flow. A network built
// once can therefore answer many flow queries that differ only in
// capacities: an arc a query does not want is re-armed to capacity 0 and is
// skipped by every traversal, so the live arcs are visited in the same
// relative order as in a network built with only those arcs. That is what
// keeps results bit-identical to building a fresh network per query.
//
// The level BFS uses a flat queue and stops as soon as the sink is labelled.
// By then every node closer to the source than the sink already has its
// level, and nodes at or beyond the sink's level never lie on a
// level-increasing path to it, so the blocking flows (and the augmenting
// paths) are the same as with a full BFS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace ftr {

/// A directed flow network with integer capacities. Nodes are added
/// implicitly by referencing them in add_edge (ids must be < node_count
/// passed at construction).
class FlowNetwork {
 public:
  explicit FlowNetwork(std::size_t num_nodes);

  std::size_t num_nodes() const { return num_nodes_; }

  /// Adds a directed edge u -> v with the given capacity; returns the edge
  /// id (the paired reverse edge has id ^ 1). Capacity must be >= 0.
  /// Not allowed once the network is frozen.
  std::size_t add_edge(std::uint32_t u, std::uint32_t v, std::int64_t capacity);

  /// Fixes the arc set and lays the adjacency out as CSR. Idempotent;
  /// max_flow calls it on first use.
  void freeze();

  /// Re-arms forward edge `id` (an id add_edge returned) with `capacity`
  /// and zero flow: its residual and original capacity become `capacity`,
  /// the paired reverse edge's both become 0.
  void set_capacity(std::size_t id, std::int64_t capacity) {
    FTR_EXPECTS(id < cap_.size() && (id & 1) == 0 && capacity >= 0);
    const std::size_t fwd = slot(id);
    const std::size_t rev = slot(id ^ 1);
    cap_[fwd] = init_[fwd] = capacity;
    cap_[rev] = init_[rev] = 0;
  }

  /// Runs Dinic from s to t, augmenting up to `limit` units (default: no
  /// limit). Returns the flow value found. Can be called repeatedly; flow
  /// accumulates.
  std::int64_t max_flow(std::uint32_t s, std::uint32_t t,
                        std::int64_t limit = kNoLimit);

  /// Flow currently on edge `id` (forward edges only meaningful).
  std::int64_t flow_on(std::size_t id) const;

  /// Residual capacity of edge `id`.
  std::int64_t residual(std::size_t id) const;

  /// Nodes reachable from s in the residual graph after max_flow; this is
  /// the source side of a minimum cut. Requires a frozen network.
  std::vector<char> residual_reachable(std::uint32_t s) const;

  /// Edge target node.
  std::uint32_t edge_to(std::size_t id) const { return to_[slot(id)]; }

  /// For flow decomposition: consume one unit of flow along edge id.
  void consume_unit(std::size_t id);

  /// Out-edge ids of node u (forward and reverse edges interleaved, in
  /// insertion order). Requires a frozen network.
  std::span<const std::uint32_t> out_edges(std::uint32_t u) const {
    FTR_EXPECTS(frozen_ && u < num_nodes_);
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  static constexpr std::int64_t kNoLimit = INT64_MAX;

 private:
  // Position of edge `id` in the per-arc arrays: its CSR slot once frozen,
  // the id itself before.
  std::size_t slot(std::size_t id) const {
    return frozen_ ? slot_of_[id] : id;
  }
  bool bfs_levels(std::uint32_t s, std::uint32_t t);
  std::int64_t dfs_augment(std::uint32_t u, std::uint32_t t, std::int64_t pushed);

  std::size_t num_nodes_;
  bool frozen_ = false;
  // Per-arc arrays, indexed by slot(id).
  std::vector<std::uint32_t> to_;
  std::vector<std::int64_t> cap_;   // residual capacities
  std::vector<std::int64_t> init_;  // original capacities (for flow_on)
  // CSR layout, built by freeze(): node u's arcs are the slots
  // offsets_[u] .. offsets_[u+1]; adj_ maps a slot to its edge id, slot_of_
  // an edge id to its slot, rev_ a slot to its paired reverse slot.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> adj_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> rev_;
  // Dinic scratch, sized by freeze().
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;   // next slot to try per node
  std::vector<std::uint32_t> queue_;  // BFS queue; each node enters once
};

}  // namespace ftr
