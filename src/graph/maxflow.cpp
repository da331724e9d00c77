#include "graph/maxflow.hpp"

#include <algorithm>
#include <limits>

namespace ftr {

namespace {
constexpr std::uint32_t kNoLevel = std::numeric_limits<std::uint32_t>::max();
}

FlowNetwork::FlowNetwork(std::size_t num_nodes) : num_nodes_(num_nodes) {}

std::size_t FlowNetwork::add_edge(std::uint32_t u, std::uint32_t v,
                                  std::int64_t capacity) {
  FTR_EXPECTS_MSG(!frozen_, "add_edge on a frozen network");
  FTR_EXPECTS(u < num_nodes_ && v < num_nodes_);
  FTR_EXPECTS(capacity >= 0);
  const std::size_t id = to_.size();
  to_.push_back(v);
  cap_.push_back(capacity);
  init_.push_back(capacity);
  to_.push_back(u);
  cap_.push_back(0);
  init_.push_back(0);
  return id;
}

void FlowNetwork::freeze() {
  if (frozen_) return;
  // Counting sort of edge ids by tail (the tail of id is the head of its
  // pair, id ^ 1). Scanning ids in increasing order keeps each row in
  // insertion order.
  const std::size_t arcs = to_.size();
  offsets_.assign(num_nodes_ + 1, 0);
  for (std::size_t id = 0; id < arcs; ++id) ++offsets_[to_[id ^ 1] + 1];
  for (std::size_t u = 0; u < num_nodes_; ++u) offsets_[u + 1] += offsets_[u];
  adj_.resize(arcs);
  slot_of_.resize(arcs);
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t id = 0; id < arcs; ++id) {
    const std::uint32_t s = fill[to_[id ^ 1]]++;
    adj_[s] = static_cast<std::uint32_t>(id);
    slot_of_[id] = s;
  }
  // Permute the per-arc arrays from id order into slot order.
  std::vector<std::uint32_t> to(arcs);
  std::vector<std::int64_t> cap(arcs), init(arcs);
  rev_.resize(arcs);
  for (std::size_t s = 0; s < arcs; ++s) {
    to[s] = to_[adj_[s]];
    cap[s] = cap_[adj_[s]];
    init[s] = init_[adj_[s]];
    rev_[s] = slot_of_[adj_[s] ^ 1];
  }
  to_ = std::move(to);
  cap_ = std::move(cap);
  init_ = std::move(init);
  level_.resize(num_nodes_);
  iter_.resize(num_nodes_);
  queue_.resize(num_nodes_);
  frozen_ = true;
}

bool FlowNetwork::bfs_levels(std::uint32_t s, std::uint32_t t) {
  std::fill(level_.begin(), level_.end(), kNoLevel);
  std::size_t head = 0;
  std::size_t tail = 0;
  level_[s] = 0;
  queue_[tail++] = s;
  while (head < tail) {
    const std::uint32_t u = queue_[head++];
    const std::uint32_t next = level_[u] + 1;
    for (std::uint32_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      const std::uint32_t v = to_[k];
      if (cap_[k] > 0 && level_[v] == kNoLevel) {
        level_[v] = next;
        // Every node below t's level is labelled by now; the rest cannot
        // lie on a level-increasing path to t.
        if (v == t) return true;
        queue_[tail++] = v;
      }
    }
  }
  return false;
}

std::int64_t FlowNetwork::dfs_augment(std::uint32_t u, std::uint32_t t,
                                      std::int64_t pushed) {
  if (u == t) return pushed;
  for (std::uint32_t& k = iter_[u]; k < offsets_[u + 1]; ++k) {
    const std::uint32_t v = to_[k];
    if (cap_[k] > 0 && level_[v] == level_[u] + 1) {
      const std::int64_t got = dfs_augment(v, t, std::min(pushed, cap_[k]));
      if (got > 0) {
        cap_[k] -= got;
        cap_[rev_[k]] += got;
        return got;
      }
    }
  }
  return 0;
}

std::int64_t FlowNetwork::max_flow(std::uint32_t s, std::uint32_t t,
                                   std::int64_t limit) {
  FTR_EXPECTS(s < num_nodes_ && t < num_nodes_);
  FTR_EXPECTS(s != t);
  freeze();
  std::int64_t flow = 0;
  while (flow < limit && bfs_levels(s, t)) {
    std::copy(offsets_.begin(), offsets_.end() - 1, iter_.begin());
    while (flow < limit) {
      const std::int64_t got = dfs_augment(s, t, limit - flow);
      if (got == 0) break;
      flow += got;
    }
  }
  return flow;
}

std::int64_t FlowNetwork::flow_on(std::size_t id) const {
  FTR_EXPECTS(id < cap_.size());
  return init_[slot(id)] - cap_[slot(id)];
}

std::int64_t FlowNetwork::residual(std::size_t id) const {
  FTR_EXPECTS(id < cap_.size());
  return cap_[slot(id)];
}

std::vector<char> FlowNetwork::residual_reachable(std::uint32_t s) const {
  FTR_EXPECTS(frozen_ && s < num_nodes_);
  std::vector<char> seen(num_nodes_, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(num_nodes_);
  seen[s] = 1;
  queue.push_back(s);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      const std::uint32_t v = to_[k];
      if (cap_[k] > 0 && !seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  return seen;
}

void FlowNetwork::consume_unit(std::size_t id) {
  FTR_EXPECTS(id < cap_.size());
  FTR_EXPECTS_MSG(flow_on(id) >= 1, "edge " << id << " carries no flow");
  cap_[slot(id)] += 1;
  cap_[slot(id ^ 1)] -= 1;
}

}  // namespace ftr
