// Small combinatorics toolkit: k-subset enumeration (used by the exhaustive
// fault-set verifier) and binomial coefficients with overflow saturation
// (used to budget exhaustive vs. sampled verification).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ftr {

/// C(n, k) saturating at uint64 max instead of overflowing, so callers can
/// compare enumeration budgets safely ("if binomial(n,f) <= budget: exhaust").
std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

/// Throws ContractViolation naming f and n unless f <= n: a fault budget
/// larger than the node set has no fault sets to probe, so a check or sweep
/// over it must fail rather than report on zero sets.
void expect_fault_budget(std::size_t n, std::size_t f);

/// C(n, f) for a scan that walks every f-subset by rank: checks
/// expect_fault_budget and that C(n, f) does not saturate (the ranks must
/// be 64-bit addressable).
std::uint64_t enumerable_subsets(std::size_t n, std::size_t f);

/// Iterator-style enumeration of all k-subsets of {0,...,n-1} in
/// lexicographic order. Usage:
///
///   SubsetEnumerator e(n, k);
///   while (e.valid()) { use(e.current()); e.advance(); }
///
/// Enumerating k = 0 yields exactly one (empty) subset.
class SubsetEnumerator {
 public:
  SubsetEnumerator(std::size_t n, std::size_t k);

  /// Starts the enumeration at the subset of lexicographic rank `rank`
  /// (rank >= count() yields an exhausted enumerator). This is what lets
  /// the parallel exhaustive adversary hand each worker chunk a disjoint
  /// rank range of the same enumeration order the serial scan uses.
  SubsetEnumerator(std::size_t n, std::size_t k, std::uint64_t rank);

  bool valid() const { return valid_; }
  const std::vector<std::size_t>& current() const { return cur_; }
  void advance();

  /// Total number of subsets this enumerator will produce.
  std::uint64_t count() const { return binomial(n_, k_); }

 private:
  std::size_t n_;
  std::size_t k_;
  std::vector<std::size_t> cur_;
  bool valid_;
};

/// The k-subset of {0,...,n-1} with lexicographic rank `rank` (0-based,
/// rank < binomial(n, k)). Standard combinatorial unranking: O(n) binomial
/// probes.
std::vector<std::size_t> subset_at_rank(std::size_t n, std::size_t k,
                                        std::uint64_t rank);

/// One step of a revolving-door enumeration: element `out` left the subset
/// and element `in` entered it. The first subset of an enumeration has no
/// transition; every later subset differs from its predecessor by exactly
/// one such swap.
struct GrayTransition {
  std::size_t out = 0;
  std::size_t in = 0;
};

/// Revolving-door (Gray-code) enumeration of all k-subsets of {0,...,n-1}:
/// consecutive subsets differ by exactly one element swap, so a consumer
/// holding per-element state (the SRG engine's fault-set state) can
/// update in O(delta) instead of rebuilding per subset. The order is the
/// classic recursion
///
///   L(n, k) = L(n-1, k) ++ [S + {n-1} : S in reverse(L(n-1, k-1))]
///
/// starting at {0,...,k-1}. Usage:
///
///   GraySubsetEnumerator e(n, k);
///   consume(e.current());
///   while (e.advance()) {
///     apply(e.last_transition());   // one out, one in
///     consume(e.current());
///   }
///
/// Rank-seeded starts (`rank` = position in this order) let chunked and
/// parallel sweeps hand each worker a disjoint rank range of the same
/// enumeration a serial scan would produce, exactly like the lexicographic
/// SubsetEnumerator.
class GraySubsetEnumerator {
 public:
  GraySubsetEnumerator(std::size_t n, std::size_t k);
  GraySubsetEnumerator(std::size_t n, std::size_t k, std::uint64_t rank);

  bool valid() const { return valid_; }
  const std::vector<std::size_t>& current() const { return cur_; }

  /// Revolving-door rank of the current subset.
  std::uint64_t rank() const { return rank_; }

  /// Moves to the next subset; returns false (and invalidates the
  /// enumerator) when the current subset was the last one. On success,
  /// last_transition() describes the one-element swap just applied.
  bool advance();

  /// The swap applied by the most recent successful advance().
  const GrayTransition& last_transition() const { return trans_; }

  /// Total number of subsets this enumerator visits.
  std::uint64_t count() const { return binomial(n_, k_); }

 private:
  std::size_t n_;
  std::size_t k_;
  std::uint64_t rank_ = 0;
  std::vector<std::size_t> cur_;
  std::vector<std::size_t> prev_;  // scratch for transition extraction
  GrayTransition trans_;
  bool valid_;
};

/// The k-subset of {0,...,n-1} at position `rank` of the revolving-door
/// order (0-based, rank < binomial(n, k)), returned sorted ascending.
std::vector<std::size_t> gray_subset_at_rank(std::size_t n, std::size_t k,
                                             std::uint64_t rank);

/// Inverse of gray_subset_at_rank: the revolving-door rank of `subset`
/// (sorted ascending) within the enumeration of its |subset|-subsets. The
/// rank depends only on the subset, not on n.
std::uint64_t gray_subset_rank(const std::vector<std::size_t>& subset);

/// Calls `fn` for every k-subset of {0,...,n-1}; stops early if `fn` returns
/// false. Returns true iff the enumeration ran to completion.
bool for_each_subset(std::size_t n, std::size_t k,
                     const std::function<bool(const std::vector<std::size_t>&)>& fn);

/// Calls `fn` for every k-subset of the given universe (arbitrary values),
/// stopping early on false. Returns true iff enumeration completed.
bool for_each_subset_of(const std::vector<std::size_t>& universe, std::size_t k,
                        const std::function<bool(const std::vector<std::size_t>&)>& fn);

}  // namespace ftr
