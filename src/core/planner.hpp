// RoutingPlanner: the library's front door. Profiles a graph, picks the
// strongest construction the paper licenses for it, builds the routing, and
// reports the guaranteed (d, f) pair. Preference order (by guaranteed
// surviving diameter at the full fault budget f = t):
//   tri-circular full (4) > unidirectional bipolar (4) >
//   tri-circular compact (5) > bidirectional bipolar (5) >
//   circular (6) > kernel (min(2t, ...); 4 when f <= floor(t/2)).
// Among equal bounds, bidirectional constructions are preferred (simpler
// transmission protocol — the reverse route is the same path).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/properties.hpp"
#include "common/rng.hpp"
#include "fault/srg_engine.hpp"
#include "fault/tolerance_check.hpp"
#include "graph/graph.hpp"
#include "routing/route_table.hpp"

namespace ftr {

enum class Construction : std::uint8_t {
  kTriCircularFull,
  kBipolarUnidirectional,
  kTriCircularCompact,
  kBipolarBidirectional,
  kCircular,
  kKernel,
};

const char* construction_name(Construction c);

struct Plan {
  Construction construction = Construction::kKernel;
  std::uint32_t guaranteed_diameter = 0;  // d in (d, f)-tolerant
  std::uint32_t tolerated_faults = 0;     // f
  std::string rationale;                  // which property licensed it
};

/// Chooses a construction from a profile without building anything.
Plan plan_routing(const GraphProfile& profile);

struct PlannedRouting {
  Plan plan;
  RoutingTable table;
  std::vector<Node> concentrator;  // empty for bipolar (roots in plan text)
};

/// Profiles g (or uses the supplied profile), plans, and builds.
PlannedRouting build_planned_routing(const Graph& g,
                                     const GraphProfile& profile, Rng& rng);

PlannedRouting build_planned_routing(
    const Graph& g, std::optional<std::uint32_t> known_connectivity, Rng& rng);

/// A planned routing together with the measured evidence for its claim.
struct CertifiedRouting {
  PlannedRouting routing;
  /// check_tolerance at f = plan.tolerated_faults against d =
  /// plan.guaranteed_diameter. certificate.holds must be true unless the
  /// construction (or the paper) is wrong — certification is the harness
  /// that would catch either.
  ToleranceReport certificate;
  /// The SRG preprocessing built for the certification sweep, shared so
  /// downstream consumers (the serving layer's table registry, follow-up
  /// sweeps) reuse it instead of re-deriving the same index from the table.
  std::shared_ptr<const SrgIndex> index;
};

/// Profiles, plans, builds, and then certifies the built table with the
/// tolerance sweep harness — the planner's end of the sweep pipeline. The
/// check fans across check_options.threads workers; the certificate is
/// bit-identical for any thread count. When the fault budget allows
/// exhausting f <= 3 the certification runs the revolving-door Gray sweep
/// over the shared SRG index.
CertifiedRouting build_certified_routing(
    const Graph& g, std::optional<std::uint32_t> known_connectivity, Rng& rng,
    const ToleranceCheckOptions& check_options = {});

}  // namespace ftr
