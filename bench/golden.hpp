// Recorded behaviour of scenarios/smart_projector.scn.
//
// The Smart Projector room used to be written out by hand twice beside the
// compiled scenario, and each copy served as the other's oracle. These are
// the fleet fingerprints the handwritten room recorded at seed 2026 (one
// sim::room_fingerprint per shard k at sim::shard_seed(2026, k), folded by
// sim::fleet_fingerprint). The compiled scenario is checked against them,
// so the room's behaviour is pinned by recorded truth rather than by a
// second implementation. Shared by scn_test, scn_bench and fleet_bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace aroma::golden {

inline constexpr std::uint64_t kSmartProjectorSeed = 2026;

struct FleetGolden {
  std::size_t shards;
  std::uint64_t fleet_fp;
};

inline constexpr FleetGolden kSmartProjectorFleets[] = {
    {1, 0x56a4487fe141df4fULL},
    {4, 0x98871e8314943534ULL},
    {8, 0x0f8249721891a04cULL},
    {64, 0x0c2639c3af65b613ULL},
};

/// The pinned fleet fingerprint at kSmartProjectorSeed for `shards`, if one
/// was recorded.
inline std::optional<std::uint64_t> smart_projector_fleet(std::size_t shards) {
  for (const FleetGolden& g : kSmartProjectorFleets) {
    if (g.shards == shards) return g.fleet_fp;
  }
  return std::nullopt;
}

}  // namespace aroma::golden
