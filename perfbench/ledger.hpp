// Pure helpers of the full-stack room benchmark: order statistics with
// their sample-support and class-boundary rules, the kernel-category ->
// LPC-layer map, and a minimal JSON writer. Kept apart from room_bench.cpp
// so ledger_test.cpp can check the rules directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/profiler.hpp"

namespace perfbench {

// --- order statistics -------------------------------------------------------

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// Interquartile mean: the mean of `v` after dropping the lowest and the
/// highest floor(n/4) values. Robust to a burst like a median, but where a
/// median jumps between the modes of a bimodal sample (a shared host can
/// alternate between a fast and a slow state for seconds at a time), the
/// interquartile mean moves in proportion to the time spent in each.
double iq_mean(std::vector<double> v);

/// 1-based nearest rank of quantile q in n sorted samples: ceil(q * n),
/// clamped to [1, n].
std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank quantile of `v` (copied and sorted).
double percentile(std::vector<double> v, double q);

/// Samples strictly above the nearest-rank position of q.
std::size_t samples_beyond(std::size_t n, double q);

/// The sample-support rule: a percentile is reported only with at least 10
/// samples beyond it, so it is never the maximum of a handful of rooms.
bool percentile_supported(std::size_t n, double q);

/// The class-boundary rule. `class_sizes` are the room counts of each shard
/// class, listed in ascending cost order, so in sorted order class c holds
/// the ranks just after classes 0..c-1. A quantile whose nearest rank sits
/// within `margin` ranks of a class edge reads the slowest or fastest room
/// of one class, and flips between classes with noise; it is refused.
bool clear_of_class_boundaries(const std::vector<std::size_t>& class_sizes,
                               double q, std::size_t margin);

/// Default margin for clear_of_class_boundaries: 5% of the room count,
/// at least 2 ranks.
std::size_t class_margin(std::size_t n);

// --- kernel categories -> LPC layers ----------------------------------------

/// Ledger name of a kernel event category, prefixed by the LPC layer that
/// owns the work ("phys.mac", "env.radio", "disco.lease", ...). Returns an
/// empty view for a category this map does not know.
std::string_view layer_of(aroma::sim::EventCategory c);

/// Categories in [0, kEventCategoryCount) with no (or a duplicate) ledger
/// name. Must be empty: a new category would otherwise go unattributed.
std::vector<std::size_t> unmapped_categories();

// --- JSON -------------------------------------------------------------------

/// Ordered JSON object builder (flat values and nested objects only).
class Json {
 public:
  Json& num(std::string_view key, double v);
  Json& integer(std::string_view key, std::uint64_t v);
  Json& boolean(std::string_view key, bool v);
  Json& str(std::string_view key, std::string_view v);
  Json& obj(std::string_view key, const Json& v);
  std::string dump() const;

 private:
  Json& raw(std::string_view key, std::string value);
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
