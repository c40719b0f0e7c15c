#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

using aroma::sim::EventCategory;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

bool clear_of_class_boundaries(const std::vector<std::size_t>& class_sizes,
                               double q, std::size_t margin) {
  std::size_t n = 0;
  for (std::size_t s : class_sizes) n += s;
  if (n == 0) return false;
  const std::size_t r = nearest_rank(n, q);
  std::size_t lo = 0;  // ranks (lo, lo + size] belong to the class
  for (std::size_t s : class_sizes) {
    if (r <= lo + s) {
      const std::size_t below = r - lo - 1;  // class samples under rank r
      const std::size_t above = lo + s - r;  // ...and over it
      return std::min(below, above) >= margin;
    }
    lo += s;
  }
  return false;
}

std::size_t class_margin(std::size_t n) {
  return std::max<std::size_t>(2, (n + 19) / 20);
}

std::string_view layer_of(EventCategory c) {
  switch (c) {
    case EventCategory::kNone: return "sim.unstamped";
    case EventCategory::kTimer: return "sim.timer";
    case EventCategory::kMac: return "phys.mac";
    case EventCategory::kRadio: return "env.radio";
    case EventCategory::kStream: return "net.stream";
    case EventCategory::kLease: return "disco.lease";
    case EventCategory::kDiscovery: return "disco.discovery";
    case EventCategory::kRfb: return "rfb";
    case EventCategory::kDiag: return "diag";
    case EventCategory::kApp: return "app";
    case EventCategory::kOther: return "sim.other";
  }
  return {};
}

std::vector<std::size_t> unmapped_categories() {
  std::vector<std::size_t> bad;
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < aroma::sim::kEventCategoryCount; ++i) {
    const std::string_view name = layer_of(static_cast<EventCategory>(i));
    if (name.empty() || !seen.insert(name).second) bad.push_back(i);
  }
  return bad;
}

namespace {
std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

Json& Json::raw(std::string_view key, std::string value) {
  fields_.emplace_back(std::string(key), std::move(value));
  return *this;
}

Json& Json::num(std::string_view key, double v) {
  if (!std::isfinite(v)) return raw(key, "null");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return raw(key, buf);
}

Json& Json::integer(std::string_view key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}

Json& Json::boolean(std::string_view key, bool v) {
  return raw(key, v ? "true" : "false");
}

Json& Json::str(std::string_view key, std::string_view v) {
  return raw(key, "\"" + json_escape(v) + "\"");
}

Json& Json::obj(std::string_view key, const Json& v) {
  return raw(key, v.dump());
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
