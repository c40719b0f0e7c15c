// KERNEL — microbenchmark suite for the two hot paths every experiment
// funnels through: the event kernel (sim::Simulator) and the radio
// medium's delivery/CCA scans (env::RadioMedium).
//
// Scenarios:
//   churn      — schedule/cancel churn: a rolling window of pending events
//                with half of them cancelled before they fire.
//   timers     — periodic-timer storm: hundreds of concurrently armed
//                timers re-arming themselves every few milliseconds.
//   radio_N    — N-radio broadcast scaling (N = 8/64/256): nodes spread at
//                constant density, each multicasting on a 1/6/11 channel
//                plan, exercising delivery culling, CCA, and interference.
//
// Every scenario runs twice: a *scalar* leg with event-train batching and
// the radio medium's batch path disabled (the pre-batching reference) and a
// *batched* leg with the defaults. Both legs must produce bit-identical
// fingerprints — batching is a pure mechanical optimization — and the
// batched leg is the headline result. The JSON gains a "batching" section
// per scenario (absorbed/dispatched split, per-category wall attribution,
// RadioMedium::BatchStats, speedups), and radio_256 self-gates: the
// dominant `mac` category must run >= 2x faster than the scalar leg or the
// bench exits nonzero. The legs run as interleaved scalar/batched pairs, so
// both legs of a pair see the same machine regime; the gate is the median
// of the per-pair `mac` wall ratios, not one leg's best against the
// other's.
//
// Wall time, simulated events/sec, peak pending-event count, and a
// deterministic fingerprint (pure function of the seed) are recorded per
// scenario; per-event wall attribution (KernelProfiler::enable_timing) is
// on for both legs, so the per-category clock overhead cancels out of the
// speedup ratios. Results print as tables and land in BENCH_kernel.json.
//
// With `--trace`, the radio scenarios' batched legs additionally run with a
// telemetry bundle attached and the resulting causal spans are written as a
// Chrome trace (kernel_trace.json, loadable in Perfetto) and as JSONL
// (kernel_spans.jsonl). Tracing never changes scenario fingerprints.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace {

using namespace aroma;

struct CatStats {
  std::string name;
  std::uint64_t executed = 0;
  std::uint64_t absorbed = 0;  // popped off a same-time train
  double wall_sec = 0.0;       // callback wall time attributed to the category
};

struct ScenarioResult {
  std::string name;
  sim::Throughput throughput;
  std::uint64_t fingerprint = 0;  // deterministic: depends only on the seed
  std::uint64_t absorbed = 0;     // total train-absorbed events
  // Per-category stats, nonzero-executed entries only, enum order.
  std::vector<CatStats> categories;
  bool has_radio_stats = false;
  env::RadioMedium::BatchStats radio;  // batched leg only; zero otherwise
};

std::vector<CatStats> nonzero_categories(const sim::KernelProfiler& prof) {
  std::vector<CatStats> out;
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
    const auto c = static_cast<sim::EventCategory>(i);
    const sim::KernelProfiler::CategoryStats& s = prof.stats(c);
    if (s.executed > 0) {
      out.push_back({std::string(sim::to_string(c)), s.executed, s.absorbed,
                     s.wall_sec});
    }
  }
  return out;
}

const CatStats* find_category(const ScenarioResult& r, const std::string& n) {
  for (const CatStats& c : r.categories) {
    if (c.name == n) return &c;
  }
  return nullptr;
}

// --- churn: schedule/cancel interleaving -----------------------------------

ScenarioResult bench_churn(std::uint64_t seed, bool batched) {
  constexpr int kOps = 400'000;
  constexpr int kWindow = 4'096;  // live handles eligible for cancellation

  // Category per window slot, cycling through four owners — the profiler
  // breakdown shows real categories instead of a single `none` bucket.
  // Derived from the slot index (not the rng), so the rng stream and the
  // fingerprint are untouched by the stamping.
  static constexpr sim::EventCategory kSlotCategory[4] = {
      sim::EventCategory::kApp, sim::EventCategory::kStream,
      sim::EventCategory::kLease, sim::EventCategory::kDiscovery};

  sim::Simulator s;
  s.set_train_batching(batched);
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  s.set_profiler(&prof);
  sim::Rng rng(seed);
  std::vector<sim::EventHandle> window(kWindow);
  std::uint64_t fired = 0, cancelled_ok = 0;

  sim::WallTimer timer;
  for (int i = 0; i < kOps; ++i) {
    const auto delay = sim::Time::us(rng.uniform_int(1, 20'000));
    const auto slot = static_cast<std::size_t>(rng.uniform_int(0, kWindow - 1));
    // Half the time, retire the previous occupant of the slot early.
    if (rng.bernoulli(0.5) && window[slot].valid()) {
      cancelled_ok += s.cancel(window[slot]) ? 1 : 0;
    }
    window[slot] =
        s.schedule_in(delay, kSlotCategory[slot & 3], [&fired] { ++fired; });
    // Drain periodically so the queue stays a rolling window, not a spike.
    if ((i & 0x3ff) == 0x3ff) s.run_until(s.now() + sim::Time::us(5'000));
  }
  s.run();
  const double wall = timer.elapsed_sec();

  ScenarioResult r;
  r.name = "churn";
  r.throughput = {s.executed(), wall, s.peak_pending()};
  r.fingerprint = sim::mix_hash(sim::mix_hash(fired, cancelled_ok),
                                static_cast<std::uint64_t>(s.now().count()));
  r.absorbed = s.absorbed();
  r.categories = nonzero_categories(prof);
  return r;
}

// --- timers: periodic-timer storm ------------------------------------------

ScenarioResult bench_timers(std::uint64_t seed, bool batched) {
  constexpr int kTimers = 512;
  constexpr double kSimSeconds = 8.0;

  sim::Simulator s;
  s.set_train_batching(batched);
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  s.set_profiler(&prof);
  sim::Rng rng(seed);
  std::uint64_t ticks = 0;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<sim::PeriodicTimer>(
        s, sim::Time::us(rng.uniform_int(500, 16'000)), [&ticks] { ++ticks; }));
    timers.back()->start_after(sim::Time::us(rng.uniform_int(0, 1'000)));
  }

  sim::WallTimer timer;
  s.run_until(sim::Time::sec(kSimSeconds));
  const double wall = timer.elapsed_sec();
  for (auto& t : timers) t->stop();

  ScenarioResult r;
  r.name = "timers";
  r.throughput = {s.executed(), wall, s.peak_pending()};
  r.fingerprint = sim::mix_hash(ticks, s.executed());
  r.absorbed = s.absorbed();
  r.categories = nonzero_categories(prof);
  return r;
}

// --- radio_N: broadcast scaling --------------------------------------------

ScenarioResult bench_radio(int n_radios, std::uint64_t seed, bool batched,
                           obs::Telemetry* telemetry) {
  constexpr double kSpacingM = 25.0;
  constexpr double kSimSeconds = 3.0;

  // Constant density: arena grows with the node count.
  int cols = 1;
  while (cols * cols < n_radios) ++cols;
  const double arena_side = kSpacingM * static_cast<double>(cols + 1);

  env::Environment::Params params;
  params.arena = {{0, 0}, {arena_side, arena_side}};
  params.medium.batch = batched;
  benchsup::Cell cell(seed, params);
  cell.world().sim().set_train_batching(batched);
  // Attach before nodes exist: components resolve metric handles at
  // construction. Detached below, before the Cell (and its World) dies.
  if (telemetry != nullptr) telemetry->attach(cell.world());
  sim::KernelProfiler prof;
  prof.enable_timing(true);
  cell.world().sim().set_profiler(&prof);

  // Short-range radios so culling by sensitivity radius has teeth.
  phys::DeviceProfile profile = phys::profiles::laptop();
  profile.net.tx_power_dbm = -5.0;

  static constexpr int kChannelPlan[3] = {1, 6, 11};
  std::vector<benchsup::Cell::Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n_radios));
  for (int i = 0; i < n_radios; ++i) {
    const double x = kSpacingM * static_cast<double>(i % cols + 1);
    const double y = kSpacingM * static_cast<double>(i / cols + 1);
    nodes.push_back(cell.add(profile, {x, y}, kChannelPlan[i % 3]));
    nodes.back().stack->join_group(7);
  }

  // Every node multicasts a frame every ~50 ms, phases staggered.
  std::vector<std::unique_ptr<sim::PeriodicTimer>> beacons;
  beacons.reserve(nodes.size());
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (auto& node : nodes) {
    beacons.push_back(std::make_unique<sim::PeriodicTimer>(
        cell.world().sim(), sim::Time::us(rng.uniform_int(45'000, 55'000)),
        [stack = node.stack] {
          stack->send_multicast(7, 99, 99, std::vector<std::byte>(400));
        }));
    beacons.back()->start_after(sim::Time::us(rng.uniform_int(0, 50'000)));
  }

  sim::WallTimer timer;
  cell.run_until(kSimSeconds);
  const double wall = timer.elapsed_sec();
  for (auto& b : beacons) b->stop();

  const env::MediumStats& ms = cell.environment().medium().stats();
  std::uint64_t fp = sim::mix_hash(ms.transmissions, ms.deliveries_attempted);
  fp = sim::mix_hash(fp, ms.deliveries_decodable);
  fp = sim::mix_hash(fp, ms.losses_sinr);
  fp = sim::mix_hash(fp, ms.losses_half_duplex);
  fp = sim::mix_hash(fp, cell.world().sim().executed());
  for (auto& node : nodes) {
    fp = sim::mix_hash(fp, node.device->radio().frames_received());
  }

  ScenarioResult r;
  r.name = "radio_" + std::to_string(n_radios);
  r.throughput = {cell.world().sim().executed(), wall,
                  cell.world().sim().peak_pending()};
  r.fingerprint = fp;
  r.absorbed = cell.world().sim().absorbed();
  r.categories = nonzero_categories(prof);
  r.has_radio_stats = batched;
  r.radio = cell.environment().medium().batch_stats();
  if (telemetry != nullptr) {
    telemetry->snapshot_kernel(cell.world());
    cell.environment().medium().publish_metrics();
    telemetry->detach(cell.world());
  }
  cell.world().sim().set_profiler(nullptr);
  return r;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The category the radio_256 self-gate times.
const std::string kGateCategory = "mac";

/// One scenario's two legs, each the fastest of its repeats — wall time on
/// a shared machine is min-stable, not mean-stable — plus, per interleaved
/// pair, the gate category's scalar/batched wall ratio.
struct Pair {
  ScenarioResult scalar;
  ScenarioResult batched;
  std::vector<double> gate_ratios;
};

/// Runs `kRepeats` interleaved (scalar, batched) pairs of one scenario.
/// Counts and fingerprints are deterministic, so repeats must agree
/// exactly; a mismatch is a determinism bug worth failing loudly on.
constexpr int kRepeats = 7;

void keep_fastest(ScenarioResult& best, ScenarioResult&& r, bool first) {
  if (!first && r.fingerprint != best.fingerprint) {
    std::fprintf(stderr,
                 "FATAL: %s fingerprint differs between repeats "
                 "(%016llx vs %016llx)\n",
                 r.name.c_str(),
                 static_cast<unsigned long long>(best.fingerprint),
                 static_cast<unsigned long long>(r.fingerprint));
    std::exit(1);
  }
  if (first || r.throughput.wall_sec < best.throughput.wall_sec) {
    best = std::move(r);
  }
}

template <typename Fn>
Pair interleaved(Fn&& make) {
  Pair p;
  for (int i = 0; i < kRepeats; ++i) {
    ScenarioResult s = make(false);
    ScenarioResult b = make(true);
    const CatStats* sc = find_category(s, kGateCategory);
    const CatStats* bc = find_category(b, kGateCategory);
    // Same executed count both legs (fingerprints match), so the
    // throughput ratio reduces to the wall ratio of the category's
    // callbacks.
    if (sc != nullptr && bc != nullptr && bc->wall_sec > 0.0 &&
        sc->executed == bc->executed) {
      p.gate_ratios.push_back(sc->wall_sec / bc->wall_sec);
    }
    keep_fastest(p.scalar, std::move(s), i == 0);
    keep_fastest(p.batched, std::move(b), i == 0);
  }
  return p;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 42;
  // The self-gate: the dominant event category of the densest radio
  // scenario must run at least this much faster with batching on.
  constexpr double kGateMinSpeedup = 2.0;
  const std::string kGateScenario = "radio_256";

  // Arguments: `--trace` turns on span capture for the radio scenarios;
  // any other argument is a substring filter (`kernel_bench radio` runs
  // only radio_N).
  bool trace = false;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else {
      filter = arg;
    }
  }
  const auto wanted = [&](const std::string& name) {
    return filter.empty() || name.find(filter) != std::string::npos;
  };

  std::unique_ptr<obs::Telemetry> telemetry;
  if (trace) telemetry = std::make_unique<obs::Telemetry>();

  // Each scenario: interleaved pairs, scalar reference leg first.
  std::vector<Pair> results;
  if (wanted("churn")) {
    results.push_back(
        interleaved([&](bool batched) { return bench_churn(kSeed, batched); }));
  }
  if (wanted("timers")) {
    results.push_back(interleaved(
        [&](bool batched) { return bench_timers(kSeed, batched); }));
  }
  for (int n : {8, 64, 256}) {
    if (wanted("radio_" + std::to_string(n))) {
      results.push_back(interleaved([&](bool batched) {
        return bench_radio(n, kSeed, batched,
                           batched ? telemetry.get() : nullptr);
      }));
    }
  }

  benchsup::table_header("KERNEL microbenchmarks (seed 42, batched leg)",
                         {"scenario", "events", "wall_s", "events/s",
                          "peak_pend", "fingerprint"});
  for (const auto& p : results) {
    const ScenarioResult& r = p.batched;
    // 16 hex digits overflow the 14-char table cell; lead with a two-space
    // gutter so the fingerprint stays separated from peak_pend.
    benchsup::table_row(r.name, static_cast<double>(r.throughput.events),
                        r.throughput.wall_sec, r.throughput.events_per_sec(),
                        static_cast<double>(r.throughput.peak_pending),
                        "  " + hex16(r.fingerprint));
  }

  benchsup::table_header("batching vs scalar reference",
                         {"scenario", "scalar_s", "batched_s", "speedup",
                          "absorbed", "fp_match"});
  bool all_fp_match = true;
  for (const auto& p : results) {
    const bool fp_match = p.scalar.fingerprint == p.batched.fingerprint;
    all_fp_match = all_fp_match && fp_match;
    benchsup::table_row(
        p.batched.name, p.scalar.throughput.wall_sec,
        p.batched.throughput.wall_sec,
        p.batched.throughput.wall_sec > 0.0
            ? p.scalar.throughput.wall_sec / p.batched.throughput.wall_sec
            : 0.0,
        static_cast<double>(p.batched.absorbed),
        std::string(fp_match ? "yes" : "NO"));
  }

  // --- self-gates -----------------------------------------------------------
  std::vector<std::string> failures;
  if (!all_fp_match) {
    failures.push_back(
        "fingerprint mismatch between scalar and batched legs (batching must "
        "be bit-identical)");
  }
  double gate_speedup = 0.0;
  bool gate_ran = false;
  for (const auto& p : results) {
    if (p.batched.name != kGateScenario) continue;
    gate_ran = true;
    if (p.gate_ratios.size() != static_cast<std::size_t>(kRepeats)) {
      failures.push_back("gate category '" + kGateCategory +
                         "' missing or inconsistent in " + kGateScenario);
      continue;
    }
    gate_speedup = median(p.gate_ratios);
    if (gate_speedup < kGateMinSpeedup) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "%s '%s' speedup %.2fx below the %.1fx gate",
                    kGateScenario.c_str(), kGateCategory.c_str(), gate_speedup,
                    kGateMinSpeedup);
      failures.push_back(msg);
    }
  }
  if (gate_ran) {
    std::printf(
        "\ngate: %s '%s' category speedup %.2fx, median of %d interleaved "
        "pairs (>= %.1fx required)\n",
        kGateScenario.c_str(), kGateCategory.c_str(), gate_speedup, kRepeats,
        kGateMinSpeedup);
  }

  auto doc = benchsup::Json::object();
  doc.set("bench", "kernel");
  doc.set("seed", kSeed);
  auto arr = benchsup::Json::array();
  for (const auto& p : results) {
    const ScenarioResult& r = p.batched;
    auto obj = benchsup::Json::object();
    obj.set("scenario", r.name);
    obj.set("events", r.throughput.events);
    obj.set("wall_sec", r.throughput.wall_sec);
    obj.set("events_per_sec", r.throughput.events_per_sec());
    obj.set("peak_pending", r.throughput.peak_pending);
    obj.set("fingerprint", hex16(r.fingerprint));
    auto cats = benchsup::Json::object();
    for (const CatStats& c : r.categories) cats.set(c.name, c.executed);
    obj.set("categories", std::move(cats));

    auto batching = benchsup::Json::object();
    batching.set("scalar_wall_sec", p.scalar.throughput.wall_sec);
    batching.set("scalar_fingerprint", hex16(p.scalar.fingerprint));
    batching.set("fingerprint_match",
                 p.scalar.fingerprint == p.batched.fingerprint);
    batching.set("speedup",
                 r.throughput.wall_sec > 0.0
                     ? p.scalar.throughput.wall_sec / r.throughput.wall_sec
                     : 0.0);
    batching.set("absorbed", r.absorbed);
    batching.set("dispatched", r.throughput.events - r.absorbed);
    auto per_cat = benchsup::Json::array();
    for (const CatStats& c : r.categories) {
      const CatStats* sc = find_category(p.scalar, c.name);
      auto co = benchsup::Json::object();
      co.set("category", c.name);
      co.set("executed", c.executed);
      co.set("absorbed", c.absorbed);
      co.set("wall_sec", c.wall_sec);
      co.set("scalar_wall_sec", sc != nullptr ? sc->wall_sec : 0.0);
      co.set("speedup",
             (sc != nullptr && c.wall_sec > 0.0) ? sc->wall_sec / c.wall_sec
                                                 : 0.0);
      per_cat.push(std::move(co));
    }
    batching.set("per_category", std::move(per_cat));
    if (r.has_radio_stats) {
      auto rs = benchsup::Json::object();
      rs.set("resolve_calls", r.radio.resolve_calls);
      rs.set("queries", r.radio.queries);
      rs.set("memo_hits", r.radio.memo_hits);
      rs.set("memo_misses", r.radio.memo_misses);
      rs.set("fallback_queries", r.radio.fallback_queries);
      rs.set("sweep_hits", r.radio.sweep_hits);
      rs.set("sweep_misses", r.radio.sweep_misses);
      rs.set("cca_hits", r.radio.cca_hits);
      rs.set("cca_misses", r.radio.cca_misses);
      batching.set("radio", std::move(rs));
    }
    if (r.name == kGateScenario) {
      auto gate = benchsup::Json::object();
      gate.set("category", kGateCategory);
      gate.set("min_speedup", kGateMinSpeedup);
      gate.set("speedup", gate_speedup);
      gate.set("pairs", static_cast<std::uint64_t>(p.gate_ratios.size()));
      auto ratios = benchsup::Json::array();
      for (const double v : p.gate_ratios) ratios.push(v);
      gate.set("pair_speedups", std::move(ratios));
      gate.set("passed", gate_speedup >= kGateMinSpeedup);
      batching.set("gate", std::move(gate));
    }
    obj.set("batching", std::move(batching));
    arr.push(std::move(obj));
  }
  doc.set("scenarios", std::move(arr));
  const std::string path = "BENCH_kernel.json";
  if (!doc.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());

  if (telemetry) {
    const bool ok =
        obs::write_chrome_trace(telemetry->spans(), "kernel_trace.json") &&
        obs::write_jsonl(telemetry->spans(), "kernel_spans.jsonl") &&
        obs::write_metrics_json(telemetry->metrics(), "kernel_metrics.json");
    if (!ok) {
      std::fprintf(stderr, "failed to write trace artifacts\n");
      return 1;
    }
    std::printf(
        "wrote kernel_trace.json (Perfetto), kernel_spans.jsonl, "
        "kernel_metrics.json (%llu spans, %llu dropped)\n",
        static_cast<unsigned long long>(telemetry->spans().records().size()),
        static_cast<unsigned long long>(telemetry->spans().dropped()));
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "GATE FAILURE: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
