// Full-stack room benchmark: library scenarios compiled through the public
// scn API and run room by room (radio -> MAC -> net -> disco/app/RFB -> user
// agent), timed from outside the program.
//
//   room_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --scn-dir <dir> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no tracing attached:
// set-up (compile + decode), a 1-worker leg that builds, runs and destroys
// every room of the workload's fixed set one after another, and a 2-worker
// leg that runs the same set through scn::run_fleet. Legs repeat in rounds
// until --seconds are spent; rates and each room's time are interquartile
// means over rounds (perfbench::iq_mean), at nominal host speed (see
// "host-speed reference" below).
//
// --trace 1 runs the same untraced rounds, then one traced 1-worker leg, and
// prints the per-layer ledger: compile stages, room build, heap allocations,
// arena high water, and each kernel event category (sim::KernelProfiler
// with timing on) mapped onto its LPC layer. Spans recorded around every
// call (an obs::SpanTracer stamped with host time) land in
// <out-dir>/trace-<workload>-seed<n>.json, a Chrome trace with one track per
// LPC layer, when the run ends.
//
// Every run checks the outcomes (see check_fleet and outcome digests below)
// and prints, as its last line, one JSON object:
//   {"correct": ..., "attempted": rooms, "failed": rooms, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ledger.hpp"
#include "lpc/layers.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "scn/blob.hpp"
#include "scn/parser.hpp"
#include "scn/passes.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/simd.hpp"

// Global heap-allocation counter, as in bench/fleet_bench.cpp: replacing
// operator new counts every allocation that reaches the heap. Read only
// around single-threaded calls, so the deltas are exact.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size ? size : align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace aroma;
using perfbench::Json;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kFleetWorkers = 2;
constexpr int kSetupRounds = 101;
/// Fewest measured rounds in a run: one round gives one fleet leg.
constexpr std::size_t kMinRounds = 2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Spans of a traced run: an obs::SpanTracer whose timestamps are host
/// nanoseconds since the recorder was made. The compile stages sit on the
/// Abstract layer (the scenario as a program); room build, run and teardown
/// on the Resource layer (the world's devices, radio arena and kernel). A
/// null recorder records nothing.
class Spans {
 public:
  obs::SpanId begin(std::string_view name, lpc::Layer layer,
                    obs::SpanId parent = 0) {
    return tracer_.begin(now(), name, layer, parent);
  }
  void end(obs::SpanId id) { tracer_.end(id, now()); }
  void annotate(obs::SpanId id, std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    tracer_.annotate(id, key, buf);
  }
  const obs::SpanTracer& tracer() const { return tracer_; }

 private:
  sim::Time now() const {
    return sim::Time::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count());
  }

  obs::SpanTracer tracer_;
  Clock::time_point origin_ = Clock::now();
};

obs::SpanId span_begin(Spans* rec, std::string_view name, lpc::Layer layer,
                       obs::SpanId parent = 0) {
  return rec ? rec->begin(name, layer, parent) : 0;
}
void span_end(Spans* rec, obs::SpanId id) {
  if (rec) rec->end(id);
}

struct Workload {
  const char* name;
  const char* file;     // under --scn-dir
  std::size_t rooms;    // the fixed room set: shards 0..rooms-1
  std::size_t warmup;   // untimed rooms run first (shards 0..warmup-1)
  double tail_q;        // room_ms_tail's quantile
  /// Room-time percentiles leave out shards k with k % sample_skip == 0
  /// (0: none), so that no percentile sits on a shard-class edge.
  std::size_t sample_skip;
  std::uint64_t digest;  // outcome digest at kDefaultSeed
};

// Why each workload, and why these sizes: perfbench/README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"projector_rooms", "smart_projector.scn", 500, 20, 0.9, 0,
       0x6f831738df91f521ull},
      {"stadium_crowd", "stadium.scn", 20, 1, 0.5, 0, 0x594ea920c2eadcf3ull},
      {"ward_fleet", "hospital_ward.scn", 160, 8, 0.9, 8,
       0x1ff79f6b41156a23ull},
  };
  return w;
}

std::string pct_label(double q) {
  return "p" + std::to_string(static_cast<int>(q * 100 + 0.5));
}

/// Shards of the room set that the room-time percentiles are taken over.
std::vector<std::size_t> sample_rooms(const Workload& w) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < w.rooms; ++k) {
    if (w.sample_skip == 0 || k % w.sample_skip != 0) out.push_back(k);
  }
  return out;
}

// --- host descriptor --------------------------------------------------------

Json host_descriptor(std::vector<std::string>* flags) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitize = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (sanitize.empty()) sanitize = "compiler-detected";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(AROMA_FORCE_SCALAR)
  const bool force_scalar = true;
#else
  const bool force_scalar = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const unsigned cores = std::thread::hardware_concurrency();
  if (!optimized) flags->push_back("unoptimized_build");
  if (!sanitize.empty()) flags->push_back("sanitizer_build");
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    flags->push_back("build_type_" + build_type);
  }
  if (cores < kFleetWorkers) flags->push_back("fewer_cores_than_workers");
  Json flag_list;
  for (std::size_t i = 0; i < flags->size(); ++i) {
    flag_list.boolean((*flags)[i], true);
  }
  Json h;
  h.integer("cores", cores)
      .str("simd_backend", sim::simd::kBackend)
      .str("build_type", build_type)
      .boolean("optimized", optimized)
      .str("compiler", compiler)
      .str("aroma_sanitize", sanitize)
      .boolean("aroma_force_scalar", force_scalar)
      .integer("fleet_workers", kFleetWorkers)
      .obj("flags", flag_list);
  return h;
}

// --- set-up: compile + decode ------------------------------------------------

struct SetupSample {
  double parse = 0, passes = 0, encode = 0, decode = 0;
  double total() const { return parse + passes + encode + decode; }
};

/// One compile (parse -> passes -> encode) plus decode, each stage timed.
/// Spans are recorded when `rec` is non-null.
scn::Scenario setup_once(const std::string& source, const std::string& file,
                         std::vector<std::uint8_t>* blob, SetupSample* t,
                         Spans* rec) {
  const obs::SpanId root = span_begin(rec, "setup", lpc::Layer::kAbstract);
  auto stage = [&](const char* name, double* out, auto&& fn) {
    const obs::SpanId id = span_begin(rec, name, lpc::Layer::kAbstract, root);
    const auto t0 = Clock::now();
    fn();
    *out = since(t0);
    span_end(rec, id);
  };
  scn::Scenario ir;
  stage("scn.parse", &t->parse, [&] { ir = scn::parse(source, file); });
  stage("scn.passes", &t->passes, [&] { scn::run_passes(ir); });
  stage("scn.encode", &t->encode, [&] { *blob = scn::encode(ir); });
  scn::Scenario out;
  stage("scn.decode", &t->decode, [&] { out = scn::decode(*blob); });
  if (rec) {
    rec->end(root);
    rec->annotate(root, "blob_bytes", static_cast<double>(blob->size()));
  }
  return out;
}

// --- rooms ------------------------------------------------------------------

struct RoomResult {
  bool ok = false;
  std::uint64_t fp = 0;
  std::uint64_t pings = 0;
  user::TaskOutcome outcome;
  double build_sec = 0, run_sec = 0;
  double room_sec = 0;  // wall time of build + run() + teardown
  std::uint64_t build_allocs = 0, run_allocs = 0;
  std::uint64_t events = 0, absorbed = 0;
  std::uint64_t arena_peak_bytes = 0;
  sim::KernelProfiler profile;  // filled on traced passes only
};

/// Builds, runs and tears down one room on the calling thread. A room that
/// throws is returned with ok == false and counts as a failed operation.
RoomResult run_room(const scn::Scenario& s, std::size_t shard,
                    std::uint64_t seed, bool traced, Spans* rec) {
  constexpr lpc::Layer kRoom = lpc::Layer::kResource;
  RoomResult r;
  const obs::SpanId root = span_begin(rec, "room", kRoom);
  const auto t0 = Clock::now();
  try {
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    obs::SpanId span = span_begin(rec, "room.build", kRoom, root);
    std::optional<scn::ScenarioInstance> inst;
    inst.emplace(s, shard, sim::shard_seed(seed, shard));
    r.build_sec = since(t0);
    span_end(rec, span);
    const std::uint64_t a1 = g_heap_allocs.load(std::memory_order_relaxed);
    if (traced) {
      r.profile.enable_timing(true);
      inst->world().sim().set_profiler(&r.profile);
    }
    span = span_begin(rec, "room.run", kRoom, root);
    const auto t1 = Clock::now();
    inst->run();
    r.run_sec = since(t1);
    span_end(rec, span);
    r.run_allocs = g_heap_allocs.load(std::memory_order_relaxed) - a1;
    r.build_allocs = a1 - a0;
    inst->world().sim().set_profiler(nullptr);
    r.fp = inst->fingerprint();
    r.pings = inst->pings();
    r.outcome = inst->outcome();
    r.events = inst->events();
    r.absorbed = inst->absorbed();
    r.arena_peak_bytes = inst->world().arena().high_water().peak_bytes;
    span = span_begin(rec, "room.teardown", kRoom, root);
    inst.reset();
    span_end(rec, span);
    r.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "room %zu failed: %s\n", shard, e.what());
  }
  r.room_sec = since(t0);
  if (rec) {
    rec->end(root);
    rec->annotate(root, "shard", static_cast<double>(shard));
    rec->annotate(root, "events", static_cast<double>(r.events));
    rec->annotate(root, "absorbed", static_cast<double>(r.absorbed));
    rec->annotate(root, "pings", static_cast<double>(r.pings));
    if (traced) {
      for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
        const auto cat = static_cast<sim::EventCategory>(c);
        rec->annotate(root, perfbench::layer_of(cat),
                      static_cast<double>(r.profile.stats(cat).executed));
      }
    }
  }
  return r;
}

/// Outcome digest of a room set, folded in shard order from public
/// accessors only: pings() and the first goal's TaskOutcome. Event counts
/// are left out so that removing kernel events does not move it.
std::uint64_t outcome_digest(const std::vector<RoomResult>& rooms) {
  std::uint64_t d = sim::mix_hash(0x70657266u, rooms.size());
  for (const RoomResult& r : rooms) {
    d = sim::mix_hash(d, r.pings);
    d = sim::mix_hash(d, r.outcome.success ? 1 : 0);
    d = sim::mix_hash(d, r.outcome.abandoned ? 1 : 0);
    d = sim::mix_hash(d, r.outcome.steps_completed);
    d = sim::mix_hash(d, r.outcome.errors);
    d = sim::mix_hash(d, static_cast<std::uint64_t>(r.outcome.duration.count()));
  }
  return d;
}

/// Tally of a run's correctness checks. Rooms are the operations: each
/// room built and run (1-worker) or fleet-run (2-worker) is one attempt; a
/// room that throws or whose fingerprint disagrees is one failure.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  // run-level checks (fleet fold, digests)

  void fail(const char* what) {
    std::fprintf(stderr, "check failed: %s\n", what);
    consistent = false;
  }
};

/// Compares a 2-worker scn::run_fleet result with the 1-worker rooms of
/// the same set: per-shard fingerprints, the benchmark's own fold
/// (sim::fleet_fingerprint) against run_fleet's fleet_fp, and the totals.
void check_fleet(const std::vector<RoomResult>& rooms,
                 const scn::FleetResult& fleet, Checks* c) {
  c->attempted += rooms.size();
  std::vector<std::uint64_t> fps;
  std::uint64_t pings = 0, succeeded = 0;
  for (std::size_t k = 0; k < rooms.size(); ++k) {
    fps.push_back(rooms[k].fp);
    pings += rooms[k].pings;
    succeeded += rooms[k].outcome.success ? 1 : 0;
    if (k >= fleet.shard_fps.size() || fleet.shard_fps[k] != rooms[k].fp ||
        !rooms[k].ok) {
      ++c->failed;
    }
  }
  if (sim::fleet_fingerprint(fps) != fleet.fleet_fp) {
    c->fail("1-worker fold != 2-worker run_fleet fleet_fp");
  }
  if (fleet.pings != pings) c->fail("fleet pings != sum of room pings");
  if (fleet.goals_succeeded != succeeded) {
    c->fail("fleet goals_succeeded != sum of room outcomes");
  }
}

/// Counts the 1-worker attempts and failures of one leg, and checks the
/// leg repeats the first leg's fingerprints exactly.
void check_leg(const std::vector<RoomResult>& rooms,
               const std::vector<RoomResult>& first, Checks* c) {
  c->attempted += rooms.size();
  for (std::size_t k = 0; k < rooms.size(); ++k) {
    if (!rooms[k].ok || rooms[k].fp != first[k].fp) ++c->failed;
  }
}

// --- host-speed reference ----------------------------------------------------

// On a shared host the rooms' speed swings by a third within seconds and
// drifts for minutes as other tenants contend for caches and memory: plain
// arithmetic keeps its speed while heap- and table-heavy code loses it.
// Every timed room is therefore paired with a fixed reference workload run
// just before it on the same thread, and every timed figure is reported at
// the reference's nominal speed, i.e. divided by the host slowdown
// sigma = (reference pass time) / kRefNominalSec. The reference is the
// benchmark's own code and does not depend on the program under test, so a
// change to the program moves the normalised figures as it moves wall time.

constexpr int kRefOps = 3000;
/// About one reference pass on a 4-core 2.0 GHz Xeon VM (gcc 12, -O3) when
/// its co-tenants are quiet. Any constant would do: figures are compared
/// between runs on one host.
constexpr double kRefNominalSec = 360e-6;
/// Reference time spent before each room, as a share of the previous room.
constexpr double kRefShare = 0.02;

std::atomic<std::uint64_t> g_ref_sink{0};

/// One reference pass: seeded priority-queue and hash-map work on fresh heap
/// memory, the kind of work the event kernel and the rooms' tables do.
/// Returns its wall time.
double reference_pass() {
  const auto t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sink = 0;
  for (int i = 0; i < kRefOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    queue.push(x);
    table[x & 4095] += x;
    if (queue.size() > 500) {
      sink += queue.top();
      queue.pop();
    }
  }
  g_ref_sink.fetch_add(sink + table.size(), std::memory_order_relaxed);
  return since(t0);
}

/// Host slowdown on this thread: reference passes until `budget_sec` is
/// spent (at least `min_passes`), mean pass time over the nominal.
double host_slowdown(double budget_sec, int min_passes = 1) {
  double spent = 0;
  int passes = 0;
  while (passes < min_passes || spent < budget_sec) {
    spent += reference_pass();
    ++passes;
  }
  return spent / passes / kRefNominalSec;
}

// --- legs and rounds ---------------------------------------------------------

/// A 1-worker leg: shards 0..n-1 built and run one after another on this
/// thread, each preceded by a reference sample (kRefShare of the previous
/// room's time, at least one pass) and by `before_room(last_room_sec,
/// sigma)` with the previous room's time and that sample's slowdown.
struct Leg {
  std::vector<RoomResult> rooms;
  std::vector<double> sigma;  // host slowdown measured before each room
};

template <typename BeforeRoom>
Leg run_leg(const scn::Scenario& s, std::size_t n, std::uint64_t seed,
            bool traced, Spans* rec, BeforeRoom before_room) {
  Leg leg;
  double last_room_sec = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double sigma = host_slowdown(kRefShare * last_room_sec);
    before_room(last_room_sec, sigma);
    leg.rooms.push_back(run_room(s, k, seed, traced, rec));
    leg.sigma.push_back(sigma);
    last_room_sec = leg.rooms.back().room_sec;
  }
  return leg;
}

Leg run_leg(const scn::Scenario& s, std::size_t n, std::uint64_t seed,
            bool traced, Spans* rec) {
  return run_leg(s, n, seed, traced, rec, [](double, double) {});
}

/// The measured part of a run: rounds of a 1-worker leg over the room set
/// followed by the same set through scn::run_fleet at kFleetWorkers,
/// repeated while at least half of another round fits in `seconds`, and at
/// least kMinRounds times (a stadium round takes 17-20 s). Times
/// and rates of 1-worker rooms are at nominal host speed, each scaled by the
/// slowdown sampled just before it; fleet legs are kept as wall time (see
/// fleet_rate).
struct Rounds {
  std::vector<RoomResult> first;  // the first 1-worker leg
  std::vector<double> rate1;      // rooms per second, per round
  std::vector<double> wall1, wall2;  // rooms per wall second, per round
  std::vector<double> sigma1;        // mean slowdown of a 1-worker leg
  std::vector<double> run_sec;       // sum of run() times, per round
  std::vector<std::vector<double>> room_ms, build_us;  // [room][round]
};

template <typename BeforeRoom>
Rounds run_rounds(const Workload& w, const scn::Scenario& s,
                  std::uint64_t seed, double seconds, BeforeRoom before_room,
                  Checks* c) {
  run_leg(s, w.warmup, seed, false, nullptr);  // untimed warm-up
  Rounds r;
  r.room_ms.resize(w.rooms);
  r.build_us.resize(w.rooms);
  const auto t0 = Clock::now();
  double last_round = 0;
  do {
    const auto r0 = Clock::now();
    const Leg leg = run_leg(s, w.rooms, seed, false, nullptr, before_room);
    double room_sec = 0, wall_sec = 0, run_sec = 0, sigma = 0;
    for (std::size_t k = 0; k < w.rooms; ++k) {
      const RoomResult& room = leg.rooms[k];
      const double sk = leg.sigma[k];
      r.room_ms[k].push_back(room.room_sec / sk * 1e3);
      r.build_us[k].push_back(room.build_sec / sk * 1e6);
      room_sec += room.room_sec / sk;
      wall_sec += room.room_sec;
      run_sec += room.run_sec / sk;
      sigma += sk;
    }
    if (r.first.empty()) r.first = leg.rooms;
    check_leg(leg.rooms, r.first, c);
    const double n = static_cast<double>(w.rooms);
    r.rate1.push_back(n / room_sec);
    r.wall1.push_back(n / wall_sec);
    r.sigma1.push_back(sigma / n);
    r.run_sec.push_back(run_sec);

    const auto f0 = Clock::now();
    scn::FleetResult fleet;
    try {
      fleet = scn::run_fleet(s, w.rooms, seed, kFleetWorkers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_fleet failed: %s\n", e.what());
    }
    r.wall2.push_back(n / since(f0));
    check_fleet(leg.rooms, fleet, c);
    last_round = since(r0);
    std::fprintf(stderr,
                 "round %zu at %.1f s: slowdown %.3f; rooms/s 1-worker %.4g "
                 "(wall %.4g), %zu-worker wall %.4g\n",
                 r.rate1.size(), since(t0), r.sigma1.back(), r.rate1.back(),
                 r.wall1.back(), kFleetWorkers, r.wall2.back());
  } while (r.rate1.size() < kMinRounds ||
           since(t0) + 0.5 * last_round <= seconds);
  return r;
}

/// The 2-worker rate at nominal host speed: the fleet legs' wall rate scaled
/// by the run's slowdown. run_fleet owns its workers, so no reference pass
/// can be paired with their rooms. The workers' speed from one leg to the
/// next followed no reference sample closely (correlation 0.4 at best): not
/// the round's 1-worker slowdown, not passes on two threads just before and
/// after the leg, not passes on a third thread during it. What does carry
/// over is the host's drift over minutes, which the run's slowdown follows.
double fleet_rate(const Rounds& r) {
  return perfbench::iq_mean(r.wall2) * perfbench::iq_mean(r.sigma1);
}

/// The sample-support and class-boundary rules for every reported
/// percentile of a workload, over its fixed room set. A workload that
/// breaks them is a configuration error, refused before any timing.
bool percentiles_admissible(const Workload& w, const scn::Scenario& s) {
  const std::size_t modulus = std::max<std::uint32_t>(1, s.strategy.class_modulus);
  const std::vector<std::size_t> sample = sample_rooms(w);
  std::vector<std::size_t> count(modulus, 0);
  for (std::size_t k : sample) ++count[k % modulus];
  std::vector<std::size_t> order(modulus);
  for (std::size_t c = 0; c < modulus; ++c) order[c] = c;
  if (s.strategy.class_cost.size() == modulus) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return s.strategy.class_cost[a] < s.strategy.class_cost[b];
    });
  }
  std::vector<std::size_t> sizes;
  for (std::size_t c : order) sizes.push_back(count[c]);
  bool ok = true;
  for (double q : {0.5, w.tail_q}) {
    if (!perfbench::percentile_supported(sample.size(), q)) {
      std::fprintf(stderr, "%s: %s has fewer than 10 samples beyond it\n",
                   w.name, pct_label(q).c_str());
      ok = false;
    }
    if (!perfbench::clear_of_class_boundaries(
            sizes, q, perfbench::class_margin(sample.size()))) {
      std::fprintf(stderr, "%s: %s falls on a shard-class boundary\n", w.name,
                   pct_label(q).c_str());
      ok = false;
    }
  }
  return ok;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Json metric(double value, const char* unit) {
  Json m;
  m.num("value", value).str("unit", unit);
  return m;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The pinned outcome digest is checked on the default seed; on any other
/// seed there is no pin, and the equality checks carry the run alone.
void check_digest(const Workload& w, std::uint64_t seed, std::uint64_t digest,
                  Checks* c) {
  std::printf("outcome_digest %s seed %llu: %s\n", w.name,
              static_cast<unsigned long long>(seed), hex(digest).c_str());
  if (seed == kDefaultSeed && digest != w.digest) {
    std::fprintf(stderr, "pinned digest %s\n", hex(w.digest).c_str());
    c->fail("outcome digest differs from the pinned value");
  }
}

// --- --trace 0: end-to-end ---------------------------------------------------

Json end_to_end(const Workload& w, const scn::Scenario& s,
                const std::string& source, std::uint64_t seed, double seconds,
                Checks* c) {
  // Set-up: one ~50 us sample is noise, and the host's speed drifts over
  // seconds, so compile + decode is sampled throughout the run: before each
  // room of every 1-worker leg, for about 1% of the previous room's time,
  // right after that room's reference sample. The first compile of each
  // slot only refills the caches the reference just evicted, so it is not
  // kept.
  std::vector<double> setup;
  std::vector<std::uint8_t> first_blob;
  auto sample_setup = [&](double last_room_sec, double sigma) {
    double spent = 0;
    for (int i = 0; i < 2 || spent < 0.01 * last_room_sec; ++i) {
      std::vector<std::uint8_t> blob;
      SetupSample t;
      setup_once(source, w.file, &blob, &t, nullptr);
      if (i > 0) setup.push_back(t.total() / sigma);
      spent += t.total();
      if (first_blob.empty()) first_blob = blob;
      if (blob != first_blob) c->fail("compile is not byte-deterministic");
    }
  };

  const Rounds r = run_rounds(w, s, seed, seconds, sample_setup, c);
  check_digest(w, seed, outcome_digest(r.first), c);

  std::vector<double> per_room;  // each sampled room's time over rounds
  for (std::size_t k : sample_rooms(w)) {
    per_room.push_back(perfbench::iq_mean(r.room_ms[k]));
  }
  std::printf("%s: %zu rooms x %zu rounds; room_ms_p50 and room_ms_tail (%s) "
              "over %zu rooms, %zu and %zu beyond\n",
              w.name, w.rooms, r.rate1.size(), pct_label(w.tail_q).c_str(),
              per_room.size(), perfbench::samples_beyond(per_room.size(), 0.5),
              perfbench::samples_beyond(per_room.size(), w.tail_q));

  Json m;
  m.obj("rooms_per_s", metric(perfbench::iq_mean(r.rate1), "1/s"));
  m.obj("fleet_rooms_per_s", metric(fleet_rate(r), "1/s"));
  m.obj("room_ms_p50", metric(perfbench::percentile(per_room, 0.5), "ms"));
  m.obj("room_ms_tail", metric(perfbench::percentile(per_room, w.tail_q), "ms"));
  m.obj("setup_s", metric(perfbench::iq_mean(setup), "s"));
  m.obj("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  return m;
}

// --- --trace 1: per-layer ledger ---------------------------------------------

Json per_layer(const Workload& w, const scn::Scenario& s,
               const std::string& source, std::uint64_t seed, double seconds,
               Spans* rec, Checks* c) {
  // Compile stages, each round after a reference sample.
  std::vector<double> parse, passes, encode, decode;
  std::vector<std::uint8_t> blob;
  for (int i = 0; i < kSetupRounds; ++i) {
    const double sigma = host_slowdown(0);
    SetupSample t;
    setup_once(source, w.file, &blob, &t, rec);
    parse.push_back(t.parse / sigma * 1e6);
    passes.push_back(t.passes / sigma * 1e6);
    encode.push_back(t.encode / sigma * 1e6);
    decode.push_back(t.decode / sigma * 1e6);
  }

  // Untraced rounds: the base of trace.overhead, fleet.efficiency and
  // sim.ns_per_event; the first leg gives the exact per-room counts. Then
  // one traced leg.
  const Rounds r =
      run_rounds(w, s, seed, seconds, [](double, double) {}, c);
  const Leg traced = run_leg(s, w.rooms, seed, true, rec);
  check_leg(traced.rooms, r.first, c);
  check_digest(w, seed, outcome_digest(r.first), c);

  const double n = static_cast<double>(w.rooms);
  std::vector<double> build_us;
  for (const auto& v : r.build_us) build_us.push_back(perfbench::iq_mean(v));
  std::uint64_t build_allocs = 0, run_allocs = 0, events = 0, absorbed = 0;
  std::uint64_t arena_peak = 0, pings = 0, goals = 0;
  for (const RoomResult& room : r.first) {
    build_allocs += room.build_allocs;
    run_allocs += room.run_allocs;
    events += room.events;
    absorbed += room.absorbed;
    arena_peak = std::max(arena_peak, room.arena_peak_bytes);
    pings += room.pings;
    goals += room.outcome.success ? 1 : 0;
  }
  const double plain_run_sec = perfbench::iq_mean(r.run_sec);
  double traced_run_sec = 0;
  std::array<sim::KernelProfiler::CategoryStats, sim::kEventCategoryCount> total{};
  std::uint64_t profiled_events = 0, profiled_absorbed = 0;
  double category_sec = 0;
  for (std::size_t k = 0; k < w.rooms; ++k) {
    const RoomResult& room = traced.rooms[k];
    const double sigma = traced.sigma[k];
    traced_run_sec += room.run_sec / sigma;
    for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
      const auto& st = room.profile.stats(static_cast<sim::EventCategory>(i));
      total[i].executed += st.executed;
      total[i].absorbed += st.absorbed;
      total[i].wall_sec += st.wall_sec / sigma;
      profiled_events += st.executed;
      profiled_absorbed += st.absorbed;
      category_sec += st.wall_sec / sigma;
    }
  }
  if (profiled_events != events || profiled_absorbed != absorbed) {
    c->fail("profiled events do not add up to the rooms' event counts");
  }

  Json m;
  m.obj("scn.parse_us", metric(perfbench::median(parse), "us"));
  m.obj("scn.passes_us", metric(perfbench::median(passes), "us"));
  m.obj("scn.encode_us", metric(perfbench::median(encode), "us"));
  m.obj("scn.decode_us", metric(perfbench::median(decode), "us"));
  m.obj("scn.blob_bytes", metric(static_cast<double>(blob.size()), "bytes"));
  m.obj("room.build_us_p50", metric(perfbench::median(build_us), "us"));
  m.obj("room.build_allocs", metric(build_allocs / n, "count"));
  m.obj("room.run_allocs", metric(run_allocs / n, "count"));
  m.obj("sim.arena.peak_kb", metric(arena_peak / 1024.0, "KiB"));
  m.obj("sim.events", metric(static_cast<double>(events), "count"));
  m.obj("sim.absorbed", metric(static_cast<double>(absorbed), "count"));
  m.obj("sim.ns_per_event",
        metric(events ? plain_run_sec * 1e9 / static_cast<double>(events) : 0,
               "ns"));
  m.obj("sim.kernel_self_ms",
        metric((traced_run_sec - category_sec) * 1e3 / n, "ms"));
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
    const auto cat = static_cast<sim::EventCategory>(i);
    const std::string layer(perfbench::layer_of(cat));
    const auto& st = total[i];
    m.obj(layer + ".events", metric(static_cast<double>(st.executed), "count"));
    m.obj(layer + ".absorbed", metric(static_cast<double>(st.absorbed), "count"));
    m.obj(layer + ".self_ms", metric(st.wall_sec * 1e3 / n, "ms"));
  }
  const double mac = static_cast<double>(
      total[static_cast<std::size_t>(sim::EventCategory::kMac)].executed);
  m.obj("phys.mac.events_per_ping",
        metric(pings ? mac / static_cast<double>(pings) : 0, "ratio"));
  m.obj("user.goal_success_ratio", metric(goals / n, "ratio"));
  m.obj("fleet.efficiency",
        metric(fleet_rate(r) / (kFleetWorkers * perfbench::iq_mean(r.rate1)),
               "ratio"));
  m.obj("trace.overhead", metric(traced_run_sec / plain_run_sec, "ratio"));
  m.obj("host.slowdown", metric(perfbench::iq_mean(r.sigma1), "ratio"));
  m.obj("wall.rooms_per_s", metric(perfbench::iq_mean(r.wall1), "1/s"));
  m.obj("wall.fleet_rooms_per_s", metric(perfbench::iq_mean(r.wall2), "1/s"));
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: room_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scn-dir <dir> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scn_dir, out_dir = ".";
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (arg("--workload")) workload = argv[++i];
    else if (arg("--seed")) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg("--seconds")) seconds = std::strtod(argv[++i], nullptr);
    else if (arg("--trace")) trace = std::atoi(argv[++i]);
    else if (arg("--scn-dir")) scn_dir = argv[++i];
    else if (arg("--out-dir")) out_dir = argv[++i];
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& x : workloads()) {
    if (workload == x.name) w = &x;
  }
  if (w == nullptr || scn_dir.empty() || (trace != 0 && trace != 1)) {
    return usage();
  }

  if (!perfbench::unmapped_categories().empty()) {
    std::fprintf(stderr, "a kernel event category has no LPC layer\n");
    return 3;
  }
  std::vector<std::string> flags;
  const Json host = host_descriptor(&flags);
  std::printf("host %s\n", host.dump().c_str());
  for (const std::string& f : flags) {
    std::fprintf(stderr, "WARNING: %s — timings are not representative\n",
                 f.c_str());
  }

  const std::string path = scn_dir + "/" + w->file;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 3;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string source = text.str();

  scn::Scenario s;
  try {
    std::vector<std::uint8_t> blob;
    SetupSample t;
    s = setup_once(source, w->file, &blob, &t, nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s does not compile: %s\n", path.c_str(), e.what());
    return 3;
  }
  if (!percentiles_admissible(*w, s)) return 3;

  Checks checks;
  Json metrics;
  Spans rec;
  if (trace == 0) {
    metrics = end_to_end(*w, s, source, seed, seconds, &checks);
  } else {
    metrics = per_layer(*w, s, source, seed, seconds, &rec, &checks);
    const std::string trace_path = out_dir + "/trace-" + w->name + "-seed" +
                                   std::to_string(seed) + ".json";
    if (obs::write_chrome_trace(rec.tracer(), trace_path)) {
      std::printf("spans: %zu written to %s\n", rec.tracer().records().size(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  Json result;
  result.boolean("correct", checks.consistent && checks.failed == 0)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .obj("metrics", metrics);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
