// Fleet engine: many independent worlds over a work-stealing worker pool.
//
// The LPC model describes buildings full of rooms, each a self-contained
// pervasive-computing cell. A fleet run executes N such worlds ("shards"),
// each a full Environment -> Intentional stack driven by its own Simulator,
// across a pool of workers. Three properties hold by construction:
//
//  * Deterministic sharding. Shard k's world is seeded from
//    shard_seed(seed, k) — a counter-based splitmix64 stream — so every
//    shard's behavior is a pure function of (seed, k), independent of the
//    worker count, scheduling order, or steal pattern. Results are returned
//    in shard order; folding per-shard fingerprints in that order yields a
//    fleet fingerprint that is bit-identical for any worker count.
//
//  * Work stealing. Shards are heterogeneous (small rooms finish early,
//    large ones straggle). Each worker owns a deque seeded round-robin;
//    owners pop from the front, and an idle worker steals the back half of
//    a victim's deque. Static fan-out's tail latency collapses to the
//    longest single shard.
//
//  * Shared-nothing execution. Each shard owns its Simulator, RNG, arena,
//    and (optionally) telemetry sinks. Workers synchronize only on the
//    deques; merging per-shard telemetry happens after the run, in shard
//    order (see obs::MetricsRegistry::merge / SpanTracer::append_shard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace aroma::sim {

/// Seed for shard `shard_id` of a fleet run seeded with `seed`. A
/// counter-based stream: any shard's seed is computable directly (no
/// sequential dependence), and distinct (seed, shard) pairs decorrelate
/// through two splitmix64 rounds.
std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard_id);

/// Folds per-shard fingerprints, in shard order, into one fleet
/// fingerprint. Deterministic for any worker count because the input order
/// is shard order, never completion order.
std::uint64_t fleet_fingerprint(const std::vector<std::uint64_t>& shard_fps);

/// What a full-stack room did, as its fingerprint folds it: the medium's
/// counters, pings, registrations, the first goal's outcome and the
/// viewer's updates. scn::ScenarioInstance fills it; the recorded Smart
/// Projector goldens (bench/golden.hpp) are folds of it.
struct RoomOutcome {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries_attempted = 0;
  std::uint64_t deliveries_decodable = 0;
  std::uint64_t losses_sinr = 0;
  std::uint64_t losses_half_duplex = 0;
  std::uint64_t pings = 0;
  std::uint64_t registered = 0;
  bool success = false;
  std::uint64_t steps_completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t viewer_updates = 0;
};

/// A room's behavioural digest: the seed, the executed event count, then
/// every RoomOutcome field in declaration order.
std::uint64_t room_fingerprint(std::uint64_t seed, std::uint64_t executed,
                               const RoomOutcome& outcome);

/// The same fold without the event count: it moves only when what the
/// room did moves, not when the kernel runs fewer events to do it.
std::uint64_t room_outcome_fingerprint(std::uint64_t seed,
                                       const RoomOutcome& outcome);

/// Work-stealing execution of a fixed batch of indexed tasks.
///
/// run() distributes indices [0, count) round-robin over per-worker deques
/// and blocks until every index has executed (or an exception aborts the
/// batch: no further tasks start, in-flight tasks finish, and the first
/// exception by completion order is rethrown on the caller's thread).
class WorkStealingPool {
 public:
  struct Stats {
    std::uint64_t steals = 0;  // successful steal operations (not tasks)
    std::uint64_t stolen_tasks = 0;  // tasks that migrated via a steal
    std::vector<std::uint64_t> tasks_run_per_worker;  // size == spawned
  };

  /// Runs fn(index, worker) for every index in [0, count). `workers` is
  /// clamped to `count` — a 2-task batch never spins up 8 threads; 0 means
  /// hardware_concurrency. Single-worker batches run inline on the caller
  /// (worker == 0).
  static Stats run(std::size_t workers, std::size_t count,
                   const std::function<void(std::size_t index,
                                            std::size_t worker)>& fn);

  static std::size_t hardware_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
  }
};

/// Context handed to each shard task.
struct ShardContext {
  std::size_t shard_id = 0;
  std::uint64_t seed = 0;    // == shard_seed(fleet seed, shard_id)
  std::size_t worker = 0;    // executing worker (informational only)
};

/// Runs `shards` shard tasks over a work-stealing pool and returns their
/// results in shard order. `Result` must be default-constructible and
/// movable; the task must derive all behavior from ctx.seed for the fleet
/// to be deterministic across worker counts.
class FleetEngine {
 public:
  explicit FleetEngine(std::size_t workers = 0)
      : workers_(workers ? workers : WorkStealingPool::hardware_workers()) {}

  std::size_t workers() const { return workers_; }

  template <typename Result>
  std::vector<Result> run(std::size_t shards, std::uint64_t seed,
                          const std::function<Result(const ShardContext&)>&
                              fn) {
    std::vector<Result> out(shards);
    last_stats_ = WorkStealingPool::run(
        workers_, shards, [&](std::size_t i, std::size_t worker) {
          ShardContext ctx;
          ctx.shard_id = i;
          ctx.seed = shard_seed(seed, i);
          ctx.worker = worker;
          out[i] = fn(ctx);
        });
    return out;
  }

  /// Scheduling stats of the most recent run().
  const WorkStealingPool::Stats& last_stats() const { return last_stats_; }

 private:
  std::size_t workers_;
  WorkStealingPool::Stats last_stats_;
};

}  // namespace aroma::sim
