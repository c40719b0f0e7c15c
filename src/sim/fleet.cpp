#include "sim/fleet.hpp"

#include <atomic>
#include <deque>
#include <exception>
#include <mutex>

#include "sim/random.hpp"

namespace aroma::sim {

std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard_id) {
  // Two splitmix64 rounds over a keyed counter. The first round spreads the
  // shard counter across the word; the second decorrelates nearby fleet
  // seeds. Purely functional: shard k's seed never depends on shards < k.
  std::uint64_t s = seed ^ (shard_id * 0x9e3779b97f4a7c15ULL);
  splitmix64(s);
  std::uint64_t derived = splitmix64(s);
  // Seed 0 would collapse xoshiro's splitmix seeding only if derived == 0;
  // nudge that single point off zero.
  return derived ? derived : 0x2545f4914f6cdd1dULL;
}

std::uint64_t fleet_fingerprint(const std::vector<std::uint64_t>& shard_fps) {
  std::uint64_t fp = 0x66c6cf59c06ee4bdULL;  // nonzero fold base
  for (const std::uint64_t shard_fp : shard_fps) fp = mix_hash(fp, shard_fp);
  return fp;
}

namespace {

std::uint64_t fold_outcome(std::uint64_t fp, const RoomOutcome& o) {
  fp = mix_hash(fp, o.transmissions);
  fp = mix_hash(fp, o.deliveries_attempted);
  fp = mix_hash(fp, o.deliveries_decodable);
  fp = mix_hash(fp, o.losses_sinr);
  fp = mix_hash(fp, o.losses_half_duplex);
  fp = mix_hash(fp, o.pings);
  fp = mix_hash(fp, o.registered);
  fp = mix_hash(fp, o.success ? 1 : 0);
  fp = mix_hash(fp, o.steps_completed);
  fp = mix_hash(fp, o.errors);
  fp = mix_hash(fp, o.viewer_updates);
  return fp;
}

}  // namespace

std::uint64_t room_fingerprint(std::uint64_t seed, std::uint64_t executed,
                               const RoomOutcome& outcome) {
  return fold_outcome(mix_hash(seed, executed), outcome);
}

std::uint64_t room_outcome_fingerprint(std::uint64_t seed,
                                       const RoomOutcome& outcome) {
  return fold_outcome(seed, outcome);
}

namespace {

/// One worker's deque. Owner pops from the front; thieves take the back
/// half. A plain mutex per deque keeps the invariants obvious (and TSan
/// quiet); the lock is touched once per task, which is noise next to a
/// shard's millions of events.
struct WorkerQueue {
  std::mutex m;
  std::deque<std::size_t> q;
};

}  // namespace

WorkStealingPool::Stats WorkStealingPool::run(
    std::size_t workers, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  Stats stats;
  if (count == 0) return stats;
  if (workers == 0) workers = hardware_workers();
  if (workers > count) workers = count;  // never spin up idle threads
  stats.tasks_run_per_worker.assign(workers, 0);

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    stats.tasks_run_per_worker[0] = count;
    return stats;
  }

  std::vector<WorkerQueue> queues(workers);
  for (std::size_t i = 0; i < count; ++i) {
    queues[i % workers].q.push_back(i);  // round-robin initial placement
  }

  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> stolen_tasks{0};
  std::atomic<std::size_t> remaining{count};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::uint64_t> ran(workers, 0);

  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        std::vector<std::size_t> loot;  // scratch for steal-half transfers
        while (remaining.load(std::memory_order_acquire) > 0 &&
               !abort.load(std::memory_order_acquire)) {
          std::size_t task = count;  // sentinel: nothing claimed
          {
            const std::lock_guard<std::mutex> lock(queues[w].m);
            if (!queues[w].q.empty()) {
              task = queues[w].q.front();
              queues[w].q.pop_front();
            }
          }
          if (task == count) {
            // Steal: scan victims starting after us; take the back half.
            for (std::size_t k = 1; k < workers && task == count; ++k) {
              WorkerQueue& victim = queues[(w + k) % workers];
              const std::lock_guard<std::mutex> lock(victim.m);
              const std::size_t n = victim.q.size();
              if (n == 0) continue;
              const std::size_t take = (n + 1) / 2;
              loot.clear();
              for (std::size_t t = 0; t < take; ++t) {
                loot.push_back(victim.q.back());
                victim.q.pop_back();
              }
              task = loot.back();
              loot.pop_back();
              if (!loot.empty()) {
                const std::lock_guard<std::mutex> own(queues[w].m);
                // Preserve ascending-index order in our deque: loot was
                // popped back-first, so reinsert reversed.
                for (std::size_t t = loot.size(); t > 0; --t) {
                  queues[w].q.push_back(loot[t - 1]);
                }
              }
              steals.fetch_add(1, std::memory_order_relaxed);
              stolen_tasks.fetch_add(take, std::memory_order_relaxed);
            }
            if (task == count) {
              // Every deque we saw was empty; re-check the global count
              // (another worker may still be executing tasks that could
              // throw, but no queued work remains for us).
              if (remaining.load(std::memory_order_acquire) == 0) return;
              std::this_thread::yield();
              continue;
            }
          }
          try {
            fn(task, w);
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!first_error) first_error = std::current_exception();
            }
            abort.store(true, std::memory_order_release);
          }
          ++ran[w];
          remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
      });
    }
    // jthread joins on destruction.
  }

  stats.steals = steals.load();
  stats.stolen_tasks = stolen_tasks.load();
  stats.tasks_run_per_worker = std::move(ran);
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace aroma::sim
