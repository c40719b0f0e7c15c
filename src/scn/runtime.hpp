// Scenario runtime: instantiates and drives a world from compiled IR.
//
// The canonical construction program below is the one definition of a
// room: the Smart Projector room the paper walks through is
// scenarios/smart_projector.scn run through it, pinned by the recorded
// fingerprints in bench/golden.hpp. Construction order is a load-bearing
// contract: sim::Rng::fork mutates the parent RNG, so the sequence of
// component constructions during setup determines every downstream random
// draw. The program, in order:
//
//   1. World(seed), arena mode, train batching per the blob's strategy,
//      telemetry (when asked for).
//   2. Environment with path_loss.seed = seed.
//   3. Devices in entity declaration order (groups expand member-major);
//      node ids are assigned 1, 2, 3, ... as devices are constructed.
//   4. Ping sinks: port 7777 bound on each distinct ping destination, in
//      traffic declaration order (bound even when a source group is empty
//      for this shard).
//   5. Registrars, then projectors (each SmartProjector followed by its
//      export-side JiniClient), then one JiniClient per goal actor, then
//      displays (each PresenterDisplay plus its SlideDeckWorkload — the
//      workload ctor is world-free, so it costs no RNG draws), then
//      service export. run_until(settle).
//   6. Per goal, in declaration order: the goal's ProjectorClient (present
//      only) and UserAgent, then the procedure attempt. The present
//      procedure is the documented four-step Smart Projector sequence.
//      run_until(meeting).
//   7. Traffic, in declaration order: train-lowered ping traffic arms a
//      pre-scheduling generator (each tick parks every member's send at
//      one timestamp — the kernel's train batching absorbs the burst);
//      everything else arms per-member PeriodicTimers. run_until(horizon).
//   8. Traffic stops in REVERSE declaration order, then the drain tail
//      runs to horizon + drain.
//
// Steps 5-7 are the warmup, step 8 is finish(); run() is exactly the two.
//
// Checkpoint/restore is structural rebuild + logical overwrite:
//   1. construct an instance with the same (scenario, shard_id, seed),
//   2. warmup() — replays steps 5-7, rebuilding every handler, binding and
//      stream connection the checkpointed run had (this is what makes C++
//      closures serializable-by-proxy), registers the checkpoint sections,
//      and steps to the structural settle point (see warmup()),
//   3. restore(blob, gap) — drops the warmup's pending events, overwrites
//      all logical state from the blob's sections, and re-arms the saved
//      pending events with their original (when, seq, id) identities.
// A zero gap resumes the captured run bit-for-bit (same fingerprint, same
// executed-event stream); a positive gap shifts every deadline uniformly
// (the lease-rebasing rule). Plain run() registers nothing and schedules
// nothing beyond the eight steps.
//
// fingerprint() is sim::room_fingerprint, so a room's digest compares
// directly whether or not it was checkpointed, migrated or restored.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/projector.hpp"
#include "disco/jini.hpp"
#include "env/environment.hpp"
#include "net/stack.hpp"
#include "phys/device.hpp"
#include "rfb/workload.hpp"
#include "scn/ast.hpp"
#include "sim/fleet.hpp"
#include "sim/world.hpp"
#include "snap/snapshot.hpp"
#include "user/agent.hpp"

namespace aroma::obs {
class Telemetry;
}  // namespace aroma::obs

namespace aroma::scn {

struct RunOptions {
  bool use_arena = true;
  /// Attach a MetricsRegistry + SpanTracer to the world (checkpointed into
  /// the optional OBSM/OBSS sections).
  bool telemetry = false;
};

class ScenarioInstance {
 public:
  /// Builds the world and runs the construction steps 1-4 above. The
  /// scenario must outlive the instance.
  ScenarioInstance(const Scenario& scenario, std::size_t shard_id,
                   std::uint64_t seed, RunOptions options = {});
  ~ScenarioInstance();
  ScenarioInstance(const ScenarioInstance&) = delete;
  ScenarioInstance& operator=(const ScenarioInstance&) = delete;

  /// Executes the full timeline (steps 5-8). Call exactly once, instead of
  /// warmup().
  void run();

  /// The checkpoint-capable setup phase: steps 5-7, then the checkpoint
  /// sections and quiescence predicates, then the structural settle to the
  /// first quiescent instant at or after meeting_start() at which every
  /// present procedure has completed — every checkpoint is taken at a
  /// quiescent instant no earlier than this, so all structure a blob
  /// references exists after warmup. Call exactly once, before
  /// run_until/checkpoint/restore/finish.
  void warmup();

  /// Step 8: runs to the horizon, stops traffic, drains. Fingerprints are
  /// comparable whether or not a restore happened in between.
  void finish();

  void run_until(sim::Time t);
  sim::Time now() const;

  /// The evaluated phase instants for this shard.
  sim::Time meeting_start() const { return meeting_; }
  sim::Time horizon() const { return horizon_; }
  /// Horizon plus the drain tail: where run() and finish() stop.
  sim::Time end_time() const { return horizon_ + drain_; }

  /// Serializes the full checkpoint blob at the current instant. Throws
  /// snap::SnapError before warmup() or when not quiescent — use
  /// snap::CheckpointManager to defer to a quiescent point
  /// deterministically.
  std::vector<std::uint8_t> checkpoint();

  /// Overwrites this (warmed-up) instance's state from a full checkpoint
  /// blob, resuming at capture-instant + gap. Throws snap::SnapError on any
  /// structural problem (and counts it in snap.restore_errors when
  /// telemetry is on). A blob that fails validation is rejected before
  /// anything is touched; after a failure past that point the instance
  /// must be considered poisoned.
  void restore(std::span<const std::uint8_t> blob, sim::Time gap);

  /// Restores performed on this instance (diagnostics).
  std::uint64_t restores() const { return restores_; }

  /// The checkpoint sections and quiescence predicates; empty until
  /// warmup().
  snap::SnapshotRegistry& registry() { return registry_; }

  /// The room's behavioral digest: seed, executed events, medium stats,
  /// pings, registrations, the first goal's outcome, viewer updates.
  std::uint64_t fingerprint() const;
  /// The same digest without the executed event count.
  std::uint64_t outcome_fingerprint() const;

  std::uint64_t events() const;
  std::uint64_t absorbed() const;
  std::uint64_t pings() const;
  /// Outcome of the first goal ({} when the scenario declares none).
  const user::TaskOutcome& outcome() const;
  sim::World& world() { return *world_; }
  /// Null unless RunOptions::telemetry.
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  /// The room's radio environment (fault injection targets the medium).
  env::Environment& environment() { return *env_; }

 private:
  struct ProjectorRuntime {
    std::unique_ptr<app::SmartProjector> projector;
    std::unique_ptr<disco::JiniClient> jini;  // export side
  };
  struct DisplayRuntime {
    int entity = -1;
    std::unique_ptr<app::PresenterDisplay> display;
    std::unique_ptr<rfb::SlideDeckWorkload> deck;
  };
  struct GoalRuntime {
    std::unique_ptr<app::ProjectorClient> client;  // present goals only
    std::unique_ptr<user::UserAgent> agent;
    user::TaskOutcome outcome;
  };
  struct TrafficRuntime {
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
    sim::EventHandle train_next;  // pre-scheduling generator (trains only)
  };

  sim::RoomOutcome room_outcome() const;
  void start();
  void register_sections();
  template <typename Body>
  void add_section(std::uint32_t tag, const char* name, Body body,
                   std::uint32_t flags = 0);
  void build_devices();
  void bind_ping_sinks();
  void build_services();
  void start_goals();
  void start_traffic();
  void stop_traffic();
  void arm_train(std::size_t traffic_index, sim::Time when, sim::Time period);
  void train_tick(std::size_t traffic_index, sim::Time when, sim::Time period);
  void send_ping(std::size_t traffic_index, std::size_t member);
  net::NetStack& stack_of(int entity, std::size_t member = 0);
  std::size_t member_count(int entity) const;
  DisplayRuntime* display_on(int entity);

  const Scenario& scn_;
  std::size_t shard_id_;
  std::uint64_t seed_;
  RunOptions options_;
  sim::Time settle_, meeting_, horizon_, drain_;

  // world_ before telemetry_: Telemetry detaches from the world in its
  // destructor, so it must be torn down while the world is still alive
  // (members destroy in reverse declaration order).
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<env::Environment> env_;
  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
  /// Per entity: (first stack index, member count) for this shard.
  std::vector<std::pair<std::size_t, std::size_t>> entity_stacks_;

  std::uint64_t pings_ = 0;
  std::vector<std::unique_ptr<disco::JiniRegistrar>> registrars_;
  std::vector<ProjectorRuntime> projectors_;
  std::vector<std::unique_ptr<disco::JiniClient>> actor_jinis_;  // per goal
  std::vector<DisplayRuntime> displays_;
  std::vector<GoalRuntime> goals_;
  std::vector<TrafficRuntime> traffic_;

  snap::SnapshotRegistry registry_;
  bool started_ = false;
  bool warmed_up_ = false;
  std::uint64_t restores_ = 0;
};

/// Fleet-level execution of a compiled scenario: `shards` instances over a
/// work-stealing pool, seeded with sim::shard_seed(seed, k). When the blob
/// carries a strategy section, shards are launched heaviest-class-first
/// (the cost-model placement); results always fold in shard order, so the
/// fingerprint is independent of both the launch order and worker count.
struct FleetResult {
  std::vector<std::uint64_t> shard_fps;
  std::uint64_t fleet_fp = 0;
  std::uint64_t events = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t pings = 0;
  std::uint64_t goals_succeeded = 0;
};

FleetResult run_fleet(const Scenario& scenario, std::size_t shards,
                      std::uint64_t seed, std::size_t workers,
                      RunOptions options = {});

}  // namespace aroma::scn
