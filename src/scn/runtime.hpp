// Scenario runtime: instantiates and drives a world from compiled IR.
//
// The canonical construction program generalizes bench/fleet_bench.cpp's
// run_room — and for the smart_projector scenario it reproduces it EXACTLY.
// That is a load-bearing contract: sim::Rng::fork mutates the parent RNG,
// so the sequence of component constructions during setup determines every
// downstream random draw. The program, in order:
//
//   1. World(seed), arena mode, train batching per the blob's strategy.
//   2. Environment with path_loss.seed = seed.
//   3. Devices in entity declaration order (groups expand member-major);
//      node ids are assigned 1, 2, 3, ... as devices are constructed.
//   4. Ping sinks: port 7777 bound on each distinct ping destination, in
//      traffic declaration order (bound even when a source group is empty
//      for this shard — run_room binds its hub unconditionally).
//   5. Registrars, then projectors (each SmartProjector followed by its
//      export-side JiniClient), then one JiniClient per goal actor, then
//      displays (each PresenterDisplay plus its SlideDeckWorkload — the
//      workload ctor is world-free, so it costs no RNG draws), then
//      service export. run_until(settle).
//   6. Per goal, in declaration order: the goal's ProjectorClient (present
//      only) and UserAgent, then the procedure attempt. The present
//      procedure is the documented four-step Smart Projector sequence with
//      run_room's exact difficulties. run_until(meeting).
//   7. Traffic, in declaration order: train-lowered ping traffic arms a
//      pre-scheduling generator (each tick parks every member's send at
//      one timestamp — the kernel's train batching absorbs the burst);
//      everything else arms per-member PeriodicTimers. run_until(horizon).
//   8. Traffic stops in REVERSE declaration order (run_room: slides, then
//      pingers), then the drain tail runs to horizon + drain.
//
// fingerprint() is sim::room_fingerprint, the digest run_room and
// snap::Room::fingerprint also fold, so compiled-vs-handwritten equality is
// bit-testable at the fleet level.
#pragma once

#include <cstdint>
#include <memory>
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
#include "user/agent.hpp"

namespace aroma::scn {

struct RunOptions {
  bool use_arena = true;
};

class ScenarioInstance {
 public:
  /// Builds the world and runs the setup phase construction (step 1-4
  /// above). The scenario must outlive the instance.
  ScenarioInstance(const Scenario& scenario, std::size_t shard_id,
                   std::uint64_t seed, RunOptions options = {});
  ~ScenarioInstance();
  ScenarioInstance(const ScenarioInstance&) = delete;
  ScenarioInstance& operator=(const ScenarioInstance&) = delete;

  /// Executes the full timeline (steps 5-8). Call exactly once.
  void run();

  /// run_room's behavioral digest: seed, executed events, medium stats,
  /// pings, registrations, the first goal's outcome, viewer updates.
  std::uint64_t fingerprint() const;
  /// The same digest without the executed event count.
  std::uint64_t outcome_fingerprint() const;

  std::uint64_t events() const;
  std::uint64_t absorbed() const;
  std::uint64_t pings() const;
  /// Outcome of the first goal ({} when the scenario declares none).
  const user::TaskOutcome& outcome() const { return first_outcome_; }
  sim::World& world() { return *world_; }

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
  void build_devices();
  void bind_ping_sinks();
  void build_services();
  void start_goals();
  void start_traffic();
  void stop_traffic();
  void arm_train(std::size_t traffic_index, sim::Time when, sim::Time period);
  void send_ping(std::size_t traffic_index, std::size_t member);
  net::NetStack& stack_of(int entity, std::size_t member = 0);
  std::size_t member_count(int entity) const;
  DisplayRuntime* display_on(int entity);

  const Scenario& scn_;
  std::size_t shard_id_;
  std::uint64_t seed_;
  RunOptions options_;

  std::unique_ptr<sim::World> world_;
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
  user::TaskOutcome first_outcome_;
  bool ran_ = false;
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
