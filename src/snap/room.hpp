// snap::Room — the checkpointable Smart Projector room.
//
// This is the fleet's unit of work (bench/fleet_bench.cpp's run_room) grown
// into a durable object: the same heterogeneous shard — CSMA radios under
// contention, Jini discovery, both sessioned projector services, a live RFB
// stream, and a presenter running the documented procedure — but with every
// stateful core registered in a SnapshotRegistry so the whole world can be
// checkpointed at a quiescent instant and restored bit-exactly later, on a
// different worker, under a different worker count.
//
// The restore contract is structural-rebuild + logical-overwrite:
//   1. construct a Room with the same (shard_id, seed),
//   2. warmup() — replays the setup phase to the meeting start, rebuilding
//      every handler, binding, and stream connection the checkpointed run
//      had (this is what makes C++ closures serializable-by-proxy),
//   3. restore(blob, gap) — drops the warmup's pending events, overwrites
//      all logical state from the blob's sections, and re-arms the saved
//      pending events with their original (when, seq, id) identities.
// A zero gap resumes the captured run bit-for-bit (same fingerprint, same
// executed-event stream); a positive gap shifts every deadline uniformly
// (the lease-rebasing rule).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "app/projector.hpp"
#include "disco/jini.hpp"
#include "env/environment.hpp"
#include "net/stack.hpp"
#include "phys/device.hpp"
#include "rfb/workload.hpp"
#include "sim/world.hpp"
#include "snap/snapshot.hpp"
#include "user/agent.hpp"

namespace aroma::obs {
class Telemetry;
}  // namespace aroma::obs

namespace aroma::snap {

/// Section tags, in registration (= restore) order.
inline constexpr std::uint32_t kTagSim = tag4("SIM!");
inline constexpr std::uint32_t kTagRoom = tag4("ROOM");
inline constexpr std::uint32_t kTagMedium = tag4("MEDM");
inline constexpr std::uint32_t kTagPhys = tag4("PHYS");
inline constexpr std::uint32_t kTagNet = tag4("NETS");
inline constexpr std::uint32_t kTagStream = tag4("STRM");
inline constexpr std::uint32_t kTagDisco = tag4("DISC");
inline constexpr std::uint32_t kTagSession = tag4("SESS");
inline constexpr std::uint32_t kTagRfb = tag4("RFBC");
inline constexpr std::uint32_t kTagPixels = tag4("PIXL");
inline constexpr std::uint32_t kTagUser = tag4("USER");
inline constexpr std::uint32_t kTagMetrics = tag4("OBSM");
inline constexpr std::uint32_t kTagSpans = tag4("OBSS");

struct RoomOptions {
  bool use_arena = true;
  /// Attach a MetricsRegistry + SpanTracer to the world (checkpointed into
  /// the optional OBSM/OBSS sections).
  bool telemetry = false;
};

class Room {
 public:
  Room(std::size_t shard_id, std::uint64_t seed, RoomOptions options = {});
  ~Room();
  Room(const Room&) = delete;
  Room& operator=(const Room&) = delete;

  /// Replays the setup phase: component construction in fleet_bench's exact
  /// order, service export, the presenter's four-step procedure, then the
  /// meeting timers (slide flips + contention pingers). Leaves the clock at
  /// the first quiescent instant at or after the meeting start
  /// (setup_time()) — the structural settle point; every checkpoint is
  /// taken at a quiescent instant no earlier than this, so all structure a
  /// blob references exists after warmup. Must be called exactly once,
  /// before run_until/checkpoint/restore.
  void warmup();

  void run_until(sim::Time t);
  sim::Time now() const;

  /// The meeting start (end of the setup phase): 45 s, matching
  /// bench/fleet_bench.cpp.
  static sim::Time setup_time() { return sim::Time::sec(45.0); }
  /// Meeting end for this shard (heterogeneous: longer with more extras).
  sim::Time horizon() const;
  /// Horizon plus the drain tail; running to here reproduces run_room.
  sim::Time end_time() const;

  /// Runs the meeting to its horizon, stops the meeting timers, and drains
  /// the 2 s tail — the exact shutdown sequence of fleet_bench's run_room,
  /// so fingerprints are comparable whether or not a restore happened
  /// in between.
  void finish();

  std::size_t shard_id() const { return shard_id_; }
  std::uint64_t seed() const { return seed_; }

  SnapshotRegistry& registry() { return registry_; }
  sim::World& world() { return *world_; }
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  /// The room's radio environment (fault injection targets the medium).
  env::Environment& environment() { return *env_; }

  /// True when every registered core is at a quiescent point (no in-flight
  /// frames, no RTO pending, no encode in progress, no exchange awaiting a
  /// reply, no procedure attempt mid-step).
  bool quiescent(std::string* why = nullptr) const {
    return registry_.quiescent(why);
  }

  /// Serializes the full checkpoint blob at the current instant. Throws
  /// SnapError when not quiescent — use snap::CheckpointManager to defer to
  /// a quiescent point deterministically.
  std::vector<std::uint8_t> checkpoint();

  /// Overwrites this (warmed-up) room's state from a full checkpoint blob,
  /// resuming at capture-instant + gap. Throws SnapError on any structural
  /// problem (and counts it in snap.restore_errors when telemetry is on);
  /// the room must be considered poisoned after a failed restore.
  void restore(std::span<const std::uint8_t> blob, sim::Time gap);

  /// The run's behavioral digest (sim::room_fingerprint, the fold
  /// bench/fleet_bench.cpp's run_room also uses), so fleet-level
  /// fingerprints from checkpointed rooms compare directly against
  /// uninterrupted ones.
  std::uint64_t fingerprint() const;

  /// Restores performed on this room (diagnostics).
  std::uint64_t restores() const { return restores_; }

 private:
  void register_sections();

  std::size_t shard_id_;
  std::uint64_t seed_;
  RoomOptions options_;
  // world_ before telemetry_: Telemetry detaches from the world in its
  // destructor, so it must be torn down while the world is still alive
  // (members destroy in reverse declaration order).
  std::unique_ptr<sim::World> world_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<env::Environment> env_;

  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
  std::size_t reg_ = 0, adapter_ = 0, laptop_ = 0;
  std::vector<std::size_t> extra_nodes_;
  std::uint64_t pings_ = 0;

  std::unique_ptr<disco::JiniRegistrar> registrar_;
  std::unique_ptr<app::SmartProjector> projector_;
  std::unique_ptr<disco::JiniClient> adapter_jini_;
  std::unique_ptr<disco::JiniClient> laptop_jini_;
  std::unique_ptr<app::PresenterDisplay> display_;
  std::unique_ptr<app::ProjectorClient> proj_client_;
  std::unique_ptr<rfb::SlideDeckWorkload> deck_;
  std::unique_ptr<user::UserAgent> presenter_;
  user::TaskOutcome outcome_;

  std::vector<std::unique_ptr<sim::PeriodicTimer>> pingers_;
  std::unique_ptr<sim::PeriodicTimer> slides_;

  SnapshotRegistry registry_;
  bool warmed_up_ = false;
  std::uint64_t restores_ = 0;
};

}  // namespace aroma::snap
