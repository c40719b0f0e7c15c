// SNAP — checkpoint/restore benchmark for durable worlds.
//
// The fleet engine (bench/fleet_bench.cpp) proves that shard k is a pure
// function of shard_seed(seed, k). This bench proves the stronger durable
// form: a shard can be checkpointed mid-meeting, its process thrown away,
// and a fresh process — running under a *different* worker count — can
// restore the blob and resume to a bit-identical fleet fingerprint. It
// reports:
//
//  * restore-then-resume equality per shard count on the Smart Projector
//    room (scenarios/smart_projector.scn): an uninterrupted reference
//    fleet, a checkpointed fleet (full checkpoint taken at t=50 s, then
//    resumed in-process), and a restored fleet (fresh rooms, warmup +
//    restore(blob) under a different worker count) must all land on the
//    same fleet fingerprint,
//  * the same restore-then-resume equality over every library scenario,
//    each shard checkpointed halfway through its own meeting phase,
//  * full-vs-incremental checkpoint sizes on the steady-state projector
//    workload at a sub-second cadence (the pixel section only churns on
//    slide flips, so incrementals must be at least --min-incr-ratio times
//    smaller than fulls), plus the materialize() chain check: overlaying
//    every incremental onto the base full must rebuild the byte-identical
//    full blob at the final instant,
//  * save/restore throughput (MB/s of blob serialized / deserialized).
//
// Output lands in BENCH_snap.json (schema documented in README.md and
// validated by scripts/check_bench_json.py). Exit status is nonzero when
// any fingerprint drifts, the incremental ratio misses the gate, or the
// incremental chain fails to materialize the full blob.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/world.hpp"
#include "snap/checkpoint.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace benchsup = aroma::benchsup;

namespace {

using aroma::scn::ScenarioInstance;
using aroma::sim::Time;
using benchsup::hex64;
using benchsup::parse_csv;
using benchsup::seconds_since;

// The Smart Projector sweep's capture target. Every shard's meeting runs
// at least 45..55 s, so 50 s is inside the steady state for all of them;
// the actual capture instant is the first quiescent point at or after it.
constexpr double kCheckpointAtSec = 50.0;
// Shards per scenario in the library leg (stadium rooms are the slow ones).
constexpr std::size_t kLibraryShards = 2;

/// Halfway through a shard's meeting phase: the library leg's capture
/// target, taken from each scenario's own phases.
Time mid_meeting(const ScenarioInstance& room) {
  return room.meeting_start() +
         Time::ns((room.horizon() - room.meeting_start()).count() / 2);
}

struct Legs {
  std::uint64_t reference_fp = 0;     // uninterrupted
  std::uint64_t checkpointed_fp = 0;  // checkpointed, resumed in-process
  std::uint64_t restored_fp = 0;      // fresh rooms restored from the blobs
  double reference_wall_s = 0.0;
  double restore_wall_s = 0.0;
  std::uint64_t blob_bytes_total = 0;
};

/// Restore-then-resume over a fleet of `shards` rooms: the reference pass
/// and the capture pass (full checkpoint at `capture_at`, then resumed
/// in-process) run under `capture_workers`; the restore pass (structural
/// rebuild, overwrite from the blobs, resume) under `restore_workers`.
Legs restore_then_resume(
    const aroma::scn::Scenario& s, std::size_t shards, std::uint64_t seed,
    std::size_t capture_workers, std::size_t restore_workers,
    const std::function<Time(const ScenarioInstance&)>& capture_at) {
  std::vector<std::uint64_t> ref(shards), cap(shards), res(shards);
  std::vector<std::vector<std::uint8_t>> blobs(shards);
  const auto pass = [&](std::size_t workers, auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    aroma::sim::WorkStealingPool::run(
        workers, shards, [&](std::size_t i, std::size_t) {
          ScenarioInstance room(s, i, aroma::sim::shard_seed(seed, i));
          body(i, room);
        });
    return seconds_since(t0);
  };
  Legs out;
  out.reference_wall_s = pass(capture_workers, [&](std::size_t i,
                                                   ScenarioInstance& room) {
    room.run();
    ref[i] = room.fingerprint();
  });
  pass(capture_workers, [&](std::size_t i, ScenarioInstance& room) {
    room.warmup();
    room.run_until(capture_at(room));
    aroma::snap::CheckpointManager cm(room.world(), room.registry());
    blobs[i] = cm.take_full().blob;
    room.finish();
    cap[i] = room.fingerprint();
  });
  out.restore_wall_s = pass(restore_workers, [&](std::size_t i,
                                                 ScenarioInstance& room) {
    room.warmup();
    room.restore(blobs[i], Time::sec(0.0));
    room.finish();
    res[i] = room.fingerprint();
  });
  out.reference_fp = aroma::sim::fleet_fingerprint(ref);
  out.checkpointed_fp = aroma::sim::fleet_fingerprint(cap);
  out.restored_fp = aroma::sim::fleet_fingerprint(res);
  for (const auto& b : blobs) out.blob_bytes_total += b.size();
  return out;
}

aroma::scn::Scenario compile_scenario(const std::string& name) {
  return aroma::scn::decode(aroma::scn::compile_file(
      std::string(AROMA_SCENARIO_DIR) + "/" + name + ".scn"));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> shard_counts = {1, 8, 64};
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_snap.json";
  double min_incr_ratio = 2.0;
  double cadence_s = 0.25;
  benchsup::Flags()
      .add("--shards", shard_counts)
      .add("--seed", seed)
      .add("--json", json_path)
      .add("--min-incr-ratio", min_incr_ratio)
      .add("--cadence", cadence_s)
      .parse(argc, argv,
             "usage: snap_bench [--shards n,n,...] [--seed n] "
             "[--json path] [--min-incr-ratio x] [--cadence s]");
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards list is empty\n");
    return 2;
  }

  const std::size_t hw = aroma::sim::WorkStealingPool::hardware_workers();
  // The restore fleet must run under a different worker count than the
  // capture fleet to prove worker-count independence survives a restore.
  const std::size_t capture_workers = hw;
  const std::size_t restore_workers = hw > 1 ? hw - 1 : 2;
  std::printf("== SNAP: %zu-core host, seed %llu, checkpoint at %.1f s ==\n",
              hw, static_cast<unsigned long long>(seed), kCheckpointAtSec);
  bool ok = true;

  const aroma::scn::Scenario projector = compile_scenario("smart_projector");

  // Gates one restore-then-resume leg (checkpointed and restored fleets
  // must both land on the reference), prints its table row, and returns
  // its JSON row.
  bool fingerprints_match = true;
  const auto record = [&](const Legs& l, const std::string& label,
                          std::size_t shards) {
    const bool cap_match = l.checkpointed_fp == l.reference_fp;
    const bool res_match = l.restored_fp == l.reference_fp;
    if (!(cap_match && res_match)) {
      std::fprintf(stderr,
                   "FAIL: %s: checkpointed %s, restored %s, reference %s\n",
                   label.c_str(), hex64(l.checkpointed_fp).c_str(),
                   hex64(l.restored_fp).c_str(),
                   hex64(l.reference_fp).c_str());
      fingerprints_match = false;
      ok = false;
    }
    const double blob_avg = static_cast<double>(l.blob_bytes_total) /
                            static_cast<double>(shards);
    benchsup::table_row(label, blob_avg / 1024.0,
                        std::string(cap_match ? "yes" : "NO"),
                        std::string(res_match ? "yes" : "NO"),
                        hex64(l.reference_fp));
    benchsup::Json row = benchsup::Json::object();
    row.set("shards", static_cast<std::uint64_t>(shards));
    row.set("blob_bytes_avg", blob_avg);
    row.set("reference_fingerprint", hex64(l.reference_fp));
    row.set("checkpointed_fingerprint", hex64(l.checkpointed_fp));
    row.set("restored_fingerprint", hex64(l.restored_fp));
    row.set("checkpoint_match", cap_match);
    row.set("restore_match", res_match);
    return row;
  };

  // --- Restore-then-resume equality sweep. --------------------------------
  benchsup::table_header("Restore-then-resume equality",
                         {"shards", "blob-KiB-avg", "ckpt-match",
                          "restore-match", "fingerprint"});
  benchsup::Json runs = benchsup::Json::array();
  for (const std::size_t shards : shard_counts) {
    const Legs l = restore_then_resume(
        projector, shards, seed, capture_workers, restore_workers,
        [](const ScenarioInstance&) { return Time::sec(kCheckpointAtSec); });
    benchsup::Json row = record(l, std::to_string(shards), shards);
    row.set("capture_workers", static_cast<std::uint64_t>(capture_workers));
    row.set("restore_workers", static_cast<std::uint64_t>(restore_workers));
    row.set("blob_bytes_total", l.blob_bytes_total);
    row.set("reference_wall_s", l.reference_wall_s);
    row.set("restore_wall_s", l.restore_wall_s);
    runs.push(std::move(row));
  }

  // --- Restore-then-resume over the scenario library. ---------------------
  // Every library scenario, each shard checkpointed halfway through its
  // own meeting phase.
  benchsup::table_header("Restore-then-resume over the library (" +
                             std::to_string(kLibraryShards) +
                             " shards, mid-meeting)",
                         {"scenario", "blob-KiB-avg", "ckpt-match",
                          "restore-match", "fingerprint"});
  benchsup::Json library = benchsup::Json::array();
  for (const char* name : {"smart_projector", "office_tower",
                           "conference_hall", "hospital_ward", "stadium",
                           "campus_mesh"}) {
    const Legs l =
        restore_then_resume(compile_scenario(name), kLibraryShards, seed,
                            capture_workers, restore_workers, mid_meeting);
    benchsup::Json row = record(l, name, kLibraryShards);
    row.set("scenario", std::string(name));
    library.push(std::move(row));
  }

  // --- Full vs incremental cadence. ---------------------------------------
  // One steady-state room, checkpointed every `cadence_s`. The control
  // sections (RFB client state, stream timers) churn every damage poll;
  // the pixel section only churns when a slide flips (every 4 s), so the
  // dirty-section delta must shrink the average blob by at least the gate.
  constexpr std::size_t kCadenceShard = 1;
  constexpr int kCadenceCycles = 16;
  ScenarioInstance cadence_room(projector, kCadenceShard,
                                aroma::sim::shard_seed(seed, kCadenceShard));
  cadence_room.warmup();
  cadence_room.run_until(Time::sec(46.0));
  aroma::snap::CheckpointManager::Options cadence_opts;
  cadence_opts.full_every = 1u << 30;  // never cycle back to full on its own
  aroma::snap::CheckpointManager cadence_cm(
      cadence_room.world(), cadence_room.registry(), cadence_opts);
  const aroma::snap::Checkpoint base_full = cadence_cm.take_full();
  std::vector<std::uint8_t> materialized = base_full.blob;
  std::uint64_t incr_total = 0, incr_max = 0;
  for (int c = 0; c < kCadenceCycles; ++c) {
    cadence_room.run_until(cadence_room.now() + Time::sec(cadence_s));
    const aroma::snap::Checkpoint incr = cadence_cm.take_incremental();
    incr_total += incr.blob.size();
    incr_max = std::max<std::uint64_t>(incr_max, incr.blob.size());
    materialized = aroma::snap::CheckpointManager::materialize(
        materialized, incr.blob);
  }
  // The overlay chain must land on the byte-identical full blob for the
  // final instant (the room is still at that instant: take it directly).
  const bool chain_ok = materialized == cadence_room.checkpoint();
  if (!chain_ok) {
    std::fprintf(stderr,
                 "FAIL: incremental chain does not materialize the full "
                 "checkpoint\n");
    ok = false;
  }
  const double incr_avg =
      static_cast<double>(incr_total) / kCadenceCycles;
  const double incr_ratio =
      incr_avg > 0.0 ? static_cast<double>(base_full.blob.size()) / incr_avg
                     : 0.0;
  const bool ratio_ok = incr_ratio >= min_incr_ratio;
  if (!ratio_ok) {
    std::fprintf(stderr,
                 "FAIL: incremental ratio %.2f < %.2f (full %zu B, "
                 "avg incremental %.0f B)\n",
                 incr_ratio, min_incr_ratio, base_full.blob.size(),
                 incr_avg);
    ok = false;
  }
  const aroma::snap::CheckpointStats& cstats = cadence_cm.stats();
  benchsup::table_header(
      "Checkpoint cadence (" + std::to_string(kCadenceCycles) +
          " cycles @ " + std::to_string(cadence_s) + " s)",
      {"full-B", "incr-avg-B", "incr-max-B", "ratio", "chain", "defer-steps"});
  benchsup::table_row(static_cast<double>(base_full.blob.size()), incr_avg,
                      static_cast<double>(incr_max), incr_ratio,
                      std::string(chain_ok ? "exact" : "BROKEN"),
                      static_cast<double>(cstats.deferral_steps));

  // --- Save / restore throughput. -----------------------------------------
  // The cadence room sits at a quiescent instant; serialize and restore the
  // same state repeatedly and report blob MB/s. Restoring with a zero gap
  // onto the capture instant is idempotent, so every iteration does the
  // full parse + rebase + overwrite work.
  const std::vector<std::uint8_t> tp_blob = cadence_room.checkpoint();
  constexpr int kSaveIters = 64;
  constexpr int kRestoreIters = 32;
  const auto save_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSaveIters; ++i) {
    const std::vector<std::uint8_t> b = cadence_room.checkpoint();
    if (b.size() != tp_blob.size()) std::abort();
  }
  const double save_s = seconds_since(save_t0);
  const auto restore_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRestoreIters; ++i) {
    cadence_room.restore(tp_blob, Time::sec(0.0));
  }
  const double restore_s = seconds_since(restore_t0);
  const double save_mb_s =
      save_s > 0.0 ? static_cast<double>(tp_blob.size()) * kSaveIters /
                         save_s / 1e6
                   : 0.0;
  const double restore_mb_s =
      restore_s > 0.0 ? static_cast<double>(tp_blob.size()) * kRestoreIters /
                            restore_s / 1e6
                      : 0.0;
  benchsup::table_header("Blob throughput",
                         {"blob-B", "save-MB/s", "restore-MB/s"});
  benchsup::table_row(static_cast<double>(tp_blob.size()), save_mb_s,
                      restore_mb_s);

  // --- Machine-readable output. -------------------------------------------
  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "snap");
  doc.set("seed", seed);
  doc.set("hw_workers", static_cast<std::uint64_t>(hw));
  doc.set("checkpoint_at_s", kCheckpointAtSec);
  doc.set("runs", std::move(runs));
  doc.set("library", std::move(library));
  benchsup::Json incr = benchsup::Json::object();
  incr.set("cadence_s", cadence_s);
  incr.set("cycles", static_cast<std::uint64_t>(kCadenceCycles));
  incr.set("full_bytes", static_cast<std::uint64_t>(base_full.blob.size()));
  incr.set("incremental_bytes_avg", incr_avg);
  incr.set("incremental_bytes_max", incr_max);
  incr.set("ratio", incr_ratio);
  incr.set("min_ratio_gate", min_incr_ratio);
  incr.set("chain_materializes", chain_ok);
  incr.set("deferral_steps", cstats.deferral_steps);
  doc.set("incremental", std::move(incr));
  benchsup::Json tp = benchsup::Json::object();
  tp.set("blob_bytes", static_cast<std::uint64_t>(tp_blob.size()));
  tp.set("save_iters", static_cast<std::uint64_t>(kSaveIters));
  tp.set("save_mb_per_s", save_mb_s);
  tp.set("restore_iters", static_cast<std::uint64_t>(kRestoreIters));
  tp.set("restore_mb_per_s", restore_mb_s);
  doc.set("throughput", std::move(tp));
  benchsup::Json gates = benchsup::Json::object();
  gates.set("fingerprints_match", fingerprints_match);
  gates.set("incremental_ratio_ok", ratio_ok);
  gates.set("chain_materializes", chain_ok);
  doc.set("gates", std::move(gates));
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}
