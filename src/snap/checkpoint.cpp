#include "snap/checkpoint.hpp"

#include <string>
#include <utility>

#include "lpc/layers.hpp"
#include "obs/metrics.hpp"

namespace aroma::snap {
namespace {

void bump(sim::World& world, std::string_view name, std::uint64_t delta) {
  if (obs::Counter* c = obs::counter(world, name, lpc::Layer::kPhysical)) {
    c->add(delta);
  }
}

}  // namespace

CheckpointManager::CheckpointManager(sim::World& world,
                                     SnapshotRegistry& registry,
                                     Options options)
    : world_(world), registry_(registry), options_(options) {}

void CheckpointManager::wait_for_quiescence() {
  const sim::Time start = world_.now();
  const sim::Time give_up = start + options_.max_defer;
  std::string why;
  while (!registry_.quiescent(&why)) {
    if (world_.now() >= give_up) {
      throw SnapError("quiescence not reached within max_defer: " + why);
    }
    world_.sim().run_until(world_.now() + options_.defer_step);
    ++stats_.deferral_steps;
  }
  stats_.deferral_time = stats_.deferral_time + (world_.now() - start);
}

Checkpoint CheckpointManager::take() {
  const bool full = last_id_ == 0 || options_.full_every <= 1 ||
                    (next_id_ - 1) % options_.full_every == 0;
  return full ? take_full() : take_incremental();
}

Checkpoint CheckpointManager::take_full() {
  wait_for_quiescence();
  std::vector<Section> sections = registry_.save_sections(world_.now());

  Checkpoint cp;
  cp.id = next_id_++;
  cp.base = 0;
  cp.captured_at = world_.now();

  SnapWriter w;
  last_payloads_.clear();
  for (Section& s : sections) {
    last_payloads_[s.tag] = s.payload;
    w.add(s.tag, s.flags, std::move(s.payload));
  }
  cp.blob = w.finish();

  ++stats_.full_taken;
  stats_.bytes_written += cp.blob.size();
  stats_.full_bytes += cp.blob.size();
  last_id_ = cp.id;
  bump(world_, "snap.checkpoints.full", 1);
  bump(world_, "snap.bytes_written", cp.blob.size());
  return cp;
}

Checkpoint CheckpointManager::take_incremental() {
  wait_for_quiescence();
  std::vector<Section> sections = registry_.save_sections(world_.now());

  Checkpoint cp;
  cp.id = next_id_++;
  cp.base = last_id_;
  cp.captured_at = world_.now();

  SnapWriter w;
  for (Section& s : sections) {
    auto it = last_payloads_.find(s.tag);
    const bool changed = it == last_payloads_.end() || it->second != s.payload;
    last_payloads_[s.tag] = s.payload;
    if (changed) w.add(s.tag, s.flags, std::move(s.payload));
  }
  cp.blob = w.finish();

  ++stats_.incremental_taken;
  stats_.bytes_written += cp.blob.size();
  stats_.incremental_bytes += cp.blob.size();
  last_id_ = cp.id;
  bump(world_, "snap.checkpoints.incremental", 1);
  bump(world_, "snap.bytes_written", cp.blob.size());
  return cp;
}

std::vector<std::uint8_t> CheckpointManager::materialize(
    std::span<const std::uint8_t> base,
    std::span<const std::uint8_t> incremental) {
  const SnapReader base_r(base);
  const SnapReader incr_r(incremental);
  SnapWriter w;
  const auto add = [&w](const SectionView& s) {
    w.add(s.tag, s.flags, {s.payload.begin(), s.payload.end()});
  };
  for (const SectionView& s : base_r.sections()) {
    const SectionView* updated = incr_r.find(s.tag);
    add(updated ? *updated : s);
  }
  // A section absent from the base can only appear if the registry grew
  // between the two captures; preserve it so restore still sees it.
  for (const SectionView& s : incr_r.sections()) {
    if (base_r.find(s.tag) == nullptr) add(s);
  }
  return w.finish();
}

}  // namespace aroma::snap
