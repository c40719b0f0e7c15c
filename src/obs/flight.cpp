#include "obs/flight.hpp"

#include <algorithm>
#include <iterator>

namespace aroma::obs {

std::string_view to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kKernelEvent: return "kernel_event";
    case FlightKind::kSpanOpen: return "span_open";
    case FlightKind::kSpanClose: return "span_close";
    case FlightKind::kSpanInstant: return "span_instant";
    case FlightKind::kMetricDelta: return "metric_delta";
    case FlightKind::kWatchdog: return "watchdog";
    case FlightKind::kCheckpoint: return "checkpoint";
    case FlightKind::kMarker: return "marker";
  }
  return "?";
}

namespace {
std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity, std::uint32_t shard)
    : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)) {
  ring_.reset(static_cast<FlightRecord*>(::operator new(
      capacity_ * sizeof(FlightRecord), std::align_val_t{64})));
  std::fill_n(ring_.get(), capacity_, FlightRecord{});
  hot_.ring = ring_.get();
  hot_.mask = capacity_ - 1;
  hot_.shard = shard;
  hot_.slow = this;
}

FlightRecord& FlightRecorder::push() {
  FlightRecord& r = ring_[static_cast<std::size_t>(hot_.total) & hot_.mask];
  ++hot_.total;
  r = FlightRecord{};
  r.shard = hot_.shard;
  return r;
}

std::uint16_t FlightRecorder::intern_slow(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it == name_ids_.end()) {
    // Code 0xffff is a sentinel for "table full": better a degenerate name
    // than unbounded growth from pathological callers.
    if (names_.size() >= 0xffff) return 0xffff;
    const auto id = static_cast<std::uint16_t>(names_.size());
    names_.emplace_back(name);
    it = name_ids_.emplace(names_.back(), id).first;
  }
  // Refresh the content-keyed fast-path slot. The map's key storage is
  // node-stable, so the cached pointer outlives any names_ reallocation.
  intern_cache_[intern_slot(name)] =
      InternSlot{it->first.data(), it->first.size(), it->second};
  return it->second;
}

void FlightRecorder::wake(sim::Time when) {
  if (watchdogs_ != nullptr &&
      when.count() >= watchdogs_->next_window_ns_) {
    watchdogs_->window_checks(when);
  }
  if (sampler_ != nullptr && when.count() >= sampler_->next_due_ns()) {
    sampler_->take_sample(when);
  }
  refresh_wake();
}

void FlightRecorder::refresh_wake() {
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  if (watchdogs_ != nullptr) next = std::min(next, watchdogs_->next_window_ns_);
  if (sampler_ != nullptr) next = std::min(next, sampler_->next_due_ns());
  hot_.next_wake_ns = next;
}

void FlightRecorder::record_metric(sim::Time now, std::uint16_t code,
                                   std::uint64_t value,
                                   std::uint64_t previous) {
  FlightRecord& r = push();
  r.t_ns = now.count();
  r.kind = static_cast<std::uint16_t>(FlightKind::kMetricDelta);
  r.code = code;
  r.a = value;
  r.b = previous;
}

void FlightRecorder::record_watchdog(sim::Time now, std::uint16_t code,
                                     std::uint64_t value,
                                     std::uint64_t limit) {
  FlightRecord& r = push();
  r.t_ns = now.count();
  r.kind = static_cast<std::uint16_t>(FlightKind::kWatchdog);
  r.code = code;
  r.a = value;
  r.b = limit;
}

void FlightRecorder::record_marker(sim::Time now, std::string_view name) {
  FlightRecord& r = push();
  r.t_ns = now.count();
  r.kind = static_cast<std::uint16_t>(FlightKind::kMarker);
  r.code = intern(name);
}

void FlightRecorder::note_checkpoint(std::uint64_t checkpoint_id,
                                     sim::Time captured_at,
                                     std::vector<std::uint8_t> blob) {
  checkpoint_id_ = checkpoint_id;
  checkpoint_at_ = captured_at;
  checkpoint_blob_ = std::move(blob);
  FlightRecord& r = push();
  r.t_ns = captured_at.count();
  r.kind = static_cast<std::uint16_t>(FlightKind::kCheckpoint);
  r.a = checkpoint_id;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>((hot_.total - n + i) %
                                                 capacity_)]);
  }
  return out;
}

void FlightRecorder::append_shard(const FlightRecorder& other,
                                  std::uint32_t shard_id) {
  for (const FlightRecord& src : other.snapshot()) {
    FlightRecord& r = push();
    r = src;
    r.shard = shard_id;
    const auto kind = static_cast<FlightKind>(src.kind);
    // Kernel-event codes are categories (global); everything else indexes
    // the source recorder's name table and must be re-interned into ours.
    if (kind != FlightKind::kKernelEvent && kind != FlightKind::kCheckpoint &&
        src.code < other.names_.size()) {
      r.code = intern(other.names_[src.code]);
    }
  }
}

// Reconstructs span edges from the span source for the [t0, t1] window the
// ring covers, capped (latest kept) so a pathological window cannot blow up
// the dump. Edges are sorted by (t, kind, id) — a deterministic function of
// the tracer contents.
std::vector<FlightRecord> FlightRecorder::span_edges(std::int64_t t0,
                                                     std::int64_t t1) {
  std::vector<FlightRecord> edges;
  auto add = [&](std::int64_t t, FlightKind kind, const SpanRecord& rec) {
    if (t < t0 || t > t1) return;
    FlightRecord r;
    r.t_ns = t;
    r.kind = static_cast<std::uint16_t>(kind);
    r.code = intern(rec.name);
    r.shard = hot_.shard;
    r.a = rec.id;
    r.b = rec.parent;
    edges.push_back(r);
  };
  for (const SpanRecord& rec : span_source_->records()) {
    if (rec.instant) {
      add(rec.start.count(), FlightKind::kSpanInstant, rec);
      continue;
    }
    add(rec.start.count(), FlightKind::kSpanOpen, rec);
    if (!rec.open()) add(rec.end.count(), FlightKind::kSpanClose, rec);
  }
  std::sort(edges.begin(), edges.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.a < b.a;
            });
  const std::size_t cap = capacity_ * 4;
  if (edges.size() > cap) {
    edges.erase(edges.begin(),
                edges.end() - static_cast<std::ptrdiff_t>(cap));
  }
  return edges;
}

std::vector<std::uint8_t> FlightRecorder::dump(std::string_view reason) {
  snap::SnapWriter snap;
  // Times inside a dump are absolute sim-time nanoseconds (raw i64), never
  // rebased: a black box describes one concrete run.
  {
    snap::SectionWriter w(sim::Time::zero());
    w.u32(kFlightDumpVersion);
    w.u32(hot_.shard);
    w.str(std::string(reason));
    w.u64(capacity_);
    w.u64(hot_.total);
    snap.add(kTagFlightHeader, 0, w.take());
  }
  std::vector<FlightRecord> records = snapshot();
  if (span_source_ != nullptr && !records.empty()) {
    // Merge reconstructed span edges for the window the ring covers;
    // ring records win ties so the kernel event stream stays contiguous.
    const std::vector<FlightRecord> edges =
        span_edges(records.front().t_ns, records.back().t_ns);
    std::vector<FlightRecord> merged;
    merged.reserve(records.size() + edges.size());
    std::merge(records.begin(), records.end(), edges.begin(), edges.end(),
               std::back_inserter(merged),
               [](const FlightRecord& a, const FlightRecord& b) {
                 return a.t_ns < b.t_ns;
               });
    records = std::move(merged);
  }
  {
    snap::SectionWriter w(sim::Time::zero());
    w.u64(names_.size());
    for (const std::string& name : names_) w.str(name);
    snap.add(kTagFlightNames, 0, w.take());
  }
  {
    snap::SectionWriter w(sim::Time::zero());
    w.u64(records.size());
    for (const FlightRecord& r : records) {
      w.i64(r.t_ns);
      w.u16(r.kind);
      w.u16(r.code);
      w.u32(r.shard);
      w.u64(r.a);
      w.u64(r.b);
    }
    snap.add(kTagFlightRecords, 0, w.take());
  }
  if (!checkpoint_blob_.empty()) {
    snap::SectionWriter w(sim::Time::zero());
    w.u64(checkpoint_id_);
    w.i64(checkpoint_at_.count());
    w.bytes(checkpoint_blob_.data(), checkpoint_blob_.size());
    snap.add(kTagFlightCheckpoint, snap::kSectionOptional, w.take());
  }
  return snap.finish();
}

FlightDump FlightDump::parse(std::span<const std::uint8_t> blob) {
  const snap::SnapReader snap(blob);
  FlightDump dump;

  const snap::SectionView* header = snap.find(kTagFlightHeader);
  if (header == nullptr) {
    throw snap::SnapError("flight dump has no FLTH header section");
  }
  {
    snap::SectionReader r(header->payload, sim::Time::zero());
    dump.version = r.u32();
    if (dump.version != kFlightDumpVersion) {
      throw snap::SnapError("unsupported flight dump version " +
                            std::to_string(dump.version));
    }
    dump.shard = r.u32();
    dump.reason = r.str();
    dump.capacity = r.u64();
    dump.total = r.u64();
    r.expect_end();
  }

  if (const snap::SectionView* s = snap.find(kTagFlightNames)) {
    snap::SectionReader r(s->payload, sim::Time::zero());
    const std::uint64_t n = r.u64();
    dump.names.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) dump.names.push_back(r.str());
    r.expect_end();
  }

  if (const snap::SectionView* s = snap.find(kTagFlightRecords)) {
    snap::SectionReader r(s->payload, sim::Time::zero());
    const std::uint64_t n = r.u64();
    dump.records.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      FlightRecord rec;
      rec.t_ns = r.i64();
      rec.kind = r.u16();
      rec.code = r.u16();
      rec.shard = r.u32();
      rec.a = r.u64();
      rec.b = r.u64();
      dump.records.push_back(rec);
    }
    r.expect_end();
  }

  if (const snap::SectionView* s = snap.find(kTagFlightCheckpoint)) {
    snap::SectionReader r(s->payload, sim::Time::zero());
    dump.has_checkpoint = true;
    dump.checkpoint_id = r.u64();
    dump.checkpoint_at_ns = r.i64();
    dump.checkpoint = r.bytes();
    r.expect_end();
  }
  return dump;
}

const FlightRecord* FlightDump::last_kernel_event_at_or_before(
    std::int64_t t_ns) const {
  const FlightRecord* best = nullptr;
  for (const FlightRecord& r : records) {
    if (r.kind != static_cast<std::uint16_t>(FlightKind::kKernelEvent)) {
      continue;
    }
    if (r.t_ns <= t_ns) best = &r;
  }
  return best;
}

}  // namespace aroma::obs
