// The Snapshottable registry: the glue between the wire format and the
// stateful cores.
//
// A world that wants to be checkpointable builds a SnapshotRegistry and
// registers one entry per section, in a fixed order (the restore order).
// Each entry supplies:
//   * save    — serialize the component's logical state into a SectionWriter,
//   * restore — overwrite the component's state from a SectionReader (the
//               component re-arms its own pending events with their original
//               (when, seq, id) via Simulator::restore_event),
//   * quiesce — optional: report whether the component is at a quiescent
//               point (no in-flight frames, no un-rearmable pending events).
//
// Checkpoints are only taken at quiescent instants (CheckpointManager
// defers deterministically until one is reached), which is what makes C++
// closures a non-problem: the only events pending at quiescence are the
// re-armed classes (periodic timers, lease checks, lease renewals), each of
// which its owner knows how to rebuild verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "snap/format.hpp"
#include "sim/time.hpp"

namespace aroma::snap {

/// Carried through every restore call. `now` is the instant the restored
/// world resumes at: the capture instant plus `gap`. A zero gap reproduces
/// the captured run bit-for-bit; a positive gap shifts every pending event,
/// lease deadline, and timestamp forward by the same amount.
struct RestoreCtx {
  sim::Time now = sim::Time::zero();
  sim::Time gap = sim::Time::zero();
};

/// Recycled buffers for SnapshotRegistry::save_all_into. Capacity warms to
/// the largest section payload and blob ever produced, after which repeated
/// saves are allocation-free.
struct SaveScratch {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> blob;
};

class SnapshotRegistry {
 public:
  using SaveFn = std::function<void(SectionWriter&)>;
  using RestoreFn = std::function<void(SectionReader&, const RestoreCtx&)>;
  /// Returns false and fills `why` (if non-null) when not quiescent.
  using QuiesceFn = std::function<bool(std::string*)>;

  void add(std::uint32_t tag, std::string name, SaveFn save, RestoreFn restore,
           std::uint32_t flags = 0) {
    entries_.push_back(
        Entry{tag, flags, std::move(name), std::move(save), std::move(restore)});
  }

  void add_quiescence(QuiesceFn fn) { quiesce_.push_back(std::move(fn)); }

  /// True when every registered quiescence predicate holds.
  bool quiescent(std::string* why = nullptr) const {
    for (const QuiesceFn& q : quiesce_) {
      if (!q(why)) return false;
    }
    return true;
  }

  /// Serializes every section against capture instant `now`, in
  /// registration order. Returns (tag, flags, payload) triples — the
  /// CheckpointManager diffs these for incremental checkpoints.
  std::vector<Section> save_sections(sim::Time now) const {
    std::vector<Section> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      SectionWriter w(now);
      e.save(w);
      out.push_back(Section{e.tag, e.flags, w.take()});
    }
    return out;
  }

  /// Serializes a complete blob.
  std::vector<std::uint8_t> save_all(sim::Time now) const {
    SnapWriter w;
    for (Section& s : save_sections(now)) {
      w.add(s.tag, s.flags, std::move(s.payload));
    }
    return w.finish();
  }

  /// Serializes a complete blob into recycled buffers. Identical output to
  /// save_all(), but once the scratch has warmed to its high-water
  /// capacity the serialization performs zero heap allocations — this is
  /// the path the fleet control plane streams live-migration checkpoints
  /// through (fleet_bench gates on an operator-new counter around it).
  void save_all_into(sim::Time now, SaveScratch& scratch) const {
    std::vector<std::uint8_t>& blob = scratch.blob;
    blob.clear();
    for (const char c : kMagic) {
      blob.push_back(static_cast<std::uint8_t>(c));
    }
    append32(blob, kFormatVersion);
    append32(blob, static_cast<std::uint32_t>(entries_.size()));
    for (const Entry& e : entries_) {
      SectionWriter w(now, std::move(scratch.payload));
      e.save(w);
      scratch.payload = w.take();
      const std::vector<std::uint8_t>& p = scratch.payload;
      append32(blob, e.tag);
      append32(blob, e.flags);
      append64(blob, p.size());
      append32(blob, crc32(p.data(), p.size()));
      blob.insert(blob.end(), p.begin(), p.end());
    }
  }

  /// Restores every registered section from a parsed blob, in registration
  /// order. Unknown sections in the blob are skipped when flagged optional
  /// and rejected otherwise; a registered section missing from the blob is
  /// an error unless it was registered with kSectionOptional.
  void restore_all(const SnapReader& r, const RestoreCtx& ctx) const {
    for (const SectionView& s : r.sections()) {
      if (known(s.tag)) continue;
      if (s.flags & kSectionOptional) continue;  // forward-skippable
      throw SnapError("unknown required section " + tag_name(s.tag));
    }
    for (const Entry& e : entries_) {
      const SectionView* s = r.find(e.tag);
      if (s == nullptr) {
        if (e.flags & kSectionOptional) continue;
        throw SnapError("blob is missing required section " + e.name);
      }
      SectionReader sr(s->payload, ctx.now);
      e.restore(sr, ctx);
      sr.expect_end();
    }
  }

  std::size_t section_count() const { return entries_.size(); }

  /// Registered (tag, name) pairs, for reporting.
  std::vector<std::pair<std::uint32_t, std::string>> table() const {
    std::vector<std::pair<std::uint32_t, std::string>> t;
    t.reserve(entries_.size());
    for (const Entry& e : entries_) t.emplace_back(e.tag, e.name);
    return t;
  }

 private:
  static void append32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  static void append64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  struct Entry {
    std::uint32_t tag;
    std::uint32_t flags;
    std::string name;
    SaveFn save;
    RestoreFn restore;
  };

  bool known(std::uint32_t tag) const {
    for (const Entry& e : entries_) {
      if (e.tag == tag) return true;
    }
    return false;
  }

  std::vector<Entry> entries_;
  std::vector<QuiesceFn> quiesce_;
};

}  // namespace aroma::snap
