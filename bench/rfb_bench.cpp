// RFB — machine-readable remote-display benchmark.
//
// Drives the full server -> stream -> client pipeline of the projection
// path (the paper's "display rapid animation" bottleneck) through three
// workloads at several link bitrates, for every encoding including the
// CopyRect-style cached tiles, and measures what actually goes on the air.
//
//   * scenarios: slide flips with revisits (the presenter going back to a
//     previous slide — where the tile cache pays), bouncing-sprite
//     animation, and typing; each at 2 / 11 / 54 Mb/s.
//   * encode_throughput: wall-clock MB/s of the zero-copy encoders vs the
//     original gather-based reference implementation, with byte-equality
//     checked on every iteration.
//
// Output lands in BENCH_rfb.json (schema documented in README.md and
// validated by scripts/check_bench_json.py). Exit status is nonzero when
//   - any run fails to converge to an identical replica (synced) or
//     reports decode errors,
//   - the replica content hash drifts across encodings for the same
//     (scenario, bitrate) — the encodings must be observationally
//     equivalent,
//   - the cached encoding does not cut slide-flip bytes by at least
//     --min-ratio (default 5x) against tiled at the lowest bitrate, or
//   - a zero-copy encoder's output ever differs from the reference.
// Throughput ratios are reported but never gated: wall-clock is machine-
// dependent, byte counts and fingerprints are not.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/projector.hpp"
#include "bench/common.hpp"
#include "rfb/cache.hpp"
#include "rfb/encoding.hpp"
#include "rfb/framebuffer.hpp"
#include "rfb/workload.hpp"
#include "sim/random.hpp"
#include "sim/simd.hpp"

namespace {

using namespace aroma;
using benchsup::hex64;

constexpr int kWidth = 320;
constexpr int kHeight = 240;

// ---------------------------------------------------------------------------
// Slide deck with revisits. SlideDeckWorkload draws a fresh random slide on
// every step, so a tile cache could never hit; real presentations revisit.
// This workload pre-renders a small deck — title bar, text-like bars, and a
// noise "photo" block that defeats RLE — and flips through a fixed pattern
// that returns to earlier slides.

class SlideFlipWorkload final : public rfb::ScreenWorkload {
 public:
  SlideFlipWorkload(std::uint64_t seed, int w, int h, int nslides = 4) {
    rfb::Framebuffer fb(w, h, 0xff000000);
    sim::Rng rng(seed);
    for (int s = 0; s < nslides; ++s) {
      const auto shade = static_cast<rfb::Pixel>(rng.next_u64());
      fb.fill_rect(fb.bounds(), 0xff000000u | (shade & 0x003f3f3fu));
      fb.fill_rect({0, 0, w, 24}, 0xffc0c040u | (shade & 0x000f0f00u));
      for (int line = 0; line < 8; ++line) {
        const int len = 40 + static_cast<int>(rng.next_u64() % 220);
        fb.fill_rect({16, 40 + line * 18, len, 10},
                     0xffe0e0e0u - static_cast<rfb::Pixel>(line) * 0x00101010u);
      }
      // The "photo": incompressible content, half the slide's byte weight.
      const rfb::RectRegion photo{w / 2 - 80, h / 2 - 20, 160, 120};
      for (int y = photo.y; y < photo.y + photo.h; ++y) {
        for (int x = photo.x; x < photo.x + photo.w; ++x) {
          fb.set(x, y, static_cast<rfb::Pixel>(rng.next_u64()) | 0xff000000u);
        }
      }
      slides_.push_back(fb.pixels());
    }
  }

  void step(rfb::Framebuffer& fb) override {
    // Forward with returns: every slide is revisited several times.
    static constexpr int kSequence[] = {0, 1, 0, 2, 1, 3, 0, 2, 3, 1, 2, 0};
    constexpr std::size_t kLen = sizeof kSequence / sizeof kSequence[0];
    fb.write_block(fb.bounds(), slides_[static_cast<std::size_t>(
                                            kSequence[tick_++ % kLen])]
                                    .data());
  }
  const char* name() const override { return "slide_flip"; }

 private:
  std::vector<std::vector<rfb::Pixel>> slides_;
  std::size_t tick_ = 0;
};

std::unique_ptr<rfb::ScreenWorkload> make_workload(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "slides") {
    return std::make_unique<SlideFlipWorkload>(seed, kWidth, kHeight);
  }
  if (name == "animation") {
    return std::make_unique<rfb::AnimationWorkload>(seed, 64);
  }
  return std::make_unique<rfb::TypingWorkload>(seed);
}

// ---------------------------------------------------------------------------
// One display run: laptop RFB server -> 802.11 cell -> projector client.

struct RunResult {
  double effective_fps = 0.0;
  std::uint64_t updates_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t tiles_encoded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t tiles_skipped = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t replica_hash = 0;
  bool synced = false;
};

RunResult run_display(const std::string& workload_name, rfb::Encoding encoding,
                      double bitrate_bps, double offered_hz, double run_s,
                      std::uint64_t seed) {
  benchsup::Cell cell(seed);
  auto laptop_profile = phys::profiles::laptop();
  laptop_profile.net.bitrate_bps = bitrate_bps;
  auto adapter_profile = phys::profiles::aroma_adapter();
  adapter_profile.net.bitrate_bps = bitrate_bps;
  auto laptop = cell.add(laptop_profile, {0, 0});
  auto adapter = cell.add(adapter_profile, {6, 0});

  rfb::RfbServer::Params sp;
  sp.encoding = encoding;
  sp.cpu_mips = 120.0;
  app::PresenterDisplay display(cell.world(), *laptop.stack, kWidth, kHeight,
                                sp);
  display.start_server();
  auto workload = make_workload(workload_name, seed);
  workload->step(display.screen());

  app::SmartProjector projector(cell.world(), *adapter.stack);
  app::ProjectorClient client(cell.world(), *laptop.stack,
                              adapter.stack->node_id(), app::kProjectionPort);
  bool started = false;
  client.acquire([&](bool ok) {
    if (ok) {
      client.start_projection(laptop.stack->node_id(),
                              [&](bool s) { started = s; });
    }
  });
  cell.run_until(10.0);
  if (!started) return {};

  sim::PeriodicTimer ticker(cell.world().sim(),
                            sim::Time::sec(1.0 / offered_hz),
                            [&] { display.apply(*workload); });
  ticker.start();
  const auto before = projector.viewer()->stats().updates_received;
  const sim::Time t0 = cell.world().now();
  cell.run_until(t0.seconds() + run_s);
  ticker.stop();
  const auto after = projector.viewer()->stats().updates_received;
  cell.run_until(t0.seconds() + run_s + 30.0);  // drain to convergence

  RunResult r;
  r.effective_fps = static_cast<double>(after - before) / run_s;
  const rfb::RfbServerStats& ss = display.server()->stats();
  r.updates_sent = ss.updates_sent;
  r.bytes_sent = ss.bytes_sent;
  r.tiles_encoded = ss.tiles_encoded;
  r.cache_hits = ss.cache_hits;
  r.tiles_skipped = ss.tiles_skipped;
  r.decode_errors = projector.viewer()->stats().decode_errors;
  r.synced = projector.projected() != nullptr &&
             projector.projected()->same_content(display.screen());
  if (projector.projected() != nullptr) {
    r.replica_hash = projector.projected()->content_hash();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Encoder throughput: zero-copy row-span path vs the gather-based reference,
// byte-equality asserted on every iteration.

struct ThroughputResult {
  double zero_copy_mb_s = 0.0;
  double reference_mb_s = 0.0;
  bool bytes_equal = true;
};

ThroughputResult measure_throughput(rfb::Encoding enc, int iters) {
  rfb::Framebuffer fb(kWidth, kHeight, 0xff202020);
  SlideFlipWorkload deck(3, kWidth, kHeight);
  deck.step(fb);
  const double mbytes =
      static_cast<double>(iters) * kWidth * kHeight * 4 / 1e6;
  ThroughputResult r;

  rfb::EncodeScratch scratch;
  rfb::encode_rect_into(fb, fb.bounds(), enc, scratch);  // warm capacity
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    rfb::encode_rect_into(fb, fb.bounds(), enc, scratch);
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::vector<std::byte> reference;
  for (int i = 0; i < iters; ++i) {
    reference = rfb::encode_rect_reference(fb, fb.bounds(), enc);
  }
  const auto t2 = std::chrono::steady_clock::now();

  r.bytes_equal = reference.size() == scratch.out.size() &&
                  std::memcmp(reference.data(), scratch.out.data(),
                              reference.size()) == 0;
  const double zc_s = std::chrono::duration<double>(t1 - t0).count();
  const double ref_s = std::chrono::duration<double>(t2 - t1).count();
  r.zero_copy_mb_s = zc_s > 0.0 ? mbytes / zc_s : 0.0;
  r.reference_mb_s = ref_s > 0.0 ? mbytes / ref_s : 0.0;
  return r;
}

// ---------------------------------------------------------------------------
// SIMD inner-loop micro-benchmarks (the "batching" section): the production
// tile-hash / solid-detect / RLE-scan paths (sim/simd.hpp lanes) against
// their scalar oracles, over every tile of a rendered slide — solid
// background, text bars, and the noise photo, so all three content classes
// are in the mix. Equality is checked on every tile of both a tile-aligned
// and an odd-sized framebuffer (non-multiple-of-4 tails); timing uses the
// min over kBatchRepeats passes (shared machine: min-stable, not
// mean-stable). Only the tile-hash speedup is gated (>= min_speedup, and
// only when a SIMD backend is compiled in); the others are reported.

struct KernelTiming {
  double simd_mb_s = 0.0;
  double reference_mb_s = 0.0;
  double speedup = 0.0;
  bool equal = true;
};

constexpr int kBatchRepeats = 3;

template <typename Fn>
double min_seconds(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kBatchRepeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

/// Times `simd_pass` and `ref_pass` (each a full sweep over `mbytes` of
/// pixels, repeated `iters` times) and fills the rate/speedup fields.
template <typename SimdFn, typename RefFn>
KernelTiming time_kernel(double mbytes, int iters, SimdFn&& simd_pass,
                         RefFn&& ref_pass) {
  KernelTiming t;
  const double total = mbytes * iters;
  const double simd_s = min_seconds([&] {
    for (int i = 0; i < iters; ++i) simd_pass();
  });
  const double ref_s = min_seconds([&] {
    for (int i = 0; i < iters; ++i) ref_pass();
  });
  t.simd_mb_s = simd_s > 0.0 ? total / simd_s : 0.0;
  t.reference_mb_s = ref_s > 0.0 ? total / ref_s : 0.0;
  t.speedup = ref_s > 0.0 && simd_s > 0.0 ? ref_s / simd_s : 0.0;
  return t;
}

struct BatchingResults {
  KernelTiming tile_hash;
  KernelTiming solid_scan;
  KernelTiming rle_scan;
};

std::vector<rfb::RectRegion> all_tiles(const rfb::Framebuffer& fb) {
  std::vector<rfb::RectRegion> tiles;
  for (int ty = 0; ty < fb.tiles_y(); ++ty) {
    for (int tx = 0; tx < fb.tiles_x(); ++tx) {
      tiles.push_back(fb.tile_rect(tx, ty));
    }
  }
  return tiles;
}

BatchingResults measure_batching(int iters) {
  rfb::Framebuffer fb(kWidth, kHeight, 0xff202020);
  SlideFlipWorkload deck(7, kWidth, kHeight);
  deck.step(fb);
  // Odd-sized replica: edge tiles are 13 wide / 3 tall, exercising the
  // non-multiple-of-4 tail of every SIMD loop in the equality sweep.
  rfb::Framebuffer odd(157, 93, 0xff202020);
  odd.write_block(odd.bounds(), fb.pixels().data());

  const std::vector<rfb::RectRegion> tiles = all_tiles(fb);
  double mbytes = 0.0;
  for (const auto& r : tiles) mbytes += r.w * r.h * 4 / 1e6;

  BatchingResults b;
  // Equality first, over every tile of both framebuffers.
  for (const rfb::Framebuffer* f : {&fb, &odd}) {
    for (const auto& r : all_tiles(*f)) {
      if (f->hash_rect(r) != f->hash_rect_reference(r)) {
        b.tile_hash.equal = false;
      }
      rfb::Pixel c1 = 0, c2 = 0;
      const bool s1 = rfb::detail::solid_tile(*f, r, c1);
      const bool s2 = rfb::detail::solid_tile_reference(*f, r, c2);
      if (s1 != s2 || (s1 && c1 != c2)) b.solid_scan.equal = false;
      if (rfb::detail::scan_runs(*f, r) !=
          rfb::detail::scan_runs_reference(*f, r)) {
        b.rle_scan.equal = false;
      }
    }
  }

  // Timing: full-framebuffer tile sweeps, sink accumulated to keep the
  // optimizer honest.
  std::uint64_t sink = 0;
  const bool eq_hash = b.tile_hash.equal;
  b.tile_hash = time_kernel(
      mbytes, iters,
      [&] {
        for (const auto& r : tiles) sink += fb.hash_rect(r);
      },
      [&] {
        for (const auto& r : tiles) sink += fb.hash_rect_reference(r);
      });
  b.tile_hash.equal = eq_hash;
  const bool eq_solid = b.solid_scan.equal;
  b.solid_scan = time_kernel(
      mbytes, iters,
      [&] {
        rfb::Pixel c = 0;
        for (const auto& r : tiles) {
          sink += rfb::detail::solid_tile(fb, r, c) ? c : 0u;
        }
      },
      [&] {
        rfb::Pixel c = 0;
        for (const auto& r : tiles) {
          sink += rfb::detail::solid_tile_reference(fb, r, c) ? c : 0u;
        }
      });
  b.solid_scan.equal = eq_solid;
  const bool eq_rle = b.rle_scan.equal;
  std::vector<std::byte> rle_bytes;
  std::vector<std::pair<std::uint32_t, rfb::Pixel>> rle_runs;
  b.rle_scan = time_kernel(
      mbytes, iters,
      [&] {
        for (const auto& r : tiles) {
          rfb::detail::scan_runs_into(fb, r, rle_bytes);
          sink += rle_bytes.size();
        }
      },
      [&] {
        for (const auto& r : tiles) {
          rfb::detail::scan_runs_reference_into(fb, r, rle_runs);
          sink += rle_runs.size();
        }
      });
  b.rle_scan.equal = eq_rle;
  if (sink == 0xdeadbeef) std::printf("~");  // never true; defeats DCE
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 2026;
  std::string json_path = "BENCH_rfb.json";
  double min_ratio = 5.0;
  double min_simd_speedup = 2.0;
  double run_s = 45.0;
  int throughput_iters = 120;
  benchsup::Flags()
      .add("--seed", seed)
      .add("--json", json_path)
      .add("--min-ratio", min_ratio)
      .add("--min-simd-speedup", min_simd_speedup)
      .add("--run-s", run_s)
      .add("--throughput-iters", throughput_iters)
      .parse(argc, argv,
             "usage: rfb_bench [--seed n] [--json path] [--min-ratio x] "
             "[--min-simd-speedup x] [--run-s s] [--throughput-iters n]");

  const std::vector<std::string> scenarios = {"slides", "animation", "typing"};
  const std::vector<double> bitrates_mbps = {2.0, 11.0, 54.0};
  const std::vector<rfb::Encoding> encodings = {
      rfb::Encoding::kRaw, rfb::Encoding::kRle, rfb::Encoding::kTiled,
      rfb::Encoding::kCached};

  std::printf("== RFB: remote-display pipeline, seed %llu ==\n",
              static_cast<unsigned long long>(seed));
  bool ok = true;
  bool all_synced = true;

  benchsup::Json runs = benchsup::Json::array();
  // (scenario, bitrate) -> replica hash per encoding, for the equivalence
  // gate; slides@lowest-bitrate byte counts for the cache-ratio gate.
  std::map<std::pair<std::string, double>, std::vector<std::uint64_t>> hashes;
  std::uint64_t slides_tiled_bytes = 0, slides_cached_bytes = 0;

  benchsup::table_header(
      "Display runs (offered slides 1 Hz, animation/typing 20 Hz, " +
          std::to_string(kWidth) + "x" + std::to_string(kHeight) + ")",
      {"scenario", "Mbps", "encoding", "fps", "kB-sent", "tiles", "refs",
       "skips", "synced"});
  for (const auto& scenario : scenarios) {
    const double offered_hz = scenario == "slides" ? 1.0 : 20.0;
    for (const double mbps : bitrates_mbps) {
      for (const auto enc : encodings) {
        const RunResult r =
            run_display(scenario, enc, mbps * 1e6, offered_hz, run_s, seed);
        benchsup::table_row(
            scenario, mbps, std::string(rfb::to_string(enc)), r.effective_fps,
            static_cast<double>(r.bytes_sent) / 1024.0,
            static_cast<double>(r.tiles_encoded),
            static_cast<double>(r.cache_hits),
            static_cast<double>(r.tiles_skipped), r.synced ? 1.0 : 0.0);
        if (!r.synced || r.decode_errors != 0) {
          std::fprintf(stderr,
                       "FAIL: %s/%s at %g Mb/s did not converge "
                       "(synced=%d decode_errors=%llu)\n",
                       scenario.c_str(), rfb::to_string(enc), mbps, r.synced,
                       static_cast<unsigned long long>(r.decode_errors));
          all_synced = false;
          ok = false;
        }
        hashes[{scenario, mbps}].push_back(r.replica_hash);
        if (scenario == "slides" && mbps == bitrates_mbps.front()) {
          if (enc == rfb::Encoding::kTiled) slides_tiled_bytes = r.bytes_sent;
          if (enc == rfb::Encoding::kCached) slides_cached_bytes = r.bytes_sent;
        }
        const double denom =
            static_cast<double>(r.tiles_encoded + r.cache_hits);
        benchsup::Json row = benchsup::Json::object();
        row.set("scenario", scenario);
        row.set("encoding", rfb::to_string(enc));
        row.set("bitrate_mbps", mbps);
        row.set("updates_sent", r.updates_sent);
        row.set("bytes_sent", r.bytes_sent);
        row.set("effective_fps", r.effective_fps);
        row.set("tiles_encoded", r.tiles_encoded);
        row.set("cache_hits", r.cache_hits);
        row.set("tiles_skipped", r.tiles_skipped);
        row.set("cache_hit_rate",
                denom > 0.0 ? static_cast<double>(r.cache_hits) / denom : 0.0);
        row.set("decode_errors", r.decode_errors);
        row.set("replica_hash", hex64(r.replica_hash));
        row.set("synced", r.synced);
        runs.push(std::move(row));
      }
    }
  }

  // --- Gate: encodings are observationally equivalent. ---------------------
  bool hashes_consistent = true;
  for (const auto& [key, hs] : hashes) {
    for (const std::uint64_t h : hs) {
      if (h != hs.front()) {
        std::fprintf(stderr,
                     "FAIL: replica hash drift in %s at %g Mb/s "
                     "(%s vs %s)\n",
                     key.first.c_str(), key.second, hex64(h).c_str(),
                     hex64(hs.front()).c_str());
        hashes_consistent = false;
        ok = false;
      }
    }
  }

  // --- Gate: the cache pays on slide revisits. -----------------------------
  const double cached_ratio =
      slides_cached_bytes > 0
          ? static_cast<double>(slides_tiled_bytes) /
                static_cast<double>(slides_cached_bytes)
          : 0.0;
  std::printf("\nslide-flip bytes at %g Mb/s: tiled %llu, cached %llu "
              "(%.1fx, gate %.1fx)\n",
              bitrates_mbps.front(),
              static_cast<unsigned long long>(slides_tiled_bytes),
              static_cast<unsigned long long>(slides_cached_bytes),
              cached_ratio, min_ratio);
  if (cached_ratio < min_ratio) {
    std::fprintf(stderr, "FAIL: cached/tiled byte ratio %.2f < %.2f\n",
                 cached_ratio, min_ratio);
    ok = false;
  }

  // --- Encoder throughput (reported, not gated; bytes-equality gated). -----
  benchsup::table_header("Zero-copy encoder throughput (slide content)",
                         {"encoding", "zero-copy-MB/s", "reference-MB/s",
                          "speedup", "bytes-equal"});
  benchsup::Json throughput = benchsup::Json::array();
  for (const auto enc :
       {rfb::Encoding::kRaw, rfb::Encoding::kRle, rfb::Encoding::kTiled}) {
    const ThroughputResult t = measure_throughput(enc, throughput_iters);
    const double speedup =
        t.reference_mb_s > 0.0 ? t.zero_copy_mb_s / t.reference_mb_s : 0.0;
    benchsup::table_row(std::string(rfb::to_string(enc)), t.zero_copy_mb_s,
                        t.reference_mb_s, speedup, t.bytes_equal ? 1.0 : 0.0);
    if (!t.bytes_equal) {
      std::fprintf(stderr,
                   "FAIL: zero-copy %s output differs from reference\n",
                   rfb::to_string(enc));
      ok = false;
    }
    benchsup::Json row = benchsup::Json::object();
    row.set("encoding", rfb::to_string(enc));
    row.set("zero_copy_mb_s", t.zero_copy_mb_s);
    row.set("reference_mb_s", t.reference_mb_s);
    row.set("speedup", speedup);
    row.set("bytes_equal", t.bytes_equal);
    throughput.push(std::move(row));
  }

  // --- SIMD inner loops: equality gated; tile-hash speedup gated when a
  // --- SIMD backend is compiled in. ----------------------------------------
  const BatchingResults batching = measure_batching(throughput_iters / 2);
  benchsup::table_header(
      std::string("SIMD inner loops (backend ") + sim::simd::kBackend + ")",
      {"kernel", "simd-MB/s", "reference-MB/s", "speedup", "equal"});
  const auto batch_row = [&](const char* kernel, const KernelTiming& t) {
    benchsup::table_row(std::string(kernel), t.simd_mb_s, t.reference_mb_s,
                        t.speedup, t.equal ? 1.0 : 0.0);
    if (!t.equal) {
      std::fprintf(stderr, "FAIL: %s disagrees with its scalar oracle\n",
                   kernel);
      ok = false;
    }
    benchsup::Json row = benchsup::Json::object();
    row.set("kernel", kernel);
    row.set("simd_mb_s", t.simd_mb_s);
    row.set("reference_mb_s", t.reference_mb_s);
    row.set("speedup", t.speedup);
    row.set("oracle_equal", t.equal);
    return row;
  };
  benchsup::Json kernels = benchsup::Json::array();
  kernels.push(batch_row("tile_hash", batching.tile_hash));
  kernels.push(batch_row("solid_scan", batching.solid_scan));
  kernels.push(batch_row("rle_scan", batching.rle_scan));
  const bool simd_gate_applies = sim::simd::kEnabled;
  bool simd_gate_ok = true;
  if (simd_gate_applies) {
    simd_gate_ok = batching.tile_hash.speedup >= min_simd_speedup;
    std::printf("\ntile-hash SIMD speedup %.2fx (gate %.1fx, backend %s)\n",
                batching.tile_hash.speedup, min_simd_speedup,
                sim::simd::kBackend);
    if (!simd_gate_ok) {
      std::fprintf(stderr, "FAIL: tile-hash SIMD speedup %.2f < %.2f\n",
                   batching.tile_hash.speedup, min_simd_speedup);
      ok = false;
    }
  } else {
    std::printf("\ntile-hash speedup gate skipped: scalar backend "
                "(AROMA_FORCE_SCALAR or no SIMD ISA)\n");
  }

  benchsup::Json doc = benchsup::Json::object();
  doc.set("bench", "rfb");
  doc.set("seed", seed);
  doc.set("width", kWidth);
  doc.set("height", kHeight);
  doc.set("tile_size", rfb::Framebuffer::kTileSize);
  doc.set("cache_tiles",
          static_cast<std::uint64_t>(rfb::TileCache::kDefaultCapacity));
  doc.set("run_s", run_s);
  doc.set("scenarios", std::move(runs));
  doc.set("encode_throughput", std::move(throughput));
  benchsup::Json batching_doc = benchsup::Json::object();
  batching_doc.set("simd_backend", sim::simd::kBackend);
  batching_doc.set("simd_enabled", sim::simd::kEnabled);
  batching_doc.set("kernels", std::move(kernels));
  doc.set("batching", std::move(batching_doc));
  benchsup::Json gates = benchsup::Json::object();
  gates.set("all_synced", all_synced);
  gates.set("replica_hash_consistent", hashes_consistent);
  gates.set("min_cached_ratio", min_ratio);
  gates.set("slides_cached_ratio", cached_ratio);
  gates.set("simd_oracles_equal", batching.tile_hash.equal &&
                                      batching.solid_scan.equal &&
                                      batching.rle_scan.equal);
  gates.set("min_simd_speedup", min_simd_speedup);
  gates.set("tile_hash_speedup", batching.tile_hash.speedup);
  gates.set("simd_gate_applied", simd_gate_applies);
  gates.set("simd_gate_ok", simd_gate_ok);
  doc.set("gates", std::move(gates));
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}
