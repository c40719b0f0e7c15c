// Tests for the scenario compiler: parser diagnostics (line/col), the pass
// pipeline (fold, train lowering, strategy classes), blob robustness
// (truncation, CRC damage, version/section mismatches), compile
// determinism (compile-twice, dump-recompile fixpoint), the cost model,
// and the oracle property — the compiled smart_projector scenario
// reproduces the handwritten room's fingerprint bit-exactly.
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "phys/profile.hpp"
#include "scn/blob.hpp"
#include "scn/compiler.hpp"
#include "scn/cost.hpp"
#include "scn/parser.hpp"
#include "scn/passes.hpp"
#include "scn/runtime.hpp"
#include "sim/fleet.hpp"
#include "snap/format.hpp"
#include "snap/room.hpp"
#include "user/faculties.hpp"

#ifndef AROMA_SCENARIO_DIR
#define AROMA_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace aroma;

const char* kMinimal = R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group nodes profile laptop count 4 at (2 + 2 * i, 5);
  registrar on hub;
  traffic ping from nodes to hub period 0.5 payload 16;
  phase settle 1;
  phase meeting 3;
  horizon 9;
  drain 1;
}
)";

// --- expressions -----------------------------------------------------------

TEST(ScnExpr, EvalShardIndexAndMod) {
  const scn::Scenario s = scn::parse(R"(
scenario e {
  topology 10 x 10;
  entity a profile laptop at (1 + shard % 3, 2 * i);
  horizon 5;
}
)");
  const scn::EntityDecl& a = s.entities[0];
  EXPECT_DOUBLE_EQ(scn::eval(*a.pos_x, {7, 0}), 2.0);  // 1 + 7 % 3
  EXPECT_DOUBLE_EQ(scn::eval(*a.pos_y, {0, 5}), 10.0);
}

TEST(ScnExpr, DivisionByZeroThrowsWithPosition) {
  const scn::Scenario s = scn::parse(R"(
scenario e {
  topology 10 x 10;
  entity a profile laptop at (1 / (shard - 1), 0);
  horizon 5;
}
)");
  // Non-constant denominator passes validation but must still be caught at
  // evaluation time, anchored at the operator.
  try {
    scn::eval(*s.entities[0].pos_x, {1, 0});
    FAIL() << "division by zero not detected";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.col(), 0);
  }
}

// --- parser diagnostics ----------------------------------------------------

TEST(ScnParser, ErrorCarriesLineAndColumn) {
  const char* bad = R"(
scenario t {
  topology 20 x 20;
  entity hub profile at (1, 1);
  horizon 9;
}
)";
  try {
    scn::parse(bad, "bad.scn");
    FAIL() << "parse should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.col(), 0);
    EXPECT_NE(std::string(e.what()).find("bad.scn:4:"), std::string::npos);
  }
}

TEST(ScnParser, MissingSemicolonDiagnostic) {
  try {
    scn::parse("scenario t {\n  topology 20 x 20\n  horizon 9;\n}\n", "m.scn");
    FAIL() << "parse should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_EQ(e.line(), 3);  // error surfaces at the token after the gap
    EXPECT_NE(std::string(e.what()).find("m.scn:"), std::string::npos);
  }
}

TEST(ScnValidate, UnknownEntityAnchorsAtReference) {
  const char* bad = R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  registrar on ghost;
  horizon 9;
}
)";
  try {
    scn::compile(bad, "u.scn");
    FAIL() << "validation should have failed";
  } catch (const scn::ScnError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    EXPECT_EQ(e.line(), 5);
  }
}

TEST(ScnValidate, RejectsRadiolessProfileAndUnknownPersona) {
  EXPECT_THROW(scn::compile("scenario t {\n  topology 9 x 9;\n"
                            "  entity a profile pda at (1, 1);\n"
                            "  horizon 5;\n}\n"),
               scn::ScnError);
  EXPECT_THROW(
      scn::compile("scenario t {\n  topology 9 x 9;\n"
                   "  entity a profile laptop at (1, 1);\n"
                   "  registrar on a;\n"
                   "  goal discover actor a persona nobody;\n"
                   "  horizon 5;\n}\n"),
      scn::ScnError);
}

// --- passes ----------------------------------------------------------------

TEST(ScnPasses, FoldIsCountedAndIdempotent) {
  scn::Scenario s = scn::parse(
      "scenario f {\n  topology 9 x 9;\n"
      "  entity a profile laptop at (1 + 2, 2 * (3 + 1));\n"
      "  horizon 5 + 5;\n}\n");
  scn::run_passes(s);
  EXPECT_GT(s.folds, 0u);
  EXPECT_EQ(s.entities[0].pos_x->op, scn::ExprOp::kNum);
  EXPECT_DOUBLE_EQ(s.entities[0].pos_x->value, 3.0);
  EXPECT_DOUBLE_EQ(s.phases.horizon->value, 10.0);
  // Folding a folded tree eliminates nothing further.
  const std::uint32_t first = s.folds;
  s.folds = 0;
  scn::run_passes(s);
  EXPECT_EQ(s.folds, 0u);
  (void)first;
}

TEST(ScnPasses, TrainLoweringNeedsConstantPeriodAndCount) {
  scn::Scenario lowered = scn::parse(kMinimal);
  scn::run_passes(lowered);
  ASSERT_EQ(lowered.trains_lowered, 1u);
  EXPECT_TRUE(lowered.traffic[0].train_lowered);
  EXPECT_TRUE(lowered.strategy.kernel_trains);

  // A period staggered by `i` never shares timestamps: not lowered.
  scn::Scenario staggered = scn::parse(R"(
scenario t {
  topology 20 x 20;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group nodes profile laptop count 4 at (2 + 2 * i, 5);
  registrar on hub;
  traffic ping from nodes to hub period 0.5 + 0.1 * i;
  horizon 9;
}
)");
  scn::run_passes(staggered);
  EXPECT_EQ(staggered.trains_lowered, 0u);
  EXPECT_FALSE(staggered.strategy.kernel_trains);
}

TEST(ScnPasses, StrategyClassesFromShardModuli) {
  scn::Scenario s = scn::parse(R"(
scenario t {
  topology 40 x 40;
  entity hub profile desktop_pc_with_radio at (1, 1);
  group a profile laptop count 1 + shard % 3 at (2 + 2 * i, 5);
  group b profile laptop count 1 + shard % 4 at (2 + 2 * i, 9);
  registrar on hub;
  horizon 9;
}
)");
  scn::run_passes(s);
  EXPECT_EQ(s.strategy.class_modulus, 12u);  // lcm(3, 4)
  ASSERT_EQ(s.strategy.class_cost.size(), 12u);
  // More members -> strictly higher estimated cost.
  EXPECT_GT(s.strategy.class_cost[11], s.strategy.class_cost[0]);
}

// --- blob ------------------------------------------------------------------

TEST(ScnBlob, RoundTripPreservesIR) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const scn::Scenario s = scn::decode(blob);
  EXPECT_EQ(s.name, "t");
  ASSERT_EQ(s.entities.size(), 2u);
  EXPECT_EQ(s.entities[1].name, "nodes");
  EXPECT_TRUE(s.entities[1].is_group);
  ASSERT_EQ(s.traffic.size(), 1u);
  EXPECT_TRUE(s.traffic[0].train_lowered);
  EXPECT_EQ(s.traffic[0].to.index, 0);
  EXPECT_TRUE(s.strategy.kernel_trains);
}

TEST(ScnBlob, RejectsTruncation) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 std::size_t{20}, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(scn::decode(cut), scn::ScnError) << "kept " << keep;
  }
}

TEST(ScnBlob, RejectsCrcDamage) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(scn::decode(blob), scn::ScnError);
}

TEST(ScnBlob, RejectsVersionAndMagicMismatch) {
  std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  {
    std::vector<std::uint8_t> wrong = blob;
    wrong[8] += 1;  // version field (little-endian u32 at offset 8)
    EXPECT_THROW(scn::decode(wrong), scn::ScnError);
  }
  {
    std::vector<std::uint8_t> wrong = blob;
    wrong[0] ^= 0xff;
    EXPECT_THROW(scn::decode(wrong), scn::ScnError);
  }
}

TEST(ScnBlob, UnknownSectionOptionalSkippedRequiredRejected) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const snap::SnapReader reader(blob, scn::kScnMagic, scn::kScnVersion);
  const auto rebuild = [&](std::uint32_t flags) {
    snap::SnapWriter w;
    for (const snap::Section& s : reader.sections()) {
      w.add(s.tag, s.flags, s.payload);
    }
    w.add(snap::tag4("WAT?"), flags, {1, 2, 3});
    return w.finish(scn::kScnMagic, scn::kScnVersion);
  };
  // Optional unknown: forward-compat skip; the scenario still decodes.
  EXPECT_EQ(scn::decode(rebuild(snap::kSectionOptional)).name, "t");
  // Required unknown: hard reject.
  EXPECT_THROW(scn::decode(rebuild(0)), scn::ScnError);
}

TEST(ScnBlob, MissingRequiredSectionRejected) {
  const std::vector<std::uint8_t> blob = scn::compile(kMinimal);
  const snap::SnapReader reader(blob, scn::kScnMagic, scn::kScnVersion);
  snap::SnapWriter w;
  for (const snap::Section& s : reader.sections()) {
    if (s.tag == scn::kTagPhases) continue;
    w.add(s.tag, s.flags, s.payload);
  }
  EXPECT_THROW(scn::decode(w.finish(scn::kScnMagic, scn::kScnVersion)),
               scn::ScnError);
}

// --- compile determinism ---------------------------------------------------

TEST(ScnCompiler, CompileTwiceIsByteIdentical) {
  EXPECT_EQ(scn::compile(kMinimal), scn::compile(kMinimal));
}

TEST(ScnCompiler, DumpRecompileIsAFixpoint) {
  const std::vector<std::uint8_t> blob1 = scn::compile(kMinimal);
  const std::vector<std::uint8_t> blob2 =
      scn::compile(scn::dump(scn::decode(blob1)));
  const std::vector<std::uint8_t> blob3 =
      scn::compile(scn::dump(scn::decode(blob2)));
  EXPECT_EQ(blob2, blob3);
  // And the canonical text itself is stable from the first round.
  EXPECT_EQ(scn::dump(scn::decode(blob2)), scn::dump(scn::decode(blob3)));
}

// --- cost model ------------------------------------------------------------

TEST(ScnCost, FromBenchJsonOverridesMeasuredCategories) {
  const std::string path = "scn_cost_test_tmp.json";
  {
    std::ofstream f(path);
    f << R"({"scenarios": [{"batching": {"per_category": [
          {"category": "timer", "executed": 1000, "wall_sec": 0.0001},
          {"category": "radio", "executed": 500, "wall_sec": 0.0002}
        ]}}]})";
  }
  const scn::CostModel m = scn::CostModel::from_bench_json(path);
  EXPECT_TRUE(m.measured);
  EXPECT_DOUBLE_EQ(m.weight("timer"), 100.0);  // 1e-4 s / 1e3 ev * 1e9
  EXPECT_DOUBLE_EQ(m.weight("radio"), 400.0);
  // Unmeasured categories keep defaults; unknown ones fall back to "other".
  EXPECT_EQ(m.weight("mac"), scn::CostModel::defaults().weight("mac"));
  EXPECT_EQ(m.weight("nonesuch"), m.weight("other"));
  std::remove(path.c_str());
}

TEST(ScnCost, MissingArtifactThrows) {
  EXPECT_THROW(scn::CostModel::from_bench_json("nope_does_not_exist.json"),
               scn::ScnError);
}

// --- preset lookups --------------------------------------------------------

TEST(ScnPresets, ProfileAndPersonaByName) {
  phys::DeviceProfile p;
  EXPECT_TRUE(phys::profiles::by_name("laptop", &p));
  EXPECT_TRUE(phys::profiles::by_name("pda", &p));
  EXPECT_FALSE(phys::profiles::by_name("toaster", &p));
  user::Faculties f;
  EXPECT_TRUE(user::personas::by_name("computer_scientist", &f));
  EXPECT_FALSE(user::personas::by_name("nobody", &f));
}

// --- runtime ---------------------------------------------------------------

TEST(ScnRuntime, TrainLoweringAbsorbsWithoutChangingDeterminism) {
  scn::CompileOptions off;
  off.fold = false;
  off.trains = false;
  off.strategy = false;
  const scn::Scenario on = scn::decode(scn::compile(kMinimal));
  const scn::Scenario ref = scn::decode(scn::compile(kMinimal, "<scn>", off));

  scn::ScenarioInstance a(on, 0, 42);
  a.run();
  EXPECT_GT(a.absorbed(), 0u);
  scn::ScenarioInstance a2(on, 0, 42);
  a2.run();
  EXPECT_EQ(a.fingerprint(), a2.fingerprint());

  scn::ScenarioInstance b(ref, 0, 42);
  b.run();
  EXPECT_EQ(b.absorbed(), 0u);
  scn::ScenarioInstance b2(ref, 0, 42);
  b2.run();
  EXPECT_EQ(b.fingerprint(), b2.fingerprint());

  EXPECT_GT(a.pings(), 0u);
  EXPECT_EQ(a.pings(), b.pings());
}

TEST(ScnRuntime, FleetFingerprintIndependentOfWorkers) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  const scn::FleetResult one = scn::run_fleet(s, 5, 7, 1);
  const scn::FleetResult two = scn::run_fleet(s, 5, 7, 2);
  EXPECT_EQ(one.fleet_fp, two.fleet_fp);
  EXPECT_EQ(one.events, two.events);
  ASSERT_EQ(one.shard_fps.size(), 5u);
  EXPECT_EQ(one.fleet_fp, sim::fleet_fingerprint(one.shard_fps));
}

TEST(ScnRuntime, RunTwiceThrows) {
  const scn::Scenario s = scn::decode(scn::compile(kMinimal));
  scn::ScenarioInstance inst(s, 0, 1);
  inst.run();
  EXPECT_THROW(inst.run(), scn::ScnError);
}

// --- oracle ----------------------------------------------------------------

TEST(ScnOracle, CompiledSmartProjectorMatchesHandwrittenRoom) {
  const std::string path =
      std::string(AROMA_SCENARIO_DIR) + "/smart_projector.scn";
  const scn::Scenario s = scn::decode(scn::compile_file(path, {}));
  // Shard 1 (one extra laptop) and shard 3 (three): heterogeneous cases
  // including staggered pingers and the longer meeting horizon.
  for (const std::size_t shard : {std::size_t{1}, std::size_t{3}}) {
    const std::uint64_t seed = sim::shard_seed(2026, shard);
    snap::Room room(shard, seed);
    room.warmup();
    room.finish();
    scn::ScenarioInstance inst(s, shard, seed);
    inst.run();
    EXPECT_EQ(inst.fingerprint(), room.fingerprint()) << "shard " << shard;
    EXPECT_EQ(inst.events(), room.world().sim().executed())
        << "shard " << shard;
  }
}

// --- outcome goldens -------------------------------------------------------

// What every library scenario does, pinned: per scenario and fleet seed, the
// outcome fingerprints (room fingerprint without the executed event count)
// of shards 0..shards-1, folded in shard order. A change that only removes
// kernel events — dead timers, skipped polls — must leave all of them
// unchanged; one that changes what a room does moves them.
TEST(ScnGolden, LibraryOutcomeFingerprints) {
  struct Golden {
    const char* file;
    std::size_t shards;
    std::uint64_t fp[3];  // seeds 1, 7, 12345
  };
  const Golden goldens[] = {
      {"smart_projector.scn", 4,
       {0xc01ef30cff835385ULL, 0xe6acaab9345a206ULL,
        0xad3d8c534304da1aULL}},
      {"office_tower.scn", 4,
       {0xdf7012d09701cc57ULL, 0xd0d6059bc2a4aad8ULL,
        0x12d25b7a73822447ULL}},
      {"conference_hall.scn", 4,
       {0xd2d12123bd260c66ULL, 0x447a43a031b97646ULL,
        0x83c1aec1e73f0b64ULL}},
      {"hospital_ward.scn", 4,
       {0xb142d08a304ae51aULL, 0x3042e47ace294b68ULL,
        0x7a721fdee65f8a3ULL}},
      {"stadium.scn", 2,
       {0xace6d2113f575667ULL, 0x48b083067b62f1e6ULL,
        0x3b7e7cd0a86ca79cULL}},
      {"campus_mesh.scn", 4,
       {0x492401374959fc6fULL, 0xb43fc46639cf68d9ULL,
        0xa7f45ddea769945eULL}},
  };
  const std::uint64_t seeds[] = {1, 7, 12345};
  for (const Golden& g : goldens) {
    const scn::Scenario s = scn::decode(scn::compile_file(
        std::string(AROMA_SCENARIO_DIR) + "/" + g.file));
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<std::uint64_t> fps;
      for (std::size_t k = 0; k < g.shards; ++k) {
        scn::ScenarioInstance inst(s, k, sim::shard_seed(seeds[i], k));
        inst.run();
        fps.push_back(inst.outcome_fingerprint());
      }
      EXPECT_EQ(sim::fleet_fingerprint(fps), g.fp[i])
          << g.file << " seed " << seeds[i] << std::hex << " got 0x"
          << sim::fleet_fingerprint(fps);
    }
  }
}

}  // namespace
