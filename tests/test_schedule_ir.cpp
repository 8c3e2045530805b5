// Composable loop-nest Schedule-IR (core/schedule_ir.hpp): builder +
// describe(), legality diagnostics (string-returning validator so the error
// TEXT is testable), lowering semantics (empty program == flat knobs,
// programs authoritative over flat knobs, the derived loop order), program
// hashing, and the tuner seeding contract — the first candidate / first seed
// point of both widened tuners reproduces the default schedule bit-for-bit.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule_ir.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "tensor/tensor.hpp"

namespace fg = featgraph;
using fg::core::CpuSddmmSchedule;
using fg::core::CpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::core::LoweredSpmmPlan;
using fg::core::ScheduleIr;
using fg::simd::Isa;

namespace {

constexpr std::int64_t kRows = 1000;
constexpr std::int64_t kD = 64;

std::string err_spmm(const ScheduleIr& ir, std::int64_t rows = kRows,
                     std::int64_t d = kD, Isa isa = Isa::kScalar) {
  return fg::core::validate_spmm_ir(ir, rows, d, isa);
}

}  // namespace

TEST(ScheduleIr, BuilderKeepsOrderAndDescribes) {
  const ScheduleIr ir = ScheduleIr()
                            .chunk(256)
                            .tile(32)
                            .unroll(4)
                            .split_nnz(LoadBalance::kStaticRows);
  ASSERT_EQ(ir.transforms().size(), 4u);
  EXPECT_EQ(ir.describe(), "chunk(256).tile(32).unroll(4).split_nnz(rows)");
  EXPECT_TRUE(ScheduleIr().empty());
  EXPECT_EQ(ScheduleIr().describe(), "");
}

TEST(ScheduleIr, LegalProgramsValidate) {
  EXPECT_EQ(err_spmm(ScheduleIr()), "");
  EXPECT_EQ(err_spmm(ScheduleIr().chunk(kRows)), "");
  EXPECT_EQ(err_spmm(ScheduleIr().tile(32).unroll(4)), "");
  EXPECT_EQ(err_spmm(ScheduleIr().partition(8).tile(16).unroll(2).chunk(64)),
            "");
  // Scalar backend: any width in [1, d] is a multiple of its 1-wide lanes.
  EXPECT_EQ(err_spmm(ScheduleIr().tile(13)), "");
}

TEST(ScheduleIr, IllegalProgramsReportClearErrors) {
  // Duplicate transforms are an error, not last-wins.
  EXPECT_NE(err_spmm(ScheduleIr().tile(16).tile(32))
                .find("duplicate transform: tile"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().chunk(8).chunk(16))
                .find("duplicate transform: chunk"),
            std::string::npos);
  // Chunk past the row count.
  EXPECT_NE(
      err_spmm(ScheduleIr().chunk(kRows + 1)).find("exceeds row count"),
      std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().chunk(0)).find("must be >= 1"),
            std::string::npos);
  // Tile wider than the feature vector, or misaligned for the backend.
  EXPECT_NE(err_spmm(ScheduleIr().tile(kD + 8)).find("exceeds feature width"),
            std::string::npos);
  if (fg::simd::isa_supported(Isa::kAvx2)) {
    EXPECT_NE(err_spmm(ScheduleIr().tile(12), kRows, kD, Isa::kAvx2)
                  .find("not a multiple of the 8-lane vector width"),
              std::string::npos);
  }
  if (fg::simd::isa_supported(Isa::kAvx512)) {
    // 8 is legal on AVX-512 (the narrow-span reroute executes it 8-wide),
    // but 24 fills one-and-a-half 512-bit vectors — rejected.
    EXPECT_EQ(err_spmm(ScheduleIr().tile(8), kRows, kD, Isa::kAvx512), "");
    EXPECT_NE(err_spmm(ScheduleIr().tile(24), kRows, kD, Isa::kAvx512)
                  .find("not a multiple of the 16-lane vector width"),
              std::string::npos);
  }
  // Unroll needs a tile and a sane factor.
  EXPECT_NE(err_spmm(ScheduleIr().unroll(4))
                .find("unroll requires a feature tile"),
            std::string::npos);
  EXPECT_NE(err_spmm(ScheduleIr().tile(16).unroll(9))
                .find("unroll factor must be in [1, 8]"),
            std::string::npos);
}

TEST(ScheduleIr, SddmmValidatorAcceptsOnlyTileAndChunk) {
  const std::int64_t edges = 500, len = 32;
  EXPECT_EQ(fg::core::validate_sddmm_ir(ScheduleIr().tile(5).chunk(100),
                                        edges, len, Isa::kScalar),
            "");
  // The reduce axis reassociates (tolerance-class dot) — no lane alignment.
  EXPECT_EQ(fg::core::validate_sddmm_ir(ScheduleIr().tile(13), edges, len,
                                        Isa::kAvx512),
            "");
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().tile(len + 1), edges,
                                        len, Isa::kScalar)
                .find("exceeds reduce length"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().chunk(edges + 1), edges,
                                        len, Isa::kScalar)
                .find("exceeds edge count"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().unroll(2), edges, len,
                                        Isa::kScalar)
                .find("not a legal SDDMM transform"),
            std::string::npos);
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().partition(4), edges, len,
                                        Isa::kScalar)
                .find("not a legal SDDMM transform"),
            std::string::npos);
}

TEST(ScheduleIr, EmptyProgramLowersToFlatFastPath) {
  // Null IR and empty IR both pass the flat knobs through untouched and
  // run feature tiles outermost.
  CpuSpmmSchedule flat;
  flat.feat_tile = 32;
  flat.num_partitions = 4;
  flat.num_threads = 3;
  flat.load_balance = LoadBalance::kStaticRows;
  for (const bool attach_empty : {false, true}) {
    CpuSpmmSchedule s = flat;
    if (attach_empty) s.ir = std::make_shared<const ScheduleIr>();
    const LoweredSpmmPlan plan =
        fg::core::lower_spmm_schedule(s, kRows, kD, Isa::kScalar);
    EXPECT_TRUE(plan.tiles_outermost());
    EXPECT_EQ(plan.feat_tile, 32);
    EXPECT_EQ(plan.num_partitions, 4);
    EXPECT_EQ(plan.num_threads, 3);
    EXPECT_EQ(plan.load_balance, LoadBalance::kStaticRows);
    EXPECT_FALSE(plan.register_block);
  }
}

TEST(ScheduleIr, ProgramIsAuthoritativeOverFlatKnobs) {
  CpuSpmmSchedule s;
  s.feat_tile = 128;  // ignored: the program decides
  s.num_partitions = 16;
  s.num_threads = 2;
  s.ir = std::make_shared<const ScheduleIr>(ScheduleIr()
                                                .chunk(256)
                                                .tile(32)
                                                .unroll(4)
                                                .partition(2)
                                                .split_nnz(
                                                    LoadBalance::kStaticRows));
  const LoweredSpmmPlan plan =
      fg::core::lower_spmm_schedule(s, kRows, kD, Isa::kScalar);
  EXPECT_FALSE(plan.tiles_outermost());
  EXPECT_EQ(plan.row_chunk, 256);
  EXPECT_EQ(plan.feat_tile, 32);
  EXPECT_EQ(plan.unroll, 4);
  EXPECT_TRUE(plan.register_block);
  EXPECT_EQ(plan.num_partitions, 2);
  EXPECT_EQ(plan.load_balance, LoadBalance::kStaticRows);
  EXPECT_EQ(plan.num_threads, 2);  // the one flat knob programs never own
  EXPECT_EQ(plan.tile_for(kD), 32);
}

TEST(ScheduleIr, LoopOrderIsDerivedFromTheProgram) {
  // Tiles run outermost unless the program chunks rows or register-blocks;
  // then they nest inside each thread's row chunks. Partitioning, tiling,
  // the row split and sharding leave the order alone.
  const auto lower = [](const ScheduleIr& ir) {
    CpuSpmmSchedule s;
    s.ir = std::make_shared<const ScheduleIr>(ir);
    return fg::core::lower_spmm_schedule(s, kRows, kD, Isa::kScalar);
  };
  EXPECT_TRUE(lower(ScheduleIr().tile(16)).tiles_outermost());
  EXPECT_TRUE(lower(ScheduleIr().partition(4).tile(16).split_nnz(
                        LoadBalance::kStaticRows))
                  .tiles_outermost());
  EXPECT_TRUE(lower(ScheduleIr().shard(8).tile(16)).tiles_outermost());
  EXPECT_FALSE(lower(ScheduleIr().chunk(64)).tiles_outermost());
  EXPECT_FALSE(lower(ScheduleIr().tile(16).unroll(2)).tiles_outermost());
  EXPECT_FALSE(
      lower(ScheduleIr().partition(4).tile(8).unroll(4).chunk(64))
          .tiles_outermost());
  // tile_for clamps: no tile means the whole feature vector.
  EXPECT_EQ(lower(ScheduleIr().chunk(64)).tile_for(kD), kD);
  EXPECT_EQ(lower(ScheduleIr().tile(16)).tile_for(kD), 16);
}

TEST(ScheduleIr, ProgramHashTracksProgramNotThreads) {
  // Flat knobs and their IR spelling hash identically (the thin-view
  // contract); distinct programs hash apart; num_threads never matters.
  CpuSpmmSchedule flat;
  flat.feat_tile = 32;
  flat.num_partitions = 4;
  CpuSpmmSchedule spelled;
  spelled.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().partition(4).tile(32));
  EXPECT_EQ(fg::core::schedule_program_hash(flat),
            fg::core::schedule_program_hash(spelled));

  CpuSpmmSchedule a, b;
  a.num_threads = 1;
  b.num_threads = 8;
  EXPECT_EQ(fg::core::schedule_program_hash(a),
            fg::core::schedule_program_hash(b));

  CpuSpmmSchedule blocked = a;
  blocked.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().tile(32).unroll(4));
  EXPECT_NE(fg::core::schedule_program_hash(a),
            fg::core::schedule_program_hash(blocked));
  CpuSpmmSchedule blocked2 = a;
  blocked2.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().tile(32).unroll(2));
  EXPECT_NE(fg::core::schedule_program_hash(blocked),
            fg::core::schedule_program_hash(blocked2));
}

TEST(ScheduleIr, GridTunerFirstCandidateIsTheDefaultSchedule) {
  const auto grid = fg::core::default_spmm_ir_candidates(kD, kRows, 1);
  ASSERT_GT(grid.size(), 4u);
  // Candidate #0: no program — lowers to the untuned default schedule,
  // bit-for-bit.
  EXPECT_EQ(grid[0].ir, nullptr);
  EXPECT_EQ(grid[0].feat_tile, 0);
  EXPECT_EQ(grid[0].num_partitions, 1);
  // Every other candidate carries a LEGAL program for the active backend.
  const Isa isa = fg::simd::active_isa();
  bool any_blocked = false;
  for (std::size_t i = 1; i < grid.size(); ++i) {
    ASSERT_NE(grid[i].ir, nullptr) << "candidate " << i;
    EXPECT_EQ(fg::core::validate_spmm_ir(*grid[i].ir, kRows, kD, isa), "")
        << "candidate " << i << ": " << grid[i].ir->describe();
    const auto plan = fg::core::lower_spmm_schedule(grid[i], kRows, kD, isa);
    any_blocked = any_blocked || plan.register_block;
  }
  EXPECT_TRUE(any_blocked);  // the grid must reach the register-blocked path
}

TEST(ScheduleIr, SmartTunerFirstSeedIsTheDefaultSchedule) {
  std::vector<CpuSpmmSchedule> measured;
  fg::core::SmartTuneOptions opts;
  opts.max_trials = 6;
  const auto result = fg::core::tune(
      fg::core::spmm_ir_lattice(kD, kRows, 1),
      [&](const CpuSpmmSchedule& s) {
        measured.push_back(s);
        return 1.0;  // flat cost surface: the seed point stays the winner
      },
      fg::core::Search::climb(opts));
  ASSERT_FALSE(measured.empty());
  EXPECT_LE(result.trials.size(), static_cast<std::size_t>(opts.max_trials));
  // First measurement = the empty program = the default schedule.
  EXPECT_EQ(measured[0].ir, nullptr);
  EXPECT_EQ(fg::core::schedule_program_hash(measured[0]),
            fg::core::schedule_program_hash(CpuSpmmSchedule{}));
  // Every point the climber visits is a legal program.
  const Isa isa = fg::simd::active_isa();
  for (const auto& s : measured) {
    if (s.ir != nullptr) {
      EXPECT_EQ(fg::core::validate_spmm_ir(*s.ir, kRows, kD, isa), "")
          << s.ir->describe();
    }
  }
}

TEST(ScheduleIr, IllegalProgramAtLaunchAborts) {
  // Lowering FG_CHECKs the validator: API misuse dies with the message.
  const auto coo = fg::graph::gen_rmat(64, 4.0, 3);
  const auto csr = fg::graph::coo_to_in_csr(coo);
  const fg::tensor::Tensor x = fg::tensor::Tensor::randn({csr.num_cols, 8}, 1);
  CpuSpmmSchedule s;
  s.ir = std::make_shared<const ScheduleIr>(ScheduleIr().unroll(4));
  fg::core::SpmmOperands ops;
  ops.src_feat = &x;
  EXPECT_DEATH((void)fg::core::spmm(csr, "copy_u", "sum", s, ops),
               "unroll requires a feature tile");
}
