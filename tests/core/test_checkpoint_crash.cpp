// Crash-consistency tests for the checkpoint write protocol, driven by the
// io fault injector: a simulated crash at every syscall boundary of a v2
// checkpoint write (under both legal post-crash outcomes) must leave either
// no file or a fully valid file at the final path, and must never damage a
// previously committed checkpoint.  The exhaustive byte-level sweep lives in
// the hacc_crash_sweep harness (CI); this suite keeps the op-level sweep in
// the tier-1 test run.

#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/fault_fs.hpp"
#include "util/rng.hpp"

namespace hacc::core {
namespace {

ParticleSet random_particles(std::size_t n, std::uint64_t seed) {
  ParticleSet p;
  p.resize(n);
  const util::CounterRng rng(seed);
  std::uint64_t c = 0;
  for (auto* v : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass, &p.h, &p.V,
                  &p.rho, &p.u, &p.P, &p.cs, &p.crk, &p.m0, &p.ax, &p.ay,
                  &p.az, &p.du, &p.vsig, &p.dvel}) {
    for (auto& x : *v) x = static_cast<float>(rng.normal(c++));
  }
  return p;
}

class CheckpointCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!io::fault_injection_compiled()) {
      GTEST_SKIP() << "built with HACC_FAULT_INJECTION=OFF";
    }
    // Per-test directory: ctest -j runs these cases as concurrent processes,
    // and a shared one is wiped by every SetUp/TearDown.
    dir_ = ::testing::TempDir() + "/hacc_ckpt_crash_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    dm_ = random_particles(24, 31);
    gas_ = random_particles(12, 32);
    meta_.box = 25.0;
    meta_.scale_factor = 0.5;
    meta_.step = 3;
    meta_.config_hash = 0xfeed;
  }
  void TearDown() override {
    io::FaultInjector::global().disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  ParticleSet dm_, gas_;
  RunCheckpointMeta meta_;
};

TEST_F(CheckpointCrashTest, EveryOpCrashLeavesNoFileOrAValidFile) {
  // Measure the protocol's op count with a record-only plan.
  const std::string probe = path("probe.ckpt");
  io::FaultInjector::global().arm({});
  ASSERT_TRUE(write_run_checkpoint(probe, dm_, gas_, meta_));
  const auto observed = io::FaultInjector::global().observed();
  io::FaultInjector::global().disarm();
  ASSERT_GE(observed.ops, 5u) << "open + writes + fsync + rename + fsync_dir";

  for (std::uint64_t op = 1; op <= observed.ops; ++op) {
    for (const bool lose : {false, true}) {
      const std::string target = path("crash_op" + std::to_string(op) +
                                      (lose ? "_lose" : "_keep"));
      io::FaultInjector::Plan plan;
      plan.crash_at_op = op;
      plan.lose_unsynced = lose;
      io::FaultInjector::global().arm(plan);
      EXPECT_THROW(write_run_checkpoint(target, dm_, gas_, meta_),
                   io::InjectedCrash)
          << "op " << op;
      io::FaultInjector::global().disarm();

      // Atomicity: the final path either does not exist, or holds a file
      // that passes the full CRC validation (crash after the rename).
      if (std::ifstream(target).good()) {
        RunCheckpointMeta got;
        const CkptResult v = validate_run_checkpoint(target, &got);
        EXPECT_TRUE(v) << "op " << op << " lose=" << lose << ": "
                       << v.message();
        EXPECT_EQ(got.step, meta_.step);
      }
    }
  }
}

TEST_F(CheckpointCrashTest, CrashNeverDamagesTheCommittedCheckpoint) {
  const std::string committed = path("run.ckpt.step1");
  ASSERT_TRUE(write_run_checkpoint(committed, dm_, gas_, meta_));

  RunCheckpointMeta meta2 = meta_;
  meta2.step = 2;
  io::FaultInjector::global().arm({});
  ASSERT_TRUE(write_run_checkpoint(path("probe"), dm_, gas_, meta2));
  const auto observed = io::FaultInjector::global().observed();
  io::FaultInjector::global().disarm();

  for (std::uint64_t op = 1; op <= observed.ops; ++op) {
    for (const bool lose : {false, true}) {
      std::filesystem::remove(path("run.ckpt.step2"));
      std::filesystem::remove(path("run.ckpt.step2.tmp"));
      io::FaultInjector::Plan plan;
      plan.crash_at_op = op;
      plan.lose_unsynced = lose;
      io::FaultInjector::global().arm(plan);
      EXPECT_THROW(
          write_run_checkpoint(path("run.ckpt.step2"), dm_, gas_, meta2),
          io::InjectedCrash);
      io::FaultInjector::global().disarm();

      // The retention invariant: the step-1 file still fully validates at
      // every kill point of the step-2 write.
      const CkptResult v = validate_run_checkpoint(committed);
      ASSERT_TRUE(v) << "op " << op << " lose=" << lose << ": " << v.message();
    }
  }
}

TEST_F(CheckpointCrashTest, TornByteCrashIsDetectedOrAbsent) {
  // A handful of byte-level kill points (the exhaustive byte sweep runs in
  // hacc_crash_sweep): inside the header, inside each payload, inside the
  // trailer.
  io::FaultInjector::global().arm({});
  ASSERT_TRUE(write_run_checkpoint(path("probe"), dm_, gas_, meta_));
  const auto observed = io::FaultInjector::global().observed();
  io::FaultInjector::global().disarm();

  const std::uint64_t kill_bytes[] = {0, 17, 64, 1000, observed.bytes - 10,
                                      observed.bytes - 1};
  for (const std::uint64_t b : kill_bytes) {
    const std::string target = path("torn" + std::to_string(b));
    io::FaultInjector::Plan plan;
    plan.crash_at_byte = b;
    io::FaultInjector::global().arm(plan);
    EXPECT_THROW(write_run_checkpoint(target, dm_, gas_, meta_),
                 io::InjectedCrash)
        << "byte " << b;
    io::FaultInjector::global().disarm();
    EXPECT_FALSE(std::ifstream(target).good())
        << "a write torn at byte " << b
        << " died before the rename; nothing may sit at the final path";
    // The torn .tmp leftover, if any, must be detected as invalid.
    if (std::ifstream(target + ".tmp").good()) {
      EXPECT_FALSE(validate_run_checkpoint(target + ".tmp")) << "byte " << b;
    }
  }
}

TEST_F(CheckpointCrashTest, FailedSyscallsReportTypedErrors) {
  io::FaultInjector::global().arm({});
  ASSERT_TRUE(write_run_checkpoint(path("probe"), dm_, gas_, meta_));
  const auto observed = io::FaultInjector::global().observed();
  io::FaultInjector::global().disarm();

  for (std::uint64_t op = 1; op <= observed.ops; ++op) {
    const std::string target = path("fail" + std::to_string(op));
    io::FaultInjector::Plan plan;
    plan.fail_at_op = op;
    io::FaultInjector::global().arm(plan);
    const CkptResult r = write_run_checkpoint(target, dm_, gas_, meta_);
    io::FaultInjector::global().disarm();
    EXPECT_FALSE(r) << "op " << op << " was injected to fail";
    EXPECT_NE(r.status, CkptStatus::kOk);
    EXPECT_FALSE(r.message().empty());
    // A failed write never leaves a torn file at the final path...
    if (std::ifstream(target).good()) {
      EXPECT_TRUE(validate_run_checkpoint(target))
          << "op " << op << ": only a post-rename failure (dir fsync) may "
          << "leave the file, and then it is complete";
    }
    // ...and cleans up its tmp staging file.
    EXPECT_FALSE(std::ifstream(target + ".tmp").good()) << "op " << op;
  }
}

}  // namespace
}  // namespace hacc::core
