// The step propagator: declaration-order serial execution, dependency
// enforcement under lanes, failure poisoning, and the overlap accounting
// the runner's sched.* metrics are built on.

#include "sched/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace hacc::sched {
namespace {

TEST(TaskGraph, AddValidatesNamesDepsAndBodies) {
  TaskGraph g;
  const auto noop = [] {};
  EXPECT_THROW(g.add("", {}, noop), std::invalid_argument);
  EXPECT_THROW(g.add("Bad", {}, noop), std::invalid_argument);
  EXPECT_THROW(g.add("1st", {}, noop), std::invalid_argument);
  EXPECT_THROW(g.add("has.dot", {}, noop), std::invalid_argument);
  EXPECT_THROW(g.add("fwd", {0}, noop), std::invalid_argument);  // self/forward
  EXPECT_THROW(g.add("nobody", {}, nullptr), std::invalid_argument);

  EXPECT_EQ(g.add("first", {}, noop), 0u);
  EXPECT_EQ(g.add("second", {0}, noop), 1u);
  EXPECT_THROW(g.add("third", {2}, noop), std::invalid_argument);
  EXPECT_EQ(g.size(), 2u);
}

TEST(StageExecutor, ZeroLanesRunsDeclarationOrderOnTheCaller) {
  std::vector<int> order;
  const auto tid = std::this_thread::get_id();
  bool off_caller = false;
  TaskGraph g;
  g.add("alpha", {}, [&] {
    order.push_back(0);
    off_caller |= std::this_thread::get_id() != tid;
  });
  g.add("beta", {}, [&] { order.push_back(1); });
  g.add("gamma", {0}, [&] { order.push_back(2); });

  StageExecutor exec(0);
  EXPECT_EQ(exec.lanes(), 0u);
  const RunResult r = exec.run(g);

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(off_caller);
  ASSERT_EQ(r.stages.size(), 3u);
  EXPECT_EQ(r.stages[0].name, "alpha");
  EXPECT_EQ(r.stages[2].name, "gamma");
  for (const auto& t : r.stages) {
    EXPECT_TRUE(t.ran);
    EXPECT_GE(t.wall_seconds(), 0.0);
  }
  EXPECT_GE(r.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.overlap_seconds(), 0.0);
}

TEST(StageExecutor, ZeroLanesThrowPropagatesImmediately) {
  bool later_ran = false;
  TaskGraph g;
  g.add("boom", {}, [] { throw std::runtime_error("boom"); });
  g.add("after", {}, [&] { later_ran = true; });

  StageExecutor exec(0);
  EXPECT_THROW(exec.run(g), std::runtime_error);
  // Serial semantics are exactly the inline code path: nothing after the
  // throwing statement executes.
  EXPECT_FALSE(later_ran);

  // The executor stays usable after a failed run.
  TaskGraph ok;
  ok.add("fine", {}, [&] { later_ran = true; });
  exec.run(ok);
  EXPECT_TRUE(later_ran);
}

TEST(StageExecutor, LanesRespectDependencyEdges) {
  // Diamond: head -> {left, right} -> tail.  Whatever the interleaving,
  // settle order must respect the edges.
  util::Mutex mu;
  std::vector<std::string> done;
  const auto mark = [&](const char* name) {
    util::MutexLock lock(mu);
    done.push_back(name);
  };
  TaskGraph g;
  const auto head = g.add("head", {}, [&] { mark("head"); });
  const auto left = g.add("left", {head}, [&] { mark("left"); });
  const auto right = g.add("right", {head}, [&] { mark("right"); });
  g.add("tail", {left, right}, [&] { mark("tail"); });

  StageExecutor exec(2);
  EXPECT_EQ(exec.lanes(), 2u);
  for (int round = 0; round < 20; ++round) {
    done.clear();
    const RunResult r = exec.run(g);
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done.front(), "head");
    EXPECT_EQ(done.back(), "tail");
    for (const auto& t : r.stages) EXPECT_TRUE(t.ran);
  }
}

TEST(StageExecutor, IndependentStagesActuallyOverlap) {
  // One lane plus the caller: two independent stages that each wait for the
  // other to start can only finish if they run concurrently.
  std::atomic<int> started{0};
  const auto rendezvous = [&] {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "stages never overlapped";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Measurable post-rendezvous work: both stages burn this window at the
    // same time, so the back-to-back sum exceeds the graph wall by ~50 ms.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  TaskGraph g;
  g.add("ping", {}, rendezvous);
  g.add("pong", {}, rendezvous);

  StageExecutor exec(1);
  const RunResult r = exec.run(g);
  EXPECT_EQ(started.load(), 2);
  // Both stages spent their wall waiting on each other, so the back-to-back
  // sum is roughly twice the graph wall.
  EXPECT_GT(r.overlap_seconds(), 0.0);
}

TEST(StageExecutor, FailurePoisonsTransitiveDependentsOnly) {
  std::atomic<bool> sibling_ran{false};
  std::atomic<bool> dependent_ran{false};
  TaskGraph g;
  const auto ok = g.add("ok", {}, [&] { sibling_ran = true; });
  const auto bad = g.add("bad", {}, [] { throw std::runtime_error("bad hit"); });
  const auto child = g.add("child", {bad}, [&] { dependent_ran = true; });
  g.add("grandchild", {child, ok}, [&] { dependent_ran = true; });

  StageExecutor exec(2);
  try {
    exec.run(g);
    FAIL() << "expected the stage failure to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad hit");
  }
  EXPECT_TRUE(sibling_ran.load());      // independent stage unaffected
  EXPECT_FALSE(dependent_ran.load());   // skipped, transitively
}

TEST(StageExecutor, FirstFailureByDeclarationIndexIsRethrown) {
  // With lanes both failing stages run; the rethrow is deterministic: the
  // earliest declared failure wins regardless of completion order.
  TaskGraph g;
  g.add("early", {}, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("early");
  });
  g.add("late", {}, [] { throw std::logic_error("late"); });

  StageExecutor exec(1);
  for (int round = 0; round < 5; ++round) {
    try {
      exec.run(g);
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "early");
    } catch (const std::logic_error&) {
      FAIL() << "later-declared failure rethrown instead of the first";
    }
  }
}

TEST(StageExecutor, ReusableAcrossManyRuns) {
  StageExecutor exec(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    TaskGraph g;
    const auto a = g.add("a", {}, [&] { total.fetch_add(1); });
    g.add("b", {a}, [&] { total.fetch_add(1); });
    const RunResult r = exec.run(g);
    ASSERT_EQ(r.stages.size(), 2u);
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(StageExecutor, TracedLaneExportsItsSchedName) {
  // The lane names itself before tracing has recorded anything on it; the
  // name must still reach the lane once its first span registers a ring.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  {
    // Both stages wait for each other, so the lane must run one of them.
    std::atomic<int> started{0};
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto rendezvous = [&] {
      started.fetch_add(1);
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    TaskGraph g;
    g.add("ping", {}, rendezvous);
    g.add("pong", {}, rendezvous);
    StageExecutor exec(1);
    exec.run(g);
  }
  tracer.disable();
  bool named = false;
  for (const auto& lane : tracer.snapshot()) {
    if (lane.thread_name == "sched-0" && !lane.events.empty()) named = true;
  }
  EXPECT_TRUE(named);
  tracer.clear();
}

}  // namespace
}  // namespace hacc::sched
