// Runtime lock-order detector contract tests (common/debug_mutex.h,
// common/lock_order.h). The inversion cases run as gtest death tests so the
// detector's abort happens in forked children; everything else enables
// tracking only for the test body. Consistent orderings across tests cannot
// interfere: nodes are keyed by instance, and every DebugMutex here is
// scoped to its test.

#include "common/debug_mutex.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "common/condvar.h"
#include "common/lock_order.h"

namespace eos {
namespace {

/// Arms the detector for one test body (and one death-test child).
class ScopedDetect {
 public:
  ScopedDetect() { lock_order::SetEnabled(true); }
  ~ScopedDetect() { lock_order::SetEnabled(false); }
};

TEST(DebugMutexDeathTest, AbbaInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedDetect detect;
        DebugMutex a("death.A");
        DebugMutex b("death.B");
        {
          std::lock_guard<DebugMutex> la(a);
          std::lock_guard<DebugMutex> lb(b);  // records A -> B
        }
        {
          std::lock_guard<DebugMutex> lb(b);
          std::lock_guard<DebugMutex> la(a);  // B -> A inverts: abort
        }
      },
      "lock-order violation");
}

TEST(DebugMutexDeathTest, DiagnosticNamesBothLocksAndHeldStack) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedDetect detect;
        DebugMutex a("death.Outer");
        DebugMutex b("death.Inner");
        {
          std::lock_guard<DebugMutex> la(a);
          std::lock_guard<DebugMutex> lb(b);
        }
        std::lock_guard<DebugMutex> lb(b);
        std::lock_guard<DebugMutex> la(a);
      },
      "death.Outer.*death.Inner|death.Inner.*death.Outer");
}

TEST(DebugMutexDeathTest, InversionViaThirdLockAborts) {
  // A -> B and B -> C make C -> A an inversion through transitive
  // reachability, even though the pair (C, A) was never ordered directly.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedDetect detect;
        DebugMutex a("death.T.A");
        DebugMutex b("death.T.B");
        DebugMutex c("death.T.C");
        {
          std::lock_guard<DebugMutex> la(a);
          std::lock_guard<DebugMutex> lb(b);
        }
        {
          std::lock_guard<DebugMutex> lb(b);
          std::lock_guard<DebugMutex> lc(c);
        }
        std::lock_guard<DebugMutex> lc(c);
        std::lock_guard<DebugMutex> la(a);
      },
      "lock-order violation");
}

TEST(DebugMutexTest, ConsistentOrderNeverAborts) {
  ScopedDetect detect;
  DebugMutex outer("test.outer");
  DebugMutex inner("test.inner");
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<DebugMutex> lo(outer);
    std::lock_guard<DebugMutex> li(inner);
  }
  SUCCEED();
}

TEST(DebugMutexTest, HeldCountTracksAcquireAndRelease) {
  ScopedDetect detect;
  EXPECT_EQ(lock_order::HeldCount(), 0);
  DebugMutex a("test.held.a");
  DebugMutex b("test.held.b");
  {
    std::lock_guard<DebugMutex> la(a);
    EXPECT_EQ(lock_order::HeldCount(), 1);
    {
      std::lock_guard<DebugMutex> lb(b);
      EXPECT_EQ(lock_order::HeldCount(), 2);
    }
    EXPECT_EQ(lock_order::HeldCount(), 1);
  }
  EXPECT_EQ(lock_order::HeldCount(), 0);
}

TEST(DebugMutexTest, TryLockRecordsOnlyOnSuccess) {
  ScopedDetect detect;
  DebugMutex mu("test.try");
  ASSERT_TRUE(mu.try_lock());
  EXPECT_EQ(lock_order::HeldCount(), 1);
  // A failed try on another thread must record nothing there (held sets
  // are per-thread; the global enable from ScopedDetect covers both).
  std::thread blocked([&] {
    EXPECT_FALSE(mu.try_lock());
    EXPECT_EQ(lock_order::HeldCount(), 0);
  });
  blocked.join();
  mu.unlock();
  EXPECT_EQ(lock_order::HeldCount(), 0);
}

TEST(DebugMutexTest, DisabledDetectorIgnoresInversions) {
  // With tracking off both orders of the same pair are silent — the
  // process must NOT abort.
  ASSERT_FALSE(lock_order::Enabled());
  DebugMutex a("test.off.a");
  DebugMutex b("test.off.b");
  {
    std::lock_guard<DebugMutex> la(a);
    std::lock_guard<DebugMutex> lb(b);
  }
  {
    std::lock_guard<DebugMutex> lb(b);
    std::lock_guard<DebugMutex> la(a);
  }
  EXPECT_EQ(lock_order::HeldCount(), 0);
}

TEST(DebugMutexTest, DestroyedInstanceRetiresItsEdges) {
  // Record outer -> inner, destroy inner, then recreate a fresh lock and
  // take it in the opposite order: instance keying plus edge retirement
  // means no stale ordering can survive, so this must not abort.
  ScopedDetect detect;
  DebugMutex outer("test.retire.outer");
  {
    DebugMutex inner("test.retire.inner");
    std::lock_guard<DebugMutex> lo(outer);
    std::lock_guard<DebugMutex> li(inner);
  }
  DebugMutex reborn("test.retire.reborn");
  std::lock_guard<DebugMutex> lr(reborn);
  std::lock_guard<DebugMutex> lo(outer);
  SUCCEED();
}

TEST(DebugMutexTest, InstanceKeyingAllowsPerObjectLocking) {
  // Two threads each locking their own pair in opposite member order is
  // NOT an inversion: the four locks are four distinct nodes.
  ScopedDetect detect;
  DebugMutex a1("test.inst.mu_");
  DebugMutex b1("test.inst.mu_");
  DebugMutex a2("test.inst.mu_");
  DebugMutex b2("test.inst.mu_");
  {
    std::lock_guard<DebugMutex> l1(a1);
    std::lock_guard<DebugMutex> l2(b1);
  }
  {
    std::lock_guard<DebugMutex> l2(b2);
    std::lock_guard<DebugMutex> l1(a2);
  }
  SUCCEED();
}

TEST(DebugMutexTest, CondVarWaitKeepsHeldBookkeeping) {
  ScopedDetect detect;
  DebugMutex mu("test.cv.mu");
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    std::lock_guard<DebugMutex> lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    std::unique_lock<DebugMutex> lock(mu);
    cv.Wait(lock, mu, [&] { return ready; });
    // The wait's internal unlock/relock must not disturb the held set.
    EXPECT_EQ(lock_order::HeldCount(), 1);
  }
  EXPECT_EQ(lock_order::HeldCount(), 0);
  notifier.join();
}

TEST(DebugMutexTest, EnableMidRunStartsCleanAndDisableFreezes) {
  DebugMutex mu("test.midrun");
  mu.lock();  // acquired while tracking is off: never recorded
  lock_order::SetEnabled(true);
  EXPECT_EQ(lock_order::HeldCount(), 0);
  mu.unlock();  // release of an untracked lock must not underflow
  EXPECT_EQ(lock_order::HeldCount(), 0);
  lock_order::SetEnabled(false);
}

/// Locks `mu` from its destructor, i.e. during thread exit.
struct LocksAtThreadExit {
  DebugMutex* mu = nullptr;
  ~LocksAtThreadExit() {
    if (mu != nullptr) std::lock_guard<DebugMutex> lock(*mu);
  }
};

TEST(DebugMutexTest, LockingAfterThreadStateTeardownIsSafe) {
  // thread_local destructors run in reverse construction order. `guard` is
  // constructed before the thread's first tracked acquisition creates the
  // detector's per-thread state, so the state is destroyed first and the
  // lock in ~LocksAtThreadExit arrives after it — the same order as a
  // static destructor locking on the main thread at process exit. The
  // hooks must skip it instead of touching the freed state (ASan-checked
  // in the sanitizer build).
  ScopedDetect detect;
  DebugMutex mu("test.thread_exit");
  std::thread worker([&mu] {
    thread_local LocksAtThreadExit guard;
    guard.mu = &mu;
    std::lock_guard<DebugMutex> lock(mu);
    EXPECT_EQ(lock_order::HeldCount(), 1);
  });
  worker.join();
  std::lock_guard<DebugMutex> lock(mu);
  EXPECT_EQ(lock_order::HeldCount(), 1);
}

}  // namespace
}  // namespace eos
