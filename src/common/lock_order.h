#ifndef EOS_COMMON_LOCK_ORDER_H_
#define EOS_COMMON_LOCK_ORDER_H_

#include <cstdint>

/// \file
/// Runtime lock-order deadlock detection: the global acquisition-order graph
/// behind eos::DebugMutex (common/debug_mutex.h).
///
/// Model: every live DebugMutex registers an instance node. When a thread
/// acquires lock B while holding locks {A1..An}, directed edges Ai -> B are
/// recorded in a process-wide graph. Before an edge is added, the detector
/// checks whether the reverse direction is already reachable (B ~> Ai); if
/// so, two call sites disagree about the order of the same pair of locks —
/// the classic ABBA deadlock, caught deterministically on the *first*
/// inverted acquisition, even when the interleaving that would actually
/// deadlock never happens in the run. The process aborts printing both
/// sides: the lock names this thread holds right now, and the held-lock
/// names recorded when the conflicting edge was first drawn.
///
/// Nodes are keyed by *instance*, not by class or name: two shards each
/// locking their own `set_mu_` never interact, so same-class hierarchical
/// locking (pool of workers, vector of servers) produces no false
/// positives. Destroying a DebugMutex retires its node and every incident
/// edge, so an id freed by one subsystem cannot poison another.
///
/// Cost model: detection is a runtime switch (one relaxed atomic load per
/// acquisition when off). When on, each thread keeps a cache of edges it
/// has already recorded; re-acquiring in an already-seen order touches no
/// shared state. Only the first acquisition of a novel ordered pair takes
/// the detector's internal (leaf) mutex. The compiled-in default is OFF
/// unless the build sets -DEOS_ENABLE_DEADLOCK_DETECT; the environment
/// variable EOS_DEADLOCK_DETECT=0/1 overrides either default at startup,
/// which is how the chaos/fleet ctest variants arm the detector without a
/// separate build tree.

namespace eos::lock_order {

/// Whether acquisitions are currently being tracked. Cheap (relaxed load);
/// DebugMutex consults it on every operation.
bool Enabled();

/// Flips tracking at runtime. Enabling mid-run is safe: edges simply start
/// recording from now. Disabling mid-run is safe for detection (no aborts)
/// but leaves per-thread held sets frozen; intended for tests.
void SetEnabled(bool enabled);

/// Registers a lock instance under a human-readable name (e.g.
/// "Fleet.deploy_mu_"). Returns its node id. Thread-safe.
uint32_t Register(const char* name);

/// Retires a lock instance: drops its node and all incident edges.
void Unregister(uint32_t id);

/// Records that the calling thread is acquiring `id`: draws edges from
/// every lock the thread currently holds, aborting with a diagnostic on the
/// first ordering inversion, then pushes `id` onto the thread's held set.
/// Once the thread's own detector state has been destroyed at thread exit
/// (e.g. a static destructor locking on the main thread after its
/// thread_locals are gone), this and OnRelease are no-ops.
void OnAcquire(uint32_t id);

/// Records that the calling thread released `id` (removes the most recent
/// matching entry from the thread's held set; no-op when absent, so
/// enabling mid-run never underflows).
void OnRelease(uint32_t id);

/// Number of locks the calling thread currently holds according to the
/// detector. Exposed for tests.
int HeldCount();

}  // namespace eos::lock_order

#endif  // EOS_COMMON_LOCK_ORDER_H_
