#include "common/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace eos::lock_order {

namespace {

bool InitialEnabled() {
#ifdef EOS_ENABLE_DEADLOCK_DETECT
  bool enabled = true;
#else
  bool enabled = false;
#endif
  const char* env = std::getenv("EOS_DEADLOCK_DETECT");
  if (env != nullptr && env[0] != '\0') enabled = env[0] != '0';
  return enabled;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag(InitialEnabled());
  return flag;
}

/// One recorded edge `from -> to`: the first acquisition of `to` while
/// holding `from`, with the acquiring thread's held-lock names snapshotted
/// for the abort diagnostic.
struct Edge {
  uint32_t to = 0;
  std::string holder_stack;  // "A -> B -> C" at record time
};

/// The process-wide detector. Its own mutex is a plain std::mutex and a
/// strict leaf: no callback or foreign lock is ever taken under it, so the
/// detector cannot itself participate in a deadlock.
class Detector {
 public:
  static Detector& Get() {
    static Detector* instance = new Detector();  // lint:allow(naked-new)
    return *instance;  // intentionally leaked: threads may outlive main
  }

  uint32_t Register(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t id = next_id_++;
    names_[id] = name;
    return id;
  }

  void Unregister(uint32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    names_.erase(id);
    edges_.erase(id);
    for (auto& [from, out] : edges_) {
      (void)from;  // structured binding required; only `out` is used
      out.erase(id);
    }
    // Per-thread caches may hold edges through this node; make every
    // thread rebuild on its next acquisition.
    epoch_.fetch_add(1, std::memory_order_release);
  }

  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Records edges {held} -> id, aborting on the first inversion.
  void AddEdges(const std::vector<uint32_t>& held, uint32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t from : held) {
      if (from == id) continue;  // recursive re-acquire reported elsewhere
      auto [it, inserted] = edges_[from].try_emplace(id);
      if (!inserted) continue;  // edge already known, already checked
      if (Reaches(id, from)) {
        edges_[from].erase(id);
        AbortWithCycle(held, from, id);
      }
      it->second.holder_stack = NamesLocked(held);
    }
  }

 private:
  Detector() = default;

  /// DFS: is `target` reachable from `start` in the edge graph?
  bool Reaches(uint32_t start, uint32_t target) const REQUIRES(mu_) {
    std::vector<uint32_t> stack{start};
    std::set<uint32_t> seen{start};
    while (!stack.empty()) {
      uint32_t node = stack.back();
      stack.pop_back();
      if (node == target) return true;
      auto it = edges_.find(node);
      if (it == edges_.end()) continue;
      for (const auto& [to, edge] : it->second) {
        (void)edge;  // structured binding required; only the key is used
        if (seen.insert(to).second) stack.push_back(to);
      }
    }
    return false;
  }

  std::string NameLocked(uint32_t id) const REQUIRES(mu_) {
    auto it = names_.find(id);
    return it == names_.end() ? "<retired>" : it->second;
  }

  std::string NamesLocked(const std::vector<uint32_t>& ids) const
      REQUIRES(mu_) {
    std::string out;
    for (uint32_t id : ids) {
      if (!out.empty()) out += " -> ";
      out += NameLocked(id);
    }
    return out;
  }

  /// Prints the inversion — this thread's held stack and the held stack
  /// recorded when the opposing path was first drawn — then aborts.
  [[noreturn]] void AbortWithCycle(const std::vector<uint32_t>& held,
                                   uint32_t from, uint32_t to)
      REQUIRES(mu_) {
    std::string path = CyclePathLocked(to, from);
    std::fprintf(stderr,
                 "eos lock-order violation: acquiring \"%s\" while holding "
                 "\"%s\" inverts the established order %s\n"
                 "  this thread holds:        %s\n",
                 NameLocked(to).c_str(), NameLocked(from).c_str(),
                 path.c_str(), NamesLocked(held).c_str());
    // Walk the opposing path and print the holder stack recorded on each
    // edge: together with the lines above, both sides of the deadlock.
    uint32_t node = to;
    while (node != from) {
      uint32_t next = NextOnPathLocked(node, from);
      auto it = edges_.find(node);
      const Edge& edge = it->second.find(next)->second;
      std::fprintf(stderr,
                   "  edge %s -> %s first recorded while holding: %s\n",
                   NameLocked(node).c_str(), NameLocked(next).c_str(),
                   edge.holder_stack.c_str());
      node = next;
    }
    std::abort();
  }

  /// "to -> ... -> from" as a printable path (exists by construction: the
  /// abort fires only when Reaches(to, from) held).
  std::string CyclePathLocked(uint32_t to, uint32_t from) const
      REQUIRES(mu_) {
    std::string out = NameLocked(to);
    uint32_t node = to;
    while (node != from) {
      node = NextOnPathLocked(node, from);
      out += " -> ";
      out += NameLocked(node);
    }
    out += " -> ";
    out += NameLocked(to);
    return out;
  }

  /// First hop of some path node ~> target (DFS with parent links).
  uint32_t NextOnPathLocked(uint32_t node, uint32_t target) const
      REQUIRES(mu_) {
    auto it = edges_.find(node);
    for (const auto& [to, edge] : it->second) {
      (void)edge;  // structured binding required; only the key is used
      if (to == target || Reaches(to, target)) return to;
    }
    std::fprintf(stderr, "eos lock-order: internal path walk failed\n");
    std::abort();
  }

  mutable std::mutex mu_;
  uint32_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<uint32_t, std::string> names_ GUARDED_BY(mu_);
  std::map<uint32_t, std::map<uint32_t, Edge>> edges_ GUARDED_BY(mu_);
  std::atomic<uint64_t> epoch_{1};
};

/// Set once this thread's ThreadState has been destroyed. A bool is
/// trivially destructible, so it stays readable for the rest of the
/// thread's exit: thread_local destructors constructed earlier, and — on
/// the main thread — the static destructors that run after every
/// thread_local is gone (the global pool's ~ThreadPool locks its
/// DebugMutex there).
thread_local bool t_state_destroyed = false;

/// Per-thread acquisition state: the held-lock stack plus a cache of edge
/// pairs this thread has already pushed to the global graph (packed
/// from<<32|to), valid for one registry epoch.
struct ThreadState {
  std::vector<uint32_t> held;
  std::set<uint64_t> seen_edges;
  uint64_t epoch = 0;

  ~ThreadState() { t_state_destroyed = true; }
};

/// This thread's state, or null once it has been destroyed at thread exit;
/// acquisitions after that point go untracked instead of touching freed
/// memory.
ThreadState* State() {
  if (t_state_destroyed) return nullptr;
  thread_local ThreadState state;
  return &state;
}

}  // namespace

bool Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

uint32_t Register(const char* name) {
  return Detector::Get().Register(name);
}

void Unregister(uint32_t id) { Detector::Get().Unregister(id); }

void OnAcquire(uint32_t id) {
  ThreadState* state = State();
  if (state == nullptr) return;
  uint64_t epoch = Detector::Get().Epoch();
  if (state->epoch != epoch) {
    state->seen_edges.clear();
    state->epoch = epoch;
  }
  bool any_novel = false;
  for (uint32_t from : state->held) {
    uint64_t packed = (static_cast<uint64_t>(from) << 32) | id;
    if (state->seen_edges.insert(packed).second) any_novel = true;
  }
  if (any_novel) Detector::Get().AddEdges(state->held, id);
  state->held.push_back(id);
}

void OnRelease(uint32_t id) {
  ThreadState* state = State();
  if (state == nullptr) return;
  std::vector<uint32_t>& held = state->held;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == id) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

int HeldCount() {
  ThreadState* state = State();
  return state == nullptr ? 0 : static_cast<int>(state->held.size());
}

}  // namespace eos::lock_order
