// Deterministic discrete-event engine driving the machine simulation.
//
// The engine is sharded: every cluster of the simulated machine owns one
// event-queue shard, plus one "global" shard for host-scheduled events
// (fault injections, OS launches, anything scheduled from outside the
// simulation).  Execution proceeds in *phases*: all cluster events inside a
// virtual-time window [B, B+W) run, then a barrier, then the next phase.
// W (the lookahead) equals the inter-cluster network launch latency, so a
// message sent during a phase can only be delivered in a later phase —
// cross-shard deliveries are exchanged exclusively at the barriers.  This
// is a conservative synchronous-window PDES scheme: with more than one
// host thread the shards of a phase execute in parallel, and because every
// event carries a totally-ordered key (time, origin shard, origin
// sequence) that is allocated identically in serial and parallel mode, the
// results are bit-identical to the serial engine for every seed.
//
// Events at equal virtual time execute in key order, so runs are
// bit-reproducible regardless of FEM2_HOST_THREADS.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "hw/config.hpp"

namespace fem2::hw {

/// Total order on events.  `shard` and `seq` identify the scheduling
/// context that created the event (its *origin*), not the queue it sits
/// in; the pair (shard, seq) is globally unique because each shard
/// allocates its own monotonic sequence numbers.
struct EventKey {
  Cycles time = 0;
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.time == b.time && a.shard == b.shard && a.seq == b.seq;
  }
  friend bool operator!=(const EventKey& a, const EventKey& b) {
    return !(a == b);
  }
  friend bool operator<=(const EventKey& a, const EventKey& b) {
    return !(b < a);
  }
};

/// A reserved scheduling identity: lets a layer draw the (shard, seq) pair
/// for a future event *now* — while the origin context is executing — and
/// materialize the event later (e.g. at a window barrier).  Reserving at
/// send time keeps sequence-counter advancement identical between the
/// serial and parallel engines.
struct EventOrigin {
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
};

/// Host worker-thread count from FEM2_HOST_THREADS (1..256), or
/// `fallback` when it is unset or out of range.
unsigned host_threads(unsigned fallback);

class Engine {
 public:
  using Action = std::function<void()>;
  using Hook = std::function<void()>;

  /// The worker-pool size starts at host_threads(1).
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- topology ---------------------------------------------------------
  /// Split the engine into `clusters` cluster shards plus one global
  /// shard, with window/lookahead `window` cycles.  Called once by the
  /// Machine before any event is scheduled.  A window of 0 disables
  /// parallel phases (every event runs in its own single-instant phase).
  void configure(std::uint32_t clusters, Cycles window);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// The shard host-context events are scheduled on (always the last).
  std::uint32_t global_shard() const { return shard_count() - 1; }
  Cycles window() const { return window_; }

  // --- host threads -----------------------------------------------------
  unsigned threads() const { return threads_; }
  /// Set the worker-pool size (1 = serial).  Must not be called while
  /// run() is executing.  Results are identical for every value.
  void set_threads(unsigned n);

  // --- scheduling context ----------------------------------------------
  /// Virtual time of the current context: the executing event's time on
  /// its shard, or the time of the last executed event from the host.
  Cycles now() const;
  /// Shard of the current context (the global shard from the host).
  std::uint32_t current_shard() const;
  /// True while a parallel phase is executing — shared state needs its
  /// lock, and cross-shard work must go through sequenced().
  bool in_worker_phase() const { return in_worker_phase_; }

  /// Run `effect` where the serial engine would: at once outside a
  /// parallel phase, or — inside one — after the workers join, when every
  /// effect deferred during the phase replays on the coordinator in the
  /// key order of the events that deferred it (effects of one event keep
  /// their call order).  Cross-shard work (network launches, trace
  /// records, observer callbacks) funnels through here, so its order is
  /// thread-count invariant.  `effect` must capture its arguments by value.
  template <class F>
  void sequenced(F&& effect) {
    if (!in_worker_phase_) {
      effect();
      return;
    }
    shards_[current_shard()].deferred.push_back(
        Event{current_key(), Action(std::forward<F>(effect))});
  }

  // --- scheduling -------------------------------------------------------
  /// Schedule `action` on the current context's shard, `delay` cycles
  /// from now().
  void schedule(Cycles delay, Action action);

  /// Schedule on the current context's shard at absolute time >= now().
  void schedule_at(Cycles time, Action action);

  /// Schedule on an explicit shard.  From a parallel phase only the
  /// executing shard itself is a legal target; cross-shard scheduling is
  /// reserved for barrier/host/global contexts.
  void schedule_on(std::uint32_t shard, Cycles time, Action action);

  /// Draw an event identity from the current context's shard.
  EventOrigin reserve_origin();

  /// Materialize an event with a previously reserved identity.
  void schedule_reserved(std::uint32_t shard, Cycles time, EventOrigin origin,
                         Action action);

  // --- execution --------------------------------------------------------
  /// Run until the event queues are empty.  Returns events processed.
  std::uint64_t run();

  /// Run until the queues are empty or virtual time would exceed `limit`.
  std::uint64_t run_until(Cycles limit);

  bool idle() const;
  std::size_t pending() const;
  std::uint64_t processed() const;

  // --- hooks ------------------------------------------------------------
  /// Invoked at every quiescent point: after a phase (or a global event)
  /// ran and no further event is pending at the same virtual time, so all
  /// state transitions of this instant have settled.  The hook must
  /// observe, not mutate, the simulation.  Pass {} to detach.
  void set_quiescent_hook(Hook hook) { quiescent_hook_ = std::move(hook); }

  /// Invoked when a run() / run_until() drains the queues completely after
  /// processing at least one event.  Used to detect simulations that went
  /// idle with live tasks remaining (deadlock / starvation).
  void set_idle_hook(Hook hook) { idle_hook_ = std::move(hook); }

  /// Invoked whenever virtual time crosses a window boundary B (before
  /// any event at time >= B executes): every event with time < B has
  /// executed.  With window 0 this fires before every phase.  Used for
  /// periodically refreshed global state (e.g. the OS load board).
  void add_refresh_hook(Hook hook);

 private:
  struct Event {
    EventKey key;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return b.key < a.key;
    }
  };

  struct Shard {
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    EventKey last_key;  ///< key of this shard's last executed event
    std::exception_ptr error;
    EventKey error_key;
    /// This phase's sequenced() effects, keyed by the deferring event.
    std::vector<Event> deferred;
  };

  /// Thread-local execution context: set while an event's action runs.
  struct Context {
    const Engine* engine = nullptr;
    std::uint32_t shard = 0;
    EventKey key;
  };
  static thread_local Context* context_;

  bool in_context() const {
    return context_ != nullptr && context_->engine == this;
  }
  /// Key of the event currently executing (host context: a synthetic key
  /// at now() on the global shard).
  EventKey current_key() const;

  /// Pop and execute one event on `shard` with the proper context.
  void execute(std::uint32_t shard);
  /// Drain `shard` of all events with key < stop.  Exceptions are stashed
  /// in the shard (worker mode).
  void drain_shard(std::uint32_t shard, const EventKey& stop);
  /// Worker-pool thread body.
  void worker_main(unsigned slot, std::uint64_t seen);
  void ensure_pool();
  void stop_pool();
  /// Replay every shard's deferred effects in key order (coordinator).
  void run_deferred();
  void fire_refresh_up_to(Cycles next_time);
  void maybe_quiescent(Cycles settled);
  void rethrow_phase_error();

  std::vector<Shard> shards_{1};  ///< unconfigured: one (global) shard
  Cycles window_ = 0;
  Cycles host_now_ = 0;    ///< time of the last executed event
  Cycles next_refresh_ = 0;  ///< next window boundary to announce
  bool running_ = false;
  bool in_worker_phase_ = false;

  Hook quiescent_hook_;
  Hook idle_hook_;
  std::vector<Hook> refresh_hooks_;

  // Worker pool.  Workers spin on phase_epoch_; the coordinator publishes
  // phase_stop_ / in_worker_phase_ before bumping the epoch (release), and
  // workers acquire it, so all shard state written between phases is
  // visible to the owning worker and vice versa via phase_pending_.
  unsigned threads_ = 1;
  unsigned pool_stride_ = 0;  ///< participants per phase (incl. coordinator)
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> phase_epoch_{0};
  std::atomic<unsigned> phase_pending_{0};
  std::atomic<bool> pool_stop_{false};
  EventKey phase_stop_;
};

/// Ids drawn without synchronization by whichever shard is running: of S
/// shards, shard s hands out s+1, s+1+S, s+1+2S, ... from its own counter,
/// so ids are unique and serial and parallel runs draw identical values.
class StripedIds {
 public:
  explicit StripedIds(const Engine& engine) : next_(engine.shard_count(), 0) {}

  std::uint64_t next(const Engine& engine) {
    const std::uint32_t shard = engine.current_shard();
    return next_[shard]++ * next_.size() + shard + 1;
  }

 private:
  std::vector<std::uint64_t> next_;  ///< per shard: ids drawn so far
};

}  // namespace fem2::hw
