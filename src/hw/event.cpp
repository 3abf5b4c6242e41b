#include "hw/event.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "support/check.hpp"

namespace fem2::hw {

thread_local Engine::Context* Engine::context_ = nullptr;

unsigned host_threads(unsigned fallback) {
  if (const char* env = std::getenv("FEM2_HOST_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v >= 1 && v <= 256) return static_cast<unsigned>(v);
  }
  return fallback;
}

Engine::Engine() : threads_(host_threads(1)) {}

Engine::~Engine() { stop_pool(); }

void Engine::configure(std::uint32_t clusters, Cycles window) {
  FEM2_CHECK_MSG(!running_, "cannot reconfigure a running engine");
  FEM2_CHECK_MSG(shards_.size() == 1 && shards_[0].queue.empty() &&
                     shards_[0].next_seq == 0,
                 "engine must be configured before any event is scheduled");
  FEM2_CHECK(clusters >= 1);
  shards_ = std::vector<Shard>(clusters + 1);
  window_ = window;
  next_refresh_ = window;
}

void Engine::set_threads(unsigned n) {
  FEM2_CHECK_MSG(!running_, "cannot resize the pool while running");
  threads_ = std::max(1u, n);
  stop_pool();
}

Cycles Engine::now() const {
  return in_context() ? context_->key.time : host_now_;
}

std::uint32_t Engine::current_shard() const {
  return in_context() ? context_->shard : global_shard();
}

EventKey Engine::current_key() const {
  return in_context() ? context_->key
                      : EventKey{host_now_, global_shard(), 0};
}

void Engine::schedule(Cycles delay, Action action) {
  schedule_on(current_shard(), now() + delay, std::move(action));
}

void Engine::schedule_at(Cycles time, Action action) {
  schedule_on(current_shard(), time, std::move(action));
}

void Engine::schedule_on(std::uint32_t shard, Cycles time, Action action) {
  schedule_reserved(shard, time, reserve_origin(), std::move(action));
}

EventOrigin Engine::reserve_origin() {
  const std::uint32_t s = current_shard();
  return EventOrigin{s, shards_[s].next_seq++};
}

void Engine::schedule_reserved(std::uint32_t shard, Cycles time,
                               EventOrigin origin, Action action) {
  FEM2_CHECK_MSG(time >= now(), "cannot schedule an event in the past");
  FEM2_CHECK(action != nullptr);
  FEM2_CHECK(shard < shard_count());
  if (in_worker_phase_ && in_context()) {
    FEM2_CHECK_MSG(shard == context_->shard,
                   "cross-shard scheduling from a parallel phase");
  }
  shards_[shard].queue.push(
      Event{EventKey{time, origin.shard, origin.seq}, std::move(action)});
}

std::uint64_t Engine::run() { return run_until(~Cycles{0}); }

bool Engine::idle() const {
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) return false;
  }
  return true;
}

std::size_t Engine::pending() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.queue.size();
  return n;
}

std::uint64_t Engine::processed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.executed;
  return n;
}

void Engine::add_refresh_hook(Hook hook) {
  FEM2_CHECK(hook != nullptr);
  refresh_hooks_.push_back(std::move(hook));
}

void Engine::run_deferred() {
  std::vector<Event> all;
  for (Shard& sh : shards_) {
    std::move(sh.deferred.begin(), sh.deferred.end(), std::back_inserter(all));
    sh.deferred.clear();
  }
  // Keys never collide across shards, and the effects of one event sit in
  // one shard's list in call order, which stable_sort keeps.
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.key < b.key; });
  for (Event& e : all) e.action();
}

void Engine::fire_refresh_up_to(Cycles next_time) {
  if (refresh_hooks_.empty()) return;
  if (window_ == 0) {
    for (Hook& h : refresh_hooks_) h();
    return;
  }
  while (next_refresh_ <= next_time) {
    for (Hook& h : refresh_hooks_) h();
    next_refresh_ += window_;
  }
}

void Engine::maybe_quiescent(Cycles settled) {
  if (!quiescent_hook_) return;
  for (const Shard& s : shards_) {
    if (!s.queue.empty() && s.queue.top().key.time == settled) return;
  }
  quiescent_hook_();
}

void Engine::execute(std::uint32_t shard) {
  Shard& sh = shards_[shard];
  // Move out before pop so the action may schedule more events.
  Event ev = std::move(const_cast<Event&>(sh.queue.top()));
  sh.queue.pop();
  sh.last_key = ev.key;
  Context ctx{this, shard, ev.key};
  Context* prev = context_;
  context_ = &ctx;
  struct Restore {
    Context*& slot;
    Context* prev;
    ~Restore() { slot = prev; }
  } restore{context_, prev};
  ev.action();
  ++sh.executed;
}

void Engine::drain_shard(std::uint32_t shard, const EventKey& stop) {
  Shard& sh = shards_[shard];
  try {
    while (!sh.queue.empty() && sh.queue.top().key < stop) execute(shard);
  } catch (...) {
    sh.error = std::current_exception();
    sh.error_key = sh.last_key;
  }
}

void Engine::rethrow_phase_error() {
  std::uint32_t worst = shard_count();
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    if (shards_[s].error &&
        (worst == shard_count() || shards_[s].error_key < shards_[worst].error_key)) {
      worst = s;
    }
  }
  if (worst == shard_count()) return;
  std::exception_ptr err = shards_[worst].error;
  for (Shard& s : shards_) s.error = nullptr;
  std::rethrow_exception(err);
}

void Engine::worker_main(unsigned slot, std::uint64_t seen) {
  // `seen` is the epoch observed by ensure_pool() before this thread was
  // spawned; loading phase_epoch_ here instead would race with the first
  // phase of the run (the main thread may bump the epoch before this
  // thread is first scheduled, and the wake-up would be missed forever).
  for (;;) {
    while (phase_epoch_.load(std::memory_order_acquire) == seen) {
      if (pool_stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    ++seen;
    if (pool_stop_.load(std::memory_order_acquire)) return;
    const EventKey stop = phase_stop_;
    const std::uint32_t g = global_shard();
    for (std::uint32_t s = slot; s < g; s += pool_stride_) {
      drain_shard(s, stop);
    }
    phase_pending_.fetch_sub(1, std::memory_order_release);
  }
}

void Engine::ensure_pool() {
  const std::uint32_t clusters = shard_count() - 1;
  unsigned want = threads_;
  if (clusters < 2 || window_ == 0) want = 1;
  want = std::min<unsigned>(want, clusters);
  if (want <= 1) {
    if (!workers_.empty()) stop_pool();
    pool_stride_ = 1;
    return;
  }
  if (pool_stride_ == want && workers_.size() == want - 1) return;
  stop_pool();
  pool_stride_ = want;
  workers_.reserve(want - 1);
  const std::uint64_t epoch = phase_epoch_.load(std::memory_order_acquire);
  for (unsigned slot = 1; slot < want; ++slot) {
    workers_.emplace_back(&Engine::worker_main, this, slot, epoch);
  }
}

void Engine::stop_pool() {
  pool_stride_ = 1;
  if (workers_.empty()) return;
  pool_stop_.store(true, std::memory_order_release);
  phase_epoch_.fetch_add(1, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  pool_stop_.store(false, std::memory_order_release);
}

std::uint64_t Engine::run_until(Cycles limit) {
  FEM2_CHECK_MSG(!running_, "engine run() is not reentrant");
  running_ = true;
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{running_};
  ensure_pool();
  const std::uint64_t start_processed = processed();
  const std::uint32_t g = global_shard();
  for (;;) {
    bool any = false;
    EventKey min_key;
    std::uint32_t min_shard = 0;
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      const Shard& sh = shards_[s];
      if (sh.queue.empty()) continue;
      const EventKey& k = sh.queue.top().key;
      if (!any || k < min_key) {
        any = true;
        min_key = k;
        min_shard = s;
      }
    }
    if (!any || min_key.time > limit) break;
    fire_refresh_up_to(min_key.time);

    if (min_shard == g) {
      // Host/global events run one at a time, stop-world, between phases.
      execute(g);
      host_now_ = std::max(host_now_, min_key.time);
      maybe_quiescent(min_key.time);
      continue;
    }

    // A cluster phase: every cluster event with key < stop, where stop is
    // the next window boundary, the next global event, or the run limit —
    // whichever comes first.  Lookahead guarantees no event executed in
    // this phase can schedule into another shard before `stop`.
    EventKey stop{window_ == 0 ? min_key.time + 1
                               : (min_key.time / window_ + 1) * window_,
                  0, 0};
    if (limit != ~Cycles{0} && limit + 1 < stop.time) {
      stop = EventKey{limit + 1, 0, 0};
    }
    if (!shards_[g].queue.empty() && shards_[g].queue.top().key < stop) {
      stop = shards_[g].queue.top().key;
    }

    unsigned active = 0;
    std::uint32_t only = min_shard;
    for (std::uint32_t s = 0; s < g; ++s) {
      const Shard& sh = shards_[s];
      if (!sh.queue.empty() && sh.queue.top().key < stop) {
        ++active;
        only = s;
      }
    }

    if (pool_stride_ > 1 && active > 1) {
      // Parallel phase: workers drain their statically assigned shards.
      phase_stop_ = stop;
      in_worker_phase_ = true;
      phase_pending_.store(pool_stride_ - 1, std::memory_order_relaxed);
      phase_epoch_.fetch_add(1, std::memory_order_release);
      for (std::uint32_t s = 0; s < g; s += pool_stride_) {
        drain_shard(s, stop);
      }
      while (phase_pending_.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
      in_worker_phase_ = false;
      for (std::uint32_t s = 0; s < g; ++s) {
        host_now_ = std::max(host_now_, shards_[s].last_key.time);
      }
      run_deferred();
      rethrow_phase_error();
      maybe_quiescent(host_now_);
    } else if (active == 1) {
      // Single active shard: drain it inline, serial semantics.
      Shard& sh = shards_[only];
      while (!sh.queue.empty() && sh.queue.top().key < stop) {
        execute(only);
        host_now_ = std::max(host_now_, sh.last_key.time);
      }
      maybe_quiescent(host_now_);
    } else {
      // Serial phase across several shards: interleave by key order.
      for (;;) {
        bool found = false;
        EventKey k;
        std::uint32_t sidx = 0;
        for (std::uint32_t s = 0; s < g; ++s) {
          const Shard& sh = shards_[s];
          if (sh.queue.empty()) continue;
          const EventKey& t = sh.queue.top().key;
          if (t < stop && (!found || t < k)) {
            found = true;
            k = t;
            sidx = s;
          }
        }
        if (!found) break;
        execute(sidx);
        host_now_ = std::max(host_now_, k.time);
      }
      maybe_quiescent(host_now_);
    }
  }
  const std::uint64_t count = processed() - start_processed;
  if (idle_hook_ && count > 0 && idle()) idle_hook_();
  return count;
}

}  // namespace fem2::hw
