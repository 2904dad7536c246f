// Discrete-event simulation core: a virtual nanosecond clock and an event
// queue. The whole cluster simulation is single-threaded and deterministic;
// all concurrency in the modeled system is expressed as events.
//
// Hot-path layout (see DESIGN.md "Event-loop internals"):
//   - Events carry their callback inline (EventFn, a fixed-capacity SBO
//     callable) — scheduling performs no heap allocation.
//   - Near events (< ~8.2 us ahead) live in a timer wheel of 2^13
//     one-nanosecond slots with a two-level occupancy bitmap; far events
//     overflow into a position-tracked binary heap ordered by (time, seq).
//   - schedule() is the fast non-cancellable path. schedule_cancellable()
//     alone pays for a cancellation token, served from a freelist.
//   - Execution order is globally (time, seq): FIFO among equal timestamps,
//     across the wheel/heap boundary — identical, bit for bit, to the
//     single-priority-queue implementation it replaced.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/inline_function.h"
#include "common/status.h"
#include "common/units.h"

namespace freeflow::sim {

/// Event callback. 96 bytes of inline capture: enough for a handful of
/// pointers plus an embedded completion callable; anything larger is a
/// compile error (shrink the capture or box it).
using EventFn = common::InlineFunction<void(), 96>;

class EventLoop;

/// Cancellation state for one scheduled event, recycled via a freelist.
/// `gen` is bumped whenever the token is released (event fired or
/// cancelled), so stale EventHandles see a generation mismatch instead of
/// cancelling an unrelated later event.
struct CancelToken {
  std::uint64_t gen = 0;
  SimTime at = 0;
  std::uint64_t seq = 0;
  bool in_heap = false;
  bool maintenance = false;
  std::uint32_t heap_pos = 0;
};

/// Handle to a cancellable event. Copyable; must not outlive its EventLoop.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet, eagerly reclaiming its queue
  /// slot and destroying the callback. Safe to call repeatedly.
  void cancel() noexcept;

  /// True while the event is scheduled and neither fired nor cancelled.
  /// (Unlike the old implementation, this is already false while the event's
  /// own callback is running.)
  [[nodiscard]] bool pending() const noexcept {
    return token_ != nullptr && token_->gen == gen_;
  }

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, CancelToken* token, std::uint64_t gen) noexcept
      : loop_(loop), token_(token), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  CancelToken* token_ = nullptr;
  std::uint64_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` ns from now (>= 0). FIFO among equal
  /// times. Fast path: no cancellation token, no allocation. Templated on
  /// the callable so the capture is constructed directly inside queue
  /// storage — zero intermediate moves of the (up to 96-byte) EventFn.
  template <typename F>
  void schedule(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    insert(now_ + delay, std::forward<F>(fn), nullptr);
  }

  /// Schedules `fn` at an absolute virtual time (>= now()).
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    FF_CHECK(at >= now_);
    insert(at, std::forward<F>(fn), nullptr);
  }

  /// Like schedule(), but returns a handle that can cancel the event. Only
  /// this path pays for a cancellation token (freelist-recycled).
  template <typename F>
  EventHandle schedule_cancellable(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    return schedule_cancellable_at(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  EventHandle schedule_cancellable_at(SimTime at, F&& fn) {
    FF_CHECK(at >= now_);
    CancelToken* t = acquire_token();
    insert(at, std::forward<F>(fn), t);
    return {this, t, t->gen};
  }

  /// Quiesce API: schedules a *maintenance* event — a periodic housekeeping
  /// timer (heartbeat monitor, stats flush) that should not keep the
  /// simulation alive on its own. run() treats the queue as idle once only
  /// maintenance events remain and returns without executing them; they
  /// still fire normally under step()/run_until()/run_for(), and a
  /// maintenance callback that re-arms itself stays maintenance. Always
  /// cancellable: owners cancel on teardown, and events left queued when
  /// run() quiesces die with the loop.
  template <typename F>
  EventHandle schedule_maintenance(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    CancelToken* t = acquire_token();
    t->maintenance = true;
    ++maintenance_live_;
    insert(now_ + delay, std::forward<F>(fn), t);
    return {this, t, t->gen};
  }

  /// Runs events until only maintenance events (or nothing) remain, i.e.
  /// until the simulation has quiesced. Returns the final time.
  SimTime run();

  /// Runs events with timestamp <= deadline; advances now() to deadline
  /// if the queue empties or the next event is later.
  SimTime run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  SimTime run_for(SimDuration duration) { return run_until(now_ + duration); }

  /// Executes events one at a time until `pred()` holds (true), or until
  /// `budget` of virtual time has passed or the queue is empty (false).
  /// `pred` is checked before every step, so it may watch any state.
  template <typename Pred>
  bool spin_until(Pred&& pred, SimDuration budget) {
    const SimTime deadline = now_ + budget;
    for (;;) {
      if (pred()) return true;
      if (now_ >= deadline || !step()) return false;
    }
  }

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of LIVE events currently queued. Cancelled events are reclaimed
  /// eagerly and never counted. Derived, not tracked: the hot path keeps no
  /// aggregate counter (wheel_live_ already includes mid-drain events).
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return wheel_live_ + heap_.size();
  }

  /// Live maintenance events (see schedule_maintenance).
  [[nodiscard]] std::size_t maintenance_size() const noexcept {
    return maintenance_live_;
  }
  /// Live events that keep run() going: queue_size() minus maintenance.
  [[nodiscard]] std::size_t blocking_size() const noexcept {
    return queue_size() - maintenance_live_;
  }

 private:
  friend class EventHandle;

  struct Event {
    Event() noexcept : at(0), seq(0), token(nullptr) {}  // heap_push hole
    template <typename F>
    Event(SimTime at_, std::uint64_t seq_, CancelToken* token_, F&& fn_)
        : at(at_), seq(seq_), token(token_), fn(std::forward<F>(fn_)) {}
    Event(Event&&) noexcept = default;
    Event& operator=(Event&&) noexcept = default;

    SimTime at;
    std::uint64_t seq;
    CancelToken* token;  // null for the non-cancellable fast path
    EventFn fn;
  };

  /// One wheel slot: all queued events sharing a single timestamp (see the
  /// uniqueness invariant in DESIGN.md), in insertion (= seq) order.
  using Slot = std::vector<Event>;

  // 2^13 slots: an 8.2 us horizon covers every per-hop/per-packet delay in
  // the cost model (control-plane timers overflow to the heap), and the
  // whole wheel's slot headers (~192 KB) stay cache-resident — measured
  // ~40% faster than 2^15 on the micro-ring bench.
  static constexpr std::uint32_t k_wheel_bits = 13;
  static constexpr std::uint32_t k_wheel_slots = 1U << k_wheel_bits;  // 8.2 us horizon
  static constexpr std::uint32_t k_wheel_mask = k_wheel_slots - 1;
  static constexpr std::uint32_t k_bitmap_words = k_wheel_slots / 64;   // 128
  static constexpr std::uint32_t k_summary_words = k_bitmap_words / 64;  // 2

  /// Routes one event into the wheel or the overflow heap. Templated so the
  /// wheel path's emplace_back constructs the callable in place.
  template <typename F>
  void insert(SimTime at, F&& fn, CancelToken* token) {
    const std::uint64_t seq = next_seq_++;
    if (token != nullptr) {
      token->at = at;
      token->seq = seq;
    }
    if (at - now_ < static_cast<SimTime>(k_wheel_slots)) {
      // Near event: its slot maps to a unique timestamp within the horizon,
      // so a slot's vector is FIFO-in-seq by construction.
      const auto idx = static_cast<std::uint32_t>(at & k_wheel_mask);
      Slot& slot = wheel_[idx];
      if (slot.empty()) set_bit(idx);
      slot.emplace_back(at, seq, token, std::forward<F>(fn));
      if (token != nullptr) token->in_heap = false;
      ++wheel_live_;
    } else {
      if (token != nullptr) token->in_heap = true;
      heap_push(Event(at, seq, token, std::forward<F>(fn)));
    }
  }
  /// Next wheel event in (at, seq) order, or null: the drain-buffer head if
  /// a slot is mid-drain, else the front of the next occupied slot (whose
  /// index is cached in scanned_slot_ for step() to drain on commit).
  const Event* peek_wheel() noexcept;
  [[nodiscard]] std::int32_t scan_bitmap(std::uint32_t begin_slot) const noexcept;

  void set_bit(std::uint32_t slot) noexcept;
  void clear_bit(std::uint32_t slot) noexcept;

  // Position-tracked binary min-heap ordered by (at, seq): cancellation can
  // remove an arbitrary entry eagerly via its token's heap_pos.
  void heap_push(Event ev);
  Event heap_pop_min();
  void heap_remove(std::uint32_t pos);
  void heap_place(std::uint32_t pos, Event ev) noexcept;
  std::uint32_t sift_up(std::uint32_t pos, const Event& ev) noexcept;
  std::uint32_t sift_down(std::uint32_t pos, const Event& ev) noexcept;

  CancelToken* acquire_token();
  void release_token(CancelToken* t) noexcept;
  void cancel_token(CancelToken* t, std::uint64_t gen) noexcept;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t wheel_live_ = 0;  // live wheel events, incl. mid-drain
  std::size_t maintenance_live_ = 0;

  std::vector<Slot> wheel_;
  std::vector<std::uint64_t> bitmap_;
  std::vector<std::uint64_t> summary_;
  std::vector<Event> heap_;

  // The slot currently being drained, swapped out of the wheel whole only
  // once its first event executes (see step()). Events here still count as
  // wheel_live_. scanned_slot_ is the index peek_wheel() last landed on.
  std::vector<Event> drain_buf_;
  std::size_t drain_head_ = 0;
  std::uint32_t scanned_slot_ = 0;

  std::deque<CancelToken> token_pool_;      // stable addresses
  std::vector<CancelToken*> free_tokens_;
};

inline void EventHandle::cancel() noexcept {
  if (loop_ != nullptr) loop_->cancel_token(token_, gen_);
}

}  // namespace freeflow::sim
