#include "ibp/sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cxxabi.h>
#include <limits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace ibp::sim {
namespace {

/// Internal unwind signal used when the run is aborted by another rank's
/// error; never surfaced to the user.
struct AbortSignal {};

/// Stack per lane, as for a default OS thread. MAP_NORESERVE means only
/// the pages a lane actually touches cost memory.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

/// libsupc++'s per-thread __cxa_eh_globals: the caught-exception chain a
/// bare `throw;` rethrows, and std::uncaught_exceptions(). Lanes share one
/// thread, so each keeps its own copy across switches.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

EhGlobals& eh_globals() {
  return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

}  // namespace

TimePs Engine::now_of(RankId r) const {
  const auto& rk = ranks_[static_cast<std::size_t>(r)];
  return rk.tracks[static_cast<std::size_t>(rk.cur)]->time;
}

TrackId Engine::track_of(RankId r) const {
  return ranks_[static_cast<std::size_t>(r)].cur;
}

int Engine::live_tracks_of(RankId r) const {
  const auto& rk = ranks_[static_cast<std::size_t>(r)];
  int live = 0;
  for (const auto& ts : rk.tracks)
    if (ts->state != State::Finished) ++live;
  return live;
}

void Engine::run(const RankFn& fn) {
  std::vector<RankFn> fns(ranks_.size(), fn);
  run(fns);
}

void Engine::run(const std::vector<RankFn>& fns) {
  IBP_CHECK(fns.size() == ranks_.size(), "one program per rank required");
  for (const auto& rk : ranks_)
    IBP_CHECK(rk.tracks[0]->state == State::NotStarted,
              "Engine::run is single-use");

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].tracks[0]->state = State::Runnable;
    ranks_[r].tracks[0]->fn = fns[r];
  }
#if defined(__SANITIZE_THREAD__)
  main_.tsan_fiber = __tsan_get_current_fiber();
#endif

  // Lanes hand the turn to each other directly; control comes back here
  // once every lane finished or the run aborted.
  switch_to(main_, schedule_next());

  // After an abort, resume each suspended lane once: it throws
  // AbortSignal and unwinds its stack. Lanes that never started are never
  // entered. Unwinding cannot spawn tracks, so the vectors stay put.
  for (int r = 0; r < nranks(); ++r) {
    auto& rk = ranks_[static_cast<std::size_t>(r)];
    for (TrackId k = 0; k < static_cast<TrackId>(rk.tracks.size()); ++k) {
      auto& ts = *rk.tracks[static_cast<std::size_t>(k)];
      if (ts.stack && ts.state != State::Finished) {
        rk.cur = k;
        running_rank_ = r;
        switch_to(main_, ts);
      }
      release_fiber(ts);
    }
  }

  if (error_) std::rethrow_exception(error_);
}

Engine::TrackState& Engine::running_lane(RankId r, const char* what) {
  IBP_CHECK(running_rank_ == r, << what << " outside of scheduled execution");
  auto& rk = ranks_[static_cast<std::size_t>(r)];
  return *rk.tracks[static_cast<std::size_t>(rk.cur)];
}

void Engine::advance_rank(RankId r, TimePs dt) {
  // During an abort, destructors on unwinding stacks may still call
  // advance(); the run is over, so let them through as no-ops.
  if (aborted_) return;
  auto& ts = running_lane(r, "advance()");
  ts.time += dt;
  switch_to(ts, schedule_next());
}

void Engine::yield_rank(RankId r) { advance_rank(r, 0); }

void Engine::wait_rank(RankId r,
                       const std::function<std::optional<TimePs>()>& pred) {
  if (aborted_) return;
  auto& ts = running_lane(r, "wait_until()");
  ts.state = State::Blocked;
  ts.pred = pred;
  switch_to(ts, schedule_next());
  ts.pred = nullptr;
}

TrackId Engine::spawn_track(RankId r, std::function<void(Context&)> fn) {
  if (aborted_) return -1;  // unwinding; the track will never run
  auto& parent = running_lane(r, "spawn_track()");
  auto& rk = ranks_[static_cast<std::size_t>(r)];

  const TrackId id = static_cast<TrackId>(rk.tracks.size());
  rk.tracks.push_back(std::make_unique<TrackState>());
  auto& ts = *rk.tracks.back();
  ts.time = parent.time;
  ts.state = State::Runnable;
  // The spawner keeps its turn; the new track gets a stack and starts
  // running `fn` the first time the scheduler picks its key.
  ts.fn = std::move(fn);
  return id;
}

void Engine::join_track(RankId r, TrackId t) {
  auto& rk = ranks_[static_cast<std::size_t>(r)];
  IBP_CHECK(t > 0 && t < static_cast<TrackId>(rk.tracks.size()),
            "join_track: no such spawned track");
  IBP_CHECK(t != rk.cur, "join_track: a track cannot join itself");
  const TrackState* ts = rk.tracks[static_cast<std::size_t>(t)].get();
  wait_rank(r, [ts]() -> std::optional<TimePs> {
    if (ts->state != State::Finished) return std::nullopt;
    return ts->time;
  });
}

Engine::TrackState& Engine::schedule_next() {
  if (aborted_) return main_;

  // Candidate = every runnable lane at its clock, plus every blocked lane
  // whose predicate is ready, at max(clock, ready time). Choosing the
  // global minimum (time, rank, track) keeps execution in virtual-time
  // order, so no lane can later be affected by an event earlier than its
  // clock. The rank-major, track-minor scan with a strictly-less compare
  // realizes the (time, rank, track) tie-break.
  constexpr TimePs kInf = std::numeric_limits<TimePs>::max();
  TimePs best_time = kInf;
  int best_rank = -1;
  TrackId best_track = 0;
  bool best_blocked = false;
  TimePs best_ready = 0;
  bool any_unfinished = false;

  for (int r = 0; r < nranks(); ++r) {
    auto& rk = ranks_[static_cast<std::size_t>(r)];
    for (TrackId k = 0; k < static_cast<TrackId>(rk.tracks.size()); ++k) {
      auto& ts = *rk.tracks[static_cast<std::size_t>(k)];
      if (ts.state == State::Finished) continue;
      any_unfinished = true;
      if (ts.state == State::Runnable) {
        if (ts.time < best_time) {
          best_time = ts.time;
          best_rank = r;
          best_track = k;
          best_blocked = false;
        }
      } else if (ts.state == State::Blocked) {
        const auto ready = ts.pred();
        if (ready) {
          const TimePs t = std::max(ts.time, *ready);
          if (t < best_time) {
            best_time = t;
            best_rank = r;
            best_track = k;
            best_blocked = true;
            best_ready = t;
          }
        }
      }
    }
  }

  if (!any_unfinished) return main_;  // run complete
  if (best_rank < 0) {
    abort_all(std::make_exception_ptr(SimError(
        "virtual-time deadlock: every unfinished rank is "
        "blocked with no ready predicate")));
    return main_;
  }

  // The chosen (time, rank, track) key is the global frontier: no
  // unfinished lane can act earlier. Fire the sampler for every period
  // boundary the frontier just crossed while no lane is active.
  if (sampler_ && sample_period_ != 0) {
    while (next_sample_ <= best_time) {
      sampler_(next_sample_);
      next_sample_ += sample_period_;
    }
  }

  auto& rk = ranks_[static_cast<std::size_t>(best_rank)];
  auto& next = *rk.tracks[static_cast<std::size_t>(best_track)];
  if (best_blocked) {
    next.state = State::Runnable;
    next.time = best_ready;
  }
  rk.cur = best_track;
  running_rank_ = best_rank;
  return next;
}

void Engine::switch_to(TrackState& from, TrackState& to,
                       [[maybe_unused]] bool finished) {
  if (&to == &from) return;
  if (&to == &main_)
    running_rank_ = -1;
  else if (!to.stack)
    make_fiber(to);
  const EhGlobals saved = eh_globals();
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack, to.stack,
                                 to.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  swapcontext(&from.uc, &to.uc);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  eh_globals() = saved;
  if (aborted_ && &from != &main_) throw AbortSignal{};
}

void Engine::make_fiber(TrackState& ts) {
  void* mem = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  IBP_CHECK(mem != MAP_FAILED, "cannot map a lane stack");
  // The stack grows down onto a PROT_NONE guard page, so an overflow
  // faults instead of corrupting a neighbouring mapping.
  IBP_CHECK(mprotect(mem, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)),
                     PROT_NONE) == 0,
            "cannot protect a lane stack guard page");
  ts.stack = mem;
  ts.stack_size = kStackBytes;
  getcontext(&ts.uc);
  ts.uc.uc_stack.ss_sp = mem;
  ts.uc.uc_stack.ss_size = kStackBytes;
  ts.uc.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ts.uc, reinterpret_cast<void (*)()>(&Engine::fiber_main), 2,
              static_cast<unsigned>(self), static_cast<unsigned>(self >> 32));
#if defined(__SANITIZE_THREAD__)
  ts.tsan_fiber = __tsan_create_fiber(0);
#endif
}

void Engine::release_fiber(TrackState& ts) {
  ts.fn = nullptr;
  if (!ts.stack) return;
#if defined(__SANITIZE_ADDRESS__)
  // A recycled mapping must not inherit this stack's redzones.
  ASAN_UNPOISON_MEMORY_REGION(ts.stack, ts.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(ts.tsan_fiber);
#endif
  munmap(ts.stack, ts.stack_size);
  ts.stack = nullptr;
}

void Engine::fiber_main(unsigned lo, unsigned hi) {
  reinterpret_cast<Engine*>((std::uintptr_t{hi} << 32) | lo)->lane_main();
}

void Engine::lane_main() {
#if defined(__SANITIZE_ADDRESS__)
  // The run's first switch enters a lane from run()'s stack: record its
  // bounds as main_'s, for the switches back.
  const void* from = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from, &from_size);
  if (!main_.stack) {
    main_.stack = const_cast<void*>(from);
    main_.stack_size = from_size;
  }
#endif
  eh_globals() = {};
  auto& rk = ranks_[static_cast<std::size_t>(running_rank_)];
  auto& self = *rk.tracks[static_cast<std::size_t>(rk.cur)];
  {
    Context ctx(this, running_rank_);
    std::exception_ptr err;
    try {
      std::exchange(self.fn, nullptr)(ctx);
    } catch (const AbortSignal&) {
      // Another lane failed; just unwind quietly.
    } catch (...) {
      // Leave the handler before switching away: the caught-exception
      // chain must be empty when this lane's stack is abandoned.
      err = std::current_exception();
    }
    self.state = State::Finished;
    if (err) abort_all(std::move(err));
  }
  // Every object of the lane is gone; nothing ever resumes this stack.
  switch_to(self, schedule_next(), /*finished=*/true);
  std::abort();
}

void Engine::abort_all(std::exception_ptr err) {
  if (!error_) error_ = std::move(err);
  aborted_ = true;
}

}  // namespace ibp::sim
