#pragma once

// In-memory span recorder of the traced benchmark pass.
//
// A span is opened and closed by the benchmark's own code around a call
// into one simulator layer ("mpi.sendrecv", "hugepage.alloc", ...). It
// records its name, the span that was open when it started (its parent),
// host start/end and, when taken inside a rank program, virtual start/end.
// Spans stay in memory; write_chrome() exports them as Chrome trace JSON
// with one process per clock. A layer's self time is its span duration
// minus the part of that interval its child spans cover.
//
// Rank programs run on their own OS threads, but sim::Engine admits one
// lane at a time; the mutex only makes the hand-over explicit.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/telemetry/registry.hpp"

namespace ibb {

class Recorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int tid = 0;
    double h0 = 0.0, h1 = 0.0;  // host seconds
    bool virt = false;          // virtual times valid
    ibp::TimePs v0 = 0, v1 = 0;
  };
  /// Per-name sums over every span of that name.
  struct Totals {
    std::uint64_t count = 0;
    double host_s = 0.0;
    double self_host_s = 0.0;
    double virt_us = 0.0;
    double self_virt_us = 0.0;
  };

  /// Open a span under the calling thread's innermost open span (or the
  /// root span when the thread has none). `env` supplies virtual time.
  int open(const char* name, const ibp::core::RankEnv* env);
  void close(int id, const ibp::core::RankEnv* env);

  /// Record a span that already ended.
  void add(const char* name, double h0, double h1, ibp::TimePs v0,
           ibp::TimePs v1);

  /// Spans opened on threads with no open span of their own (rank
  /// programs) hang under `id`.
  void set_root(int id) { root_ = id; }

  /// Registry counters that changed over one phase (a size, a kernel, a
  /// load point).
  void phase(std::string name, const ibp::telemetry::MetricsDelta& d);

  std::map<std::string, Totals> totals() const;

  /// Chrome trace JSON: pid 1 on the host clock, pid 2 on the virtual
  /// clock, plus the recorded phases and a free-form header object.
  void write_chrome(const std::string& path, const std::string& header_json)
      const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string,
                                                          double>>>>
      phases_;
  int root_ = -1;
};

/// RAII span; does nothing (not even read a clock) when `rec` is null.
class Scope {
 public:
  Scope(Recorder* rec, const char* name,
        const ibp::core::RankEnv* env = nullptr)
      : rec_(rec), env_(env), id_(rec != nullptr ? rec->open(name, env) : -1) {
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->close(id_, env_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
  const ibp::core::RankEnv* env_;
  int id_;
};

}  // namespace ibb
