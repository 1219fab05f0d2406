#pragma once

// Shared declarations of the end-to-end benchmark program.
//
// A run repeats one workload's *pass* until its time budget is spent.
// Each pass builds fresh clusters (core::Cluster is single-use), drives
// the simulator only through its public calls and returns a PassResult.
// Host-clock numbers come from std::chrono::steady_clock and getrusage;
// virtual-clock numbers from the simulator's own clocks. Every virt_*
// value is deterministic for a given seed, which the program checks.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ibp/common/types.hpp"
#include "ibp/core/cluster.hpp"
#include "recorder.hpp"

namespace ibb {

struct PassOptions {
  std::uint64_t seed = 0;
  /// Non-null on a traced pass: spans are recorded into it, and cluster
  /// telemetry sampling (and request tracing on rpc_open) is switched on.
  Recorder* rec = nullptr;
  /// Also run the pass's extras, which lie outside its timed phase: the
  /// IMB comparison against workloads::run_sendrecv and the RPC
  /// bisection for virt_rps_at_slo.
  bool extras = false;
};

struct PassResult {
  double setup_s = 0.0;  // building clusters, Comms and servers
  double host_s = 0.0;   // the measured phase
  /// Virtual-clock results, compared exactly across passes.
  std::map<std::string, double> virt;
  /// Per-layer numbers of this pass (counters, span sums, rusage).
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed check

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
};

PassResult imb_sendrecv_pass(const PassOptions& opt);
PassResult nas_fig6_pass(const PassOptions& opt);
PassResult rpc_open_pass(const PassOptions& opt);

/// Seconds on the host's monotonic clock.
double host_now();

/// A freshly constructed cluster and the host seconds its constructor
/// took (recorded as a core.cluster_ctor span on traced passes).
struct Built {
  std::unique_ptr<ibp::core::Cluster> cluster;
  double ctor_s = 0.0;
};
Built build_cluster(const ibp::core::ClusterConfig& cfg, Recorder* rec);

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  // voluntary + involuntary
};
Usage usage_now();
/// Add `end - start` of each field to the pass's sim.* layer numbers.
void add_usage(PassResult& r, const Usage& start, const Usage& end);

/// Derive a stream seed from the run seed (splitmix64 finaliser).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
double percentile(std::vector<double>& v, double q);

/// Picoseconds to microseconds.
inline double to_us(ibp::TimePs t) { return static_cast<double>(t) / 1e6; }

}  // namespace ibb
