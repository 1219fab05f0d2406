#pragma once

// Registry counters the benchmark reports per pass. Each cluster of a
// pass is fresh, so its registry values after Cluster::run are exactly
// that cluster's work; a pass sums them over its clusters.

#include <string>
#include <string_view>

#include "bench.hpp"
#include "ibp/telemetry/registry.hpp"

namespace ibb {

inline constexpr const char* kCounters[] = {
    "hca.pages_pinned",      "hca.att_hits",
    "hca.att_misses",        "hca.bytes_tx",
    "hca.sends_posted",      "hca.reg_time_us",
    "cpu.dtlb_misses",       "cpu.prefetch_ramps",
    "cpu.stream_bytes",      "regcache.hits",
    "regcache.misses",       "hugepage.huge_allocs",
    "placement.plan_decisions", "mpi.eager_sent",
    "mpi.rndv_rdma_sent",    "mpi.unexpected_arrivals",
    "rpc.batches",           "rpc.batched_requests",
    "rpc.large_responses",   "rpc.queue_peak",
};

/// Add this cluster's counters, and its per-op MPI time
/// (mpi.time_us.<op>), to the pass's layer numbers.
inline void add_counters(PassResult& r,
                         const ibp::telemetry::MetricsRegistry& m) {
  for (const char* name : kCounters) r.layer[name] += m.value(name);
  constexpr std::string_view kOpPrefix = "mpi.time_us.";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::string_view name = m.name(i);
    if (name.substr(0, kOpPrefix.size()) == kOpPrefix)
      r.layer[std::string(name)] += m.value_at(i);
  }
}

}  // namespace ibb
