// imb_sendrecv — Figure 5's no-cache pair.
//
// Two nodes x one rank run the IMB SendRecv chain over 4 KiB .. 16 MiB
// (each size plus a seeded tail below 4 KiB) with fresh buffers for every
// size and lazy deregistration off, once with libc small pages and once
// with the hugepage library preloaded.
// The rank program mirrors workloads::run_sendrecv call for call, so its
// bandwidth points must equal the library's exactly; it differs only in
// host-side work that costs no virtual time: seeded payloads, byte-exact
// checks after each size and, on traced passes, spans around each call.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "counters.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/workloads/imb.hpp"

namespace ibb {

namespace {

using namespace ibp;

core::ClusterConfig cluster_config(bool huge, std::uint64_t seed,
                                   bool traced) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.hugepage_library = huge;
  cfg.lazy_deregistration = false;
  cfg.seed = seed;
  cfg.telemetry.enabled = traced;
  return cfg;
}

/// Deterministic payload of one (rank, size) send buffer.
void fill_payload(std::uint8_t* p, std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p + i, &w, n - i);
  }
}

std::uint64_t payload_seed(std::uint64_t seed, int rank, std::uint64_t bytes) {
  return mix_seed(seed, (static_cast<std::uint64_t>(rank) << 40) ^ bytes);
}

/// Figure 5's sweep, 4 KiB .. 16 MiB in powers of two, each size
/// lengthened by a seeded multiple of 64 B below 4 KiB, so the seed
/// varies how the messages end within their last page.
std::vector<std::uint64_t> sweep_sizes(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0));
  std::vector<std::uint64_t> sizes = workloads::imb_default_sizes();
  for (std::uint64_t& s : sizes) s += 64 * rng.next_below(64);
  return sizes;
}

struct Side {
  std::vector<workloads::ImbPoint> points;
  TimePs region_sum = 0;       // summed worst-rank timed regions
  double comm_mean_ps = 0.0;   // summed mean-over-ranks time inside MPI
  std::vector<double> call_us;  // virtual latency of every timed call
};

Side run_side(bool huge, const PassOptions& opt, PassResult& res) {
  const char* label = huge ? "huge" : "small";
  workloads::ImbConfig icfg;  // iterations and warmup as the library's
  icfg.sizes = sweep_sizes(opt.seed);
  const std::vector<std::uint64_t>& sizes = icfg.sizes;
  Recorder* rec = opt.rec;
  const std::uint64_t cseed = mix_seed(opt.seed, 1);

  auto [cluster, ctor_s] =
      build_cluster(cluster_config(huge, cseed, rec != nullptr), rec);
  res.layer["core.cluster_ctor_s"] += ctor_s;

  const int n = cluster->nranks();
  std::vector<std::vector<TimePs>> elapsed(
      sizes.size(), std::vector<TimePs>(static_cast<std::size_t>(n), 0));
  std::vector<std::vector<TimePs>> comm_t = elapsed;
  std::vector<std::vector<double>> call_us(static_cast<std::size_t>(n));
  // Payload check outcome per (size, rank): 1 = byte-exact.
  std::vector<std::vector<char>> payload_ok(
      sizes.size(), std::vector<char>(static_cast<std::size_t>(n), 0));
  std::atomic<int> ctors_done{0};
  double setup_end = 0.0;
  Usage u0;
  telemetry::MetricsSnapshot snap;
  const std::uint64_t pseed = mix_seed(opt.seed, 2);

  const double run0 = host_now();
  cluster->run([&](core::RankEnv& env) {
    const std::unique_ptr<mpi::Comm> comm_ptr = [&] {
      const Scope span(rec, "mpi.comm_ctor", &env);
      return std::make_unique<mpi::Comm>(env, icfg.comm);
    }();
    mpi::Comm& comm = *comm_ptr;
    if (++ctors_done == n) {
      setup_end = host_now();
      u0 = usage_now();
      if (rec != nullptr) snap = env.cluster().metrics().snapshot();
    }
    const int right = (env.rank() + 1) % n;
    const int left = (env.rank() - 1 + n) % n;
    const auto r = static_cast<std::size_t>(env.rank());

    VirtAddr sbuf = 0, rbuf = 0;
    auto free_buffers = [&] {
      const Scope span(rec, "hugepage.dealloc", &env);
      env.dealloc(sbuf);
      env.dealloc(rbuf);
    };
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const std::uint64_t len = sizes[si];
      const std::uint64_t bytes = std::max<std::uint64_t>(len, 64);
      // Fresh buffers every size (ImbConfig::fresh_buffers).
      if (sbuf != 0) free_buffers();
      {
        const Scope span(rec, "hugepage.alloc", &env);
        sbuf = env.alloc(bytes);
      }
      {
        const Scope span(rec, "hugepage.alloc", &env);
        rbuf = env.alloc(bytes);
      }
      {
        const Scope span(rec, "cpu.touch_stream", &env);
        env.touch_stream(sbuf, bytes);
        env.touch_stream(rbuf, bytes);
      }
      fill_payload(env.host_ptr<std::uint8_t>(sbuf, len), len,
                   payload_seed(pseed, env.rank(), len));
      auto sendrecv = [&] {
        const Scope span(rec, "mpi.sendrecv", &env);
        comm.sendrecv(sbuf, len, right, 0, rbuf, len, left, 0);
      };
      auto barrier = [&] {
        const Scope span(rec, "mpi.barrier", &env);
        comm.barrier();
      };
      for (int w = 0; w < icfg.warmup; ++w) sendrecv();
      barrier();
      const TimePs t0 = env.now();
      const TimePs c0 = comm.profiler().total();
      for (int it = 0; it < icfg.iterations; ++it) {
        const TimePs s0 = env.now();
        sendrecv();
        call_us[r].push_back(to_us(env.now() - s0));
      }
      barrier();
      elapsed[si][r] = env.now() - t0;
      comm_t[si][r] = comm.profiler().total() - c0;
      // Byte-exact check outside the timed region: the last receive
      // holds the left neighbour's payload.
      std::vector<std::uint8_t> want(len);
      fill_payload(want.data(), len, payload_seed(pseed, left, len));
      payload_ok[si][r] = std::memcmp(env.host_ptr<std::uint8_t>(rbuf, len),
                                      want.data(), len) == 0;
      if (rec != nullptr && env.rank() == 0) {
        telemetry::MetricsSnapshot now = env.cluster().metrics().snapshot();
        rec->phase(std::string("imb.") + label + "." + std::to_string(len),
                   telemetry::diff(snap, now));
        snap = std::move(now);
      }
    }
    if (sbuf != 0) free_buffers();
  });
  const double run1 = host_now();
  add_usage(res, u0, usage_now());
  res.setup_s += ctor_s + (setup_end - run0);
  res.layer["mpi.comm_ctor_s"] += setup_end - run0;
  res.host_s += run1 - setup_end;
  res.layer[std::string("imb.") + label + ".host_s"] = run1 - setup_end;
  add_counters(res, cluster->metrics());

  for (std::size_t si = 0; si < sizes.size(); ++si)
    for (int rk = 0; rk < n; ++rk)
      res.check(payload_ok[si][static_cast<std::size_t>(rk)] != 0,
                std::string("imb ") + label + " payload mismatch: " +
                    std::to_string(sizes[si]) + " B at rank " +
                    std::to_string(rk));

  Side side;
  double comm_sum = 0.0;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const TimePs worst =
        *std::max_element(elapsed[si].begin(), elapsed[si].end());
    workloads::ImbPoint p;
    p.bytes = sizes[si];
    p.avg_time = worst / static_cast<std::uint64_t>(icfg.iterations);
    if (p.avg_time > 0)
      p.mbytes_per_sec = 2.0 * static_cast<double>(p.bytes) /
                         (static_cast<double>(p.avg_time) * 1e-12) / 1e6;
    side.points.push_back(p);
    side.region_sum += worst;
    double mean = 0.0;
    for (const TimePs c : comm_t[si]) mean += static_cast<double>(c);
    comm_sum += mean / n;
  }
  side.comm_mean_ps = comm_sum;
  for (auto& v : call_us)
    side.call_us.insert(side.call_us.end(), v.begin(), v.end());

  if (opt.extras) {
    // The library's own SendRecv on an identical cluster must report the
    // same points, bit for bit (outside every timed region; the measured
    // cluster is gone first, so peak RSS stays the workload's).
    cluster.reset();
    core::Cluster ref(cluster_config(huge, cseed, false));
    const std::vector<workloads::ImbPoint> want =
        workloads::run_sendrecv(ref, icfg);
    res.check(want.size() == sizes.size(),
              "workloads::run_sendrecv returned a different sweep");
    for (std::size_t si = 0; si < std::min(want.size(), sizes.size()); ++si)
      res.check(want[si].avg_time == side.points[si].avg_time &&
                    want[si].mbytes_per_sec == side.points[si].mbytes_per_sec,
                std::string("imb ") + label + " " + std::to_string(sizes[si]) +
                    " B: " + std::to_string(side.points[si].avg_time) +
                    " ps per iteration, workloads::run_sendrecv " +
                    std::to_string(want[si].avg_time));
  }
  return side;
}

/// Aggregate bandwidth over the sweep: 2 * sum(bytes) / sum(time).
double aggregate_mbs(const Side& s) {
  double bytes = 0.0, t = 0.0;
  for (const auto& p : s.points) {
    bytes += 2.0 * static_cast<double>(p.bytes);
    t += static_cast<double>(p.avg_time) * 1e-12;
  }
  return t > 0.0 ? bytes / t / 1e6 : 0.0;
}

}  // namespace

PassResult imb_sendrecv_pass(const PassOptions& opt) {
  PassResult res;
  const Side small = run_side(false, opt, res);
  const Side huge = run_side(true, opt, res);

  std::vector<double> calls = small.call_us;
  calls.insert(calls.end(), huge.call_us.begin(), huge.call_us.end());
  res.virt["virt_makespan_us"] = to_us(small.region_sum + huge.region_sum);
  res.virt["virt_comm_us"] = (small.comm_mean_ps + huge.comm_mean_ps) / 1e6;
  res.virt["virt_p50_us"] = percentile(calls, 0.50);
  res.virt["virt_p99_us"] = percentile(calls, 0.99);
  res.virt["virt_bw_small_mbs"] = aggregate_mbs(small);
  res.virt["virt_bw_huge_mbs"] = aggregate_mbs(huge);
  res.layer["virt_samples"] = static_cast<double>(calls.size());
  return res;
}

}  // namespace ibb
