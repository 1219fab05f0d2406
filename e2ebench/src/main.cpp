// e2ebench — end-to-end benchmark of the ibplace simulator.
//
//   e2ebench --workload imb_sendrecv|nas_fig6|rpc_open --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one warm-up pass, then repeats the workload's pass until S seconds
// have passed (at least kMinPasses times), and prints, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}.
//
// --trace 0 reports the end-to-end metrics: medians of the host-clock
// numbers and the virtual-clock numbers, which must be identical on
// every pass. --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics of the traced ones; it writes the
// traced pass's spans as Chrome trace JSON to DIR and prints a table of
// time per span with self time. The traced passes must reproduce every
// virtual-clock number of the untraced ones exactly.
//
// Before building any cluster the process pins itself to one CPU, so the
// simulator's rank threads (one runnable at a time) hand off on one core,
// and sets malloc to one arena that keeps freed memory (see run()).

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ibp/mem/physical.hpp"

namespace ibb {
namespace {

constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"host_s", "s"},
    {"peak_rss_mib", "MiB"},   {"virt_makespan_us", "us"},
    {"virt_comm_us", "us"},    {"virt_p50_us", "us"},
    {"virt_p99_us", "us"},
};

// Every per-layer metric, on every workload; a layer the workload does
// not exercise reads 0.
const Metric kPerLayer[] = {
    {"core.cluster_ctor_s", "s"},
    {"mem.phys_ctor_s", "s"},
    {"mem.pages_pinned", "count"},
    {"sim.ctx_switches", "count"},
    {"sim.user_s", "s"},
    {"sim.sys_s", "s"},
    {"cpu.dtlb_misses", "count"},
    {"cpu.prefetch_ramps", "count"},
    {"cpu.stream_bytes", "bytes"},
    {"hca.att_misses", "count"},
    {"hca.att_hit_ratio", "ratio"},
    {"hca.bytes_tx", "bytes"},
    {"hca.sends_posted", "count"},
    {"hca.reg_time_us", "us"},
    {"regcache.hits", "count"},
    {"regcache.misses", "count"},
    {"regcache.hit_ratio", "ratio"},
    {"hugepage.alloc_calls", "count"},
    {"hugepage.alloc_host_us", "us"},
    {"hugepage.alloc_virt_us", "us"},
    {"hugepage.huge_allocs", "count"},
    {"placement.plan_decisions", "count"},
    {"mpi.comm_ctor_s", "s"},
    {"mpi.sendrecv_host_us", "us"},
    {"mpi.sendrecv_virt_us", "us"},
    {"mpi.barrier_virt_us", "us"},
    {"mpi.time_us.allgather", "us"},
    {"mpi.time_us.allreduce", "us"},
    {"mpi.time_us.alltoall", "us"},
    {"mpi.time_us.alltoallv", "us"},
    {"mpi.time_us.barrier", "us"},
    {"mpi.time_us.irecv", "us"},
    {"mpi.time_us.isend", "us"},
    {"mpi.time_us.recv", "us"},
    {"mpi.time_us.send", "us"},
    {"mpi.time_us.sendrecv", "us"},
    {"mpi.time_us.test", "us"},
    {"mpi.time_us.wait", "us"},
    {"mpi.eager_sent", "count"},
    {"mpi.rndv_rdma_sent", "count"},
    {"mpi.unexpected_arrivals", "count"},
    {"rpc.submit_host_us", "us"},
    {"rpc.poll_host_us", "us"},
    {"rpc.poll_virt_us", "us"},
    {"rpc.requests_per_batch", "ratio"},
    {"rpc.queue_peak", "count"},
    {"rpc.large_responses", "count"},
    {"rpc.stage.client_queue.p50_us", "us"},
    {"rpc.stage.client_queue.p99_us", "us"},
    {"rpc.stage.net_request.p50_us", "us"},
    {"rpc.stage.net_request.p99_us", "us"},
    {"rpc.stage.server_queue.p50_us", "us"},
    {"rpc.stage.server_queue.p99_us", "us"},
    {"rpc.stage.service.p50_us", "us"},
    {"rpc.stage.service.p99_us", "us"},
    {"rpc.stage.net_response.p50_us", "us"},
    {"rpc.stage.net_response.p99_us", "us"},
    {"gen.late_us_p99", "us"},
    {"nas.cg.host_s", "s"},
    {"nas.cg.virt_us", "us"},
    {"nas.cg.comm_us", "us"},
    {"nas.ep.host_s", "s"},
    {"nas.ep.virt_us", "us"},
    {"nas.ep.comm_us", "us"},
    {"nas.is.host_s", "s"},
    {"nas.is.virt_us", "us"},
    {"nas.is.comm_us", "us"},
    {"nas.lu.host_s", "s"},
    {"nas.lu.virt_us", "us"},
    {"nas.lu.comm_us", "us"},
    {"nas.mg.host_s", "s"},
    {"nas.mg.virt_us", "us"},
    {"nas.mg.comm_us", "us"},
    {"imb.small.host_s", "s"},
    {"imb.huge.host_s", "s"},
    {"telemetry.trace_overhead", "ratio"},
    {"virt_bw_small_mbs", "MB/s"},
    {"virt_bw_huge_mbs", "MB/s"},
    {"virt_rps_at_slo", "req/s"},
    {"virt_samples", "count"},
    {"fail_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "imb_sendrecv|nas_fig6|rpc_open --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0))
        usage("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Pin the process to the CPU it runs on; threads created later inherit
/// the mask. Returns the CPU, or -1 if pinning failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &allowed)) {
    cpu = -1;
    for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c)
      if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host time of one PhysicalMemory of a node's default size.
double time_phys_ctor(std::uint64_t seed) {
  const ibp::core::ClusterConfig cfg;
  const double t0 = host_now();
  const ibp::mem::PhysicalMemory phys(cfg.node_memory, cfg.hugepages_per_node,
                                      seed);
  return host_now() - t0;
}

/// Per-layer numbers of one traced pass derived from its spans and
/// counters.
void add_traced_metrics(PassResult& r, const Recorder& rec) {
  const auto t = rec.totals();
  auto span = [&](const char* name) {
    const auto it = t.find(name);
    return it != t.end() ? it->second : Recorder::Totals{};
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto& l = r.layer;
  l["hugepage.alloc_calls"] = static_cast<double>(span("hugepage.alloc").count);
  l["hugepage.alloc_host_us"] = span("hugepage.alloc").host_s * 1e6;
  l["hugepage.alloc_virt_us"] = span("hugepage.alloc").virt_us;
  l["mpi.sendrecv_host_us"] = span("mpi.sendrecv").host_s * 1e6;
  l["mpi.sendrecv_virt_us"] = span("mpi.sendrecv").virt_us;
  l["mpi.barrier_virt_us"] = span("mpi.barrier").virt_us;
  l["rpc.submit_host_us"] = span("rpc.submit").host_s * 1e6;
  l["rpc.poll_host_us"] = span("rpc.poll").host_s * 1e6;
  l["rpc.poll_virt_us"] = span("rpc.poll").virt_us;
  l["mem.pages_pinned"] = l["hca.pages_pinned"];
  l["hca.att_hit_ratio"] =
      ratio(l["hca.att_hits"], l["hca.att_hits"] + l["hca.att_misses"]);
  l["regcache.hit_ratio"] =
      ratio(l["regcache.hits"], l["regcache.hits"] + l["regcache.misses"]);
  l["rpc.requests_per_batch"] =
      ratio(l["rpc.batched_requests"], l["rpc.batches"]);
}

void print_span_table(const Recorder& rec) {
  const auto t = rec.totals();
  std::printf("# spans of the last traced pass (host s | self host s | "
              "virt us | self virt us | count)\n");
  std::map<std::string, Recorder::Totals> modules;
  for (const auto& [name, s] : t) {
    std::printf("#   %-22s %10.4f %10.4f %14.1f %14.1f %8llu\n",
                name.c_str(), s.host_s, s.self_host_s, s.virt_us,
                s.self_virt_us, static_cast<unsigned long long>(s.count));
    Recorder::Totals& m = modules[name.substr(0, name.find('.'))];
    m.count += s.count;
    m.host_s += s.host_s;
    m.self_host_s += s.self_host_s;
    m.virt_us += s.virt_us;
    m.self_virt_us += s.self_virt_us;
  }
  std::printf("# per module (self times sum the module's spans)\n");
  for (const auto& [name, m] : modules)
    std::printf("#   %-22s %10.4f %10.4f %14.1f %14.1f %8llu\n",
                name.c_str(), m.host_s, m.self_host_s, m.virt_us,
                m.self_virt_us, static_cast<unsigned long long>(m.count));
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.name, v,
                  metrics[i].first.unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  std::function<PassResult(const PassOptions&)> pass;
  if (args.workload == "imb_sendrecv") pass = imb_sendrecv_pass;
  else if (args.workload == "nas_fig6") pass = nas_fig6_pass;
  else if (args.workload == "rpc_open") pass = rpc_open_pass;
  else usage("unknown workload " + args.workload);

  const int cpu = pin_to_one_cpu();
  // One malloc arena: every cluster runs its ranks on fresh threads, and
  // per-thread arenas would make peak RSS depend on which arenas those
  // threads drew. Lanes run one at a time, so the arena is uncontended.
  // Freed memory stays mapped (no trimming, a fixed mmap threshold), so
  // measured passes reuse the pages the warm-up pass faulted in rather
  // than paying the kernel's noisy zero-fill again on every pass.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::ostringstream header;
  header << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"cpu\": \""
         << json_escape(cpu_model()) << "\", \"nproc\": "
         << sysconf(_SC_NPROCESSORS_ONLN) << ", \"pinned_cpu\": " << cpu
         << ", \"compiler\": \"" << json_escape(IBB_COMPILER) << "\", "
         << "\"build_type\": \"" << IBB_BUILD_TYPE << "\", \"cxx_flags\": \""
         << json_escape(IBB_CXX_FLAGS) << "\"}";
  std::printf("# header %s\n", header.str().c_str());
  std::fflush(stdout);

  Recorder rec;
  std::vector<PassResult> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> reference;  // the first pass's virt_*
  std::vector<double> phys_ctor;

  auto account = [&](PassResult& r, const char* kind) {
    bool same = true;
    for (const auto& [name, v] : r.virt) {
      const auto it = reference.find(name);
      same = same && it != reference.end() && it->second == v;
    }
    r.check(same, std::string("virt_* of a ") + kind +
                      " pass differ from the warm-up pass");
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    std::printf("# pass %s: setup_s=%.6f host_s=%.6f cpu_s=%.6f failed=%llu\n",
                kind, r.setup_s, r.host_s,
                r.layer["sim.user_s"] + r.layer["sim.sys_s"],
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
  };

  const double t0 = host_now();
  if (args.trace)
    for (int i = 0; i < 3; ++i) phys_ctor.push_back(time_phys_ctor(args.seed));
  PassOptions opt;
  opt.seed = args.seed;
  {
    // The warm-up pass fills the allocator, runs the extras and fixes the
    // virtual baseline; its host times are not reported.
    opt.extras = true;
    PassResult r = pass(opt);
    reference = r.virt;
    account(r, "warm-up");
  }
  for (int i = 0;; ++i) {
    const bool enough_passes =
        static_cast<int>(untraced.size()) >= kMinPasses &&
        (!args.trace || static_cast<int>(traced.size()) >= kMinTracedPasses);
    if (enough_passes && host_now() - t0 >= args.seconds) break;
    // Traced passes run the extras too, so every virtual number is
    // reproduced with tracing on.
    const bool trace_this = args.trace && i % 2 == 0;
    opt.extras = trace_this;
    if (trace_this) {
      rec.clear();
      opt.rec = &rec;
      // Spans of rank programs hang under the pass; its self time is
      // host time no recorded call covers.
      const int root = rec.open("pass", nullptr);
      rec.set_root(root);
      PassResult r = pass(opt);
      rec.close(root, nullptr);
      add_traced_metrics(r, rec);
      account(r, "traced");
      traced.push_back(std::move(r));
    } else {
      opt.rec = nullptr;
      PassResult r = pass(opt);
      account(r, "untraced");
      untraced.push_back(std::move(r));
    }
  }

  auto med = [](const std::vector<PassResult>& v,
                const std::function<double(const PassResult&)>& f) {
    std::vector<double> xs;
    for (const PassResult& r : v) xs.push_back(f(r));
    return median(xs);
  };
  std::vector<std::pair<Metric, double>> metrics;
  if (!args.trace) {
    for (const Metric& m : kEndToEnd) {
      const std::string name = m.name;
      double v = 0.0;
      if (name == "setup_s")
        v = med(untraced, [](const PassResult& r) { return r.setup_s; });
      else if (name == "host_s")
        v = med(untraced, [](const PassResult& r) { return r.host_s; });
      else if (name == "peak_rss_mib")
        v = peak_rss_mib();
      else
        v = reference.at(name);
      metrics.emplace_back(m, v);
    }
  } else {
    const double host_untraced =
        med(untraced, [](const PassResult& r) { return r.host_s; });
    const double host_traced =
        med(traced, [](const PassResult& r) { return r.host_s; });
    for (const Metric& m : kPerLayer) {
      const std::string name = m.name;
      double v = 0.0;
      if (name == "mem.phys_ctor_s") {
        v = median(phys_ctor);
      } else if (name == "telemetry.trace_overhead") {
        v = host_untraced > 0.0 ? host_traced / host_untraced : 0.0;
      } else if (name == "fail_ratio") {
        v = attempted > 0 ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0;
      } else if (reference.count(name) != 0) {
        v = reference.at(name);
      } else {
        // Layers the workload does not exercise read 0.
        v = med(traced, [&](const PassResult& r) {
          const auto it = r.layer.find(name);
          return it != r.layer.end() ? it->second : 0.0;
        });
      }
      metrics.emplace_back(m, v);
    }
    print_span_table(rec);
    const std::string path =
        args.out_dir + "/" + args.workload + ".trace.json";
    rec.write_chrome(path, header.str());
    std::printf("# spans written to %s\n", path.c_str());
  }

  for (const std::string& e : errors)
    std::printf("# check failed: %s\n", e.c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ibb

int main(int argc, char** argv) {
  const ibb::Args args = ibb::parse(argc, argv);
  try {
    return ibb::run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
