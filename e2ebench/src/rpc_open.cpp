// rpc_open — serving traffic over the same mpi/regcache layers.
//
// One RpcServer (rank 0) and one RpcClient (rank 1) on two nodes with
// the default RpcConfig. The benchmark's own open-loop generator draws
// Poisson arrivals in virtual time: 2 tenants, 128 B requests, 10 % Bulk
// asking for 64 KiB (rendezvous) responses. Each request is timed from
// when it was *due*, so a generator that falls behind still charges the
// queueing it caused; how late it submitted is reported separately.
//
// A pass measures one fixed offered rate (warmup, then kRequests
// measured requests) and then bisects, with a fixed probe count, for the
// highest rate whose p99 meets kSloUs with nothing shed or rejected.

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "counters.hpp"
#include "ibp/common/rng.hpp"
#include "ibp/core/cluster.hpp"
#include "ibp/mpi/comm.hpp"
#include "ibp/rpc/rpc.hpp"
#include "ibp/telemetry/reqtrace.hpp"

namespace ibb {

namespace {

using namespace ibp;

constexpr double kRateRps = 25000.0;  // the fixed offered rate
constexpr double kSloUs = 1000.0;     // p99 limit, from the due time
constexpr std::uint64_t kWarmup = 2000;
constexpr std::uint64_t kRequests = 80000;
constexpr std::uint32_t kRequestBytes = 128;
constexpr std::uint32_t kBulkResponseBytes = 64 * 1024;
constexpr double kBulkFraction = 0.10;
constexpr std::uint32_t kTenants = 2;
// Bisection for the highest rate meeting the limit.
constexpr double kProbeLoRps = 10000.0;
constexpr double kProbeHiRps = 70000.0;
constexpr int kProbes = 6;
constexpr std::uint64_t kProbeWarmup = 1000;
constexpr std::uint64_t kProbeRequests = 5000;

struct Spec {
  double rate = kRateRps;
  std::uint64_t warmup = kWarmup;
  std::uint64_t requests = kRequests;
  std::uint64_t seed = 0;
  Recorder* rec = nullptr;
};

struct Outcome {
  std::vector<double> lat_us;   // Ok completions, from the due time
  std::vector<double> late_us;  // submit time - due time
  std::uint64_t submitted = 0;   // every request, warmup included
  std::uint64_t issued = 0;     // measured requests
  std::uint64_t shed = 0;       // Overloaded
  std::uint64_t rejected = 0;   // client queue full at submit()
  std::uint64_t timed_out = 0;
  std::vector<std::string> errors;  // wrong bytes, duplicates, missing
  TimePs span = 0;              // first due time -> last completion
  TimePs comm = 0;              // client time inside mpi::Comm calls
  double setup_s = 0.0;
  double host_s = 0.0;
};

void make_payload(std::uint8_t* p, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint32_t i = 0; i < kRequestBytes; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p + i, &w, 8);
  }
}

/// The open-loop generator on the client rank. Measured requests (when
/// `measured`) land in `out`; warmup requests are only checked.
class Generator {
 public:
  Generator(core::RankEnv& env, rpc::RpcClient& client, const Spec& spec,
            Outcome& out)
      : env_(env), client_(client), spec_(spec), out_(out) {}

  void run(std::uint64_t count, std::uint64_t stream, bool measured) {
    measured_ = measured;
    Rng rng(mix_seed(spec_.seed, stream));
    std::uint8_t payload[kRequestBytes];
    double next = static_cast<double>(env_.now());
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto due = static_cast<TimePs>(next);
      env_.sim().sleep_until(due);
      const rpc::Class cls = rng.next_double() < kBulkFraction
                                 ? rpc::Class::Bulk
                                 : rpc::Class::Latency;
      const auto tenant = static_cast<std::uint32_t>(rng.next_below(kTenants));
      const std::uint64_t pseed = rng.next_u64();
      make_payload(payload, pseed);
      const TimePs submitted = env_.now();
      std::uint64_t id = 0;
      {
        const Scope span(spec_.rec, "rpc.submit", &env_);
        id = client_.submit(
            {payload, kRequestBytes},
            cls == rpc::Class::Bulk ? kBulkResponseBytes : 0, cls, tenant);
      }
      ++out_.submitted;
      if (measured_) {
        ++out_.issued;
        out_.late_us.push_back(to_us(submitted - due));
      }
      if (id == 0) {
        if (measured_) ++out_.rejected;
      } else {
        expect_[id] = {due, submitted, pseed, cls, measured_};
      }
      {
        const Scope span(spec_.rec, "rpc.poll", &env_);
        client_.poll();
      }
      collect();
      next += -std::log1p(-rng.next_double()) / spec_.rate * 1e12;
    }
    {
      const Scope span(spec_.rec, "rpc.drain", &env_);
      client_.drain();
    }
    collect();
    for (const auto& [id, e] : expect_)
      out_.errors.push_back("rpc id " + std::to_string(id) +
                            " never completed");
    expect_.clear();
  }

 private:
  struct Expect {
    TimePs due = 0;
    TimePs submitted = 0;
    std::uint64_t pseed = 0;
    rpc::Class cls = rpc::Class::Latency;
    bool measured = false;
  };

  void collect() {
    for (const rpc::Completion& c : client_.take_completions()) {
      const auto it = expect_.find(c.id);
      if (it == expect_.end()) {
        out_.errors.push_back("rpc id " + std::to_string(c.id) +
                              " completed twice or was never issued");
        continue;
      }
      const Expect e = it->second;
      expect_.erase(it);
      if (c.status == rpc::Status::Overloaded) {
        if (e.measured) ++out_.shed;
        continue;
      }
      if (c.status == rpc::Status::TimedOut) {
        if (e.measured) ++out_.timed_out;
        continue;
      }
      if (!echo_ok(c, e))
        out_.errors.push_back("rpc id " + std::to_string(c.id) +
                              " response bytes differ from the request");
      if (e.measured)
        out_.lat_us.push_back(to_us(e.submitted - e.due + c.latency));
    }
  }

  /// The default handler echoes the request, zero-padded to the size a
  /// Bulk request asked for.
  static bool echo_ok(const rpc::Completion& c, const Expect& e) {
    const std::size_t want = e.cls == rpc::Class::Bulk ? kBulkResponseBytes
                                                       : kRequestBytes;
    if (c.payload.size() != want) return false;
    std::uint8_t payload[kRequestBytes];
    make_payload(payload, e.pseed);
    if (std::memcmp(c.payload.data(), payload, kRequestBytes) != 0)
      return false;
    for (std::size_t i = kRequestBytes; i < want; ++i)
      if (c.payload[i] != 0) return false;
    return true;
  }

  core::RankEnv& env_;
  rpc::RpcClient& client_;
  const Spec& spec_;
  Outcome& out_;
  bool measured_ = false;
  std::unordered_map<std::uint64_t, Expect> expect_;
};

/// One open-loop run on a fresh cluster. With `res`, the run's setup,
/// rusage and counters land there too, and with `spec.rec` (which needs
/// `res`) its registry phase.
Outcome run_open(const Spec& spec, PassResult* res) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.seed = mix_seed(spec.seed, 5);
  Recorder* rec = spec.rec;
  cfg.telemetry.enabled = rec != nullptr;
  cfg.request_trace.enabled = rec != nullptr;

  Outcome out;
  const auto [cluster, ctor_s] = build_cluster(cfg, rec);
  std::atomic<int> ready{0};
  double setup_end = 0.0, m0 = 0.0, m1 = 0.0;
  Usage u0, u1;
  telemetry::MetricsSnapshot snap0, snap1;

  const double run0 = host_now();
  cluster->run([&](core::RankEnv& env) {
    const std::unique_ptr<mpi::Comm> comm = [&] {
      const Scope span(rec, "mpi.comm_ctor", &env);
      return std::make_unique<mpi::Comm>(env);
    }();
    auto mark_ready = [&] {
      if (++ready == 2) setup_end = host_now();
    };
    if (env.rank() == 0) {
      const std::unique_ptr<rpc::RpcServer> server = [&] {
        const Scope span(rec, "rpc.server_ctor", &env);
        return std::make_unique<rpc::RpcServer>(*comm, std::vector<int>{1});
      }();
      mark_ready();
      const Scope span(rec, "rpc.serve", &env);
      server->serve();
      return;
    }
    const std::unique_ptr<rpc::RpcClient> client = [&] {
      const Scope span(rec, "rpc.client_ctor", &env);
      return std::make_unique<rpc::RpcClient>(*comm, 0);
    }();
    mark_ready();
    Generator gen(env, *client, spec, out);
    telemetry::RequestTracer* hub = env.cluster().request_tracer();
    if (hub != nullptr) hub->set_muted(true);
    {
      const Scope span(rec, "rpc.warmup", &env);
      gen.run(spec.warmup, 6, false);
    }
    if (hub != nullptr) hub->set_muted(false);

    if (rec != nullptr) snap0 = env.cluster().metrics().snapshot();
    u0 = usage_now();
    m0 = host_now();
    const TimePs start = env.now();
    const TimePs comm0 = comm->profiler().total();
    {
      const Scope span(rec, "rpc.measured", &env);
      gen.run(spec.requests, 7, true);
    }
    out.span = env.now() - start;
    out.comm = comm->profiler().total() - comm0;
    m1 = host_now();
    u1 = usage_now();
    if (rec != nullptr) snap1 = env.cluster().metrics().snapshot();
    client->close();
  });
  out.setup_s = ctor_s + (setup_end - run0);
  out.host_s = m1 - m0;
  if (res != nullptr) {
    res->layer["core.cluster_ctor_s"] += ctor_s;
    res->layer["mpi.comm_ctor_s"] += setup_end - run0;
    add_usage(*res, u0, u1);
    add_counters(*res, cluster->metrics());
    const telemetry::MetricsRegistry& m = cluster->metrics();
    for (const char* stage : {"client_queue", "net_request", "server_queue",
                              "service", "net_response"}) {
      const std::string pre = std::string("rpc.stage.") + stage;
      res->layer[pre + ".p50_us"] = m.value(pre + ".p50_us");
      res->layer[pre + ".p99_us"] = m.value(pre + ".p99_us");
    }
    if (rec != nullptr)
      rec->phase("rpc.fixed_rate", telemetry::diff(snap0, snap1));
  }
  return out;
}

/// Count a run's requests as attempted and its failed checks as failed.
void absorb(PassResult& res, const Outcome& o) {
  res.attempted += o.submitted;
  res.failed += o.errors.size();
  res.errors.insert(res.errors.end(), o.errors.begin(), o.errors.end());
}

}  // namespace

PassResult rpc_open_pass(const PassOptions& opt) {
  PassResult res;
  Spec spec;
  spec.seed = opt.seed;
  spec.rec = opt.rec;
  Outcome fixed = run_open(spec, &res);
  res.setup_s = fixed.setup_s;
  res.host_s = fixed.host_s;
  res.check(fixed.rejected == 0,
            std::to_string(fixed.rejected) + " requests rejected");
  res.check(fixed.shed == 0, std::to_string(fixed.shed) + " requests shed");
  res.check(fixed.timed_out == 0,
            std::to_string(fixed.timed_out) + " requests timed out");
  absorb(res, fixed);

  res.virt["virt_makespan_us"] = to_us(fixed.span);
  res.virt["virt_comm_us"] = to_us(fixed.comm);
  res.virt["virt_p50_us"] = percentile(fixed.lat_us, 0.50);
  res.virt["virt_p99_us"] = percentile(fixed.lat_us, 0.99);
  res.layer["virt_samples"] = static_cast<double>(fixed.lat_us.size());
  res.layer["gen.late_us_p99"] = percentile(fixed.late_us, 0.99);

  if (!opt.extras) return res;
  // Deterministic bisection with a fixed probe count; its host time is
  // outside host_s. Probes never trace.
  double lo = kProbeLoRps, hi = kProbeHiRps;
  for (int i = 0; i < kProbes; ++i) {
    Spec probe;
    probe.rate = (lo + hi) / 2;
    probe.warmup = kProbeWarmup;
    probe.requests = kProbeRequests;
    probe.seed = mix_seed(opt.seed, 100 + static_cast<std::uint64_t>(i));
    Outcome o = run_open(probe, nullptr);
    absorb(res, o);
    const bool meets = o.shed == 0 && o.rejected == 0 && o.timed_out == 0 &&
                       o.lat_us.size() == o.issued &&
                       percentile(o.lat_us, 0.99) <= kSloUs;
    (meets ? lo : hi) = probe.rate;
  }
  res.virt["virt_rps_at_slo"] = lo;
  return res;
}

}  // namespace ibb
