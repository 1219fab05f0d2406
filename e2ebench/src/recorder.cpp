#include "recorder.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "bench.hpp"

namespace ibb {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

int thread_index() {
  static std::mutex mu;
  static int next = 0;
  thread_local int id = [] {
    const std::lock_guard<std::mutex> lock(mu);
    return next++;
  }();
  return id;
}

/// Length of the union of `iv`, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>>& iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur0 = 0.0, cur1 = 0.0;
  bool have = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (have && a <= cur1) {
      cur1 = std::max(cur1, b);
    } else {
      if (have) total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      have = true;
    }
  }
  if (have) total += cur1 - cur0;
  return total;
}

}  // namespace

int Recorder::open(const char* name, const ibp::core::RankEnv* env) {
  Span s;
  s.name = name;
  s.tid = thread_index();
  s.parent = t_open.empty() ? root_ : t_open.back();
  if (env != nullptr) {
    s.virt = true;
    s.v0 = env->now();
  }
  s.h0 = host_now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void Recorder::close(int id, const ibp::core::RankEnv* env) {
  const double h1 = host_now();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.h1 = h1;
  if (env != nullptr) s.v1 = env->now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Recorder::add(const char* name, double h0, double h1, ibp::TimePs v0,
                   ibp::TimePs v1) {
  Span s;
  s.name = name;
  s.tid = thread_index();
  s.parent = t_open.empty() ? root_ : t_open.back();
  s.h0 = h0;
  s.h1 = h1;
  s.virt = true;
  s.v0 = v0;
  s.v1 = v1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

void Recorder::phase(std::string name,
                     const ibp::telemetry::MetricsDelta& d) {
  std::vector<std::pair<std::string, double>> deltas;
  deltas.reserve(d.entries.size());
  for (const auto& e : d.entries)
    deltas.emplace_back(std::string(e.name), e.delta());
  const std::lock_guard<std::mutex> lock(mu_);
  phases_.emplace_back(std::move(name), std::move(deltas));
}

std::map<std::string, Recorder::Totals> Recorder::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
  std::map<std::string, Totals> out;
  std::vector<std::pair<double, double>> hiv, viv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    hiv.clear();
    viv.clear();
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      hiv.emplace_back(k.h0, k.h1);
      if (s.virt && k.virt)
        viv.emplace_back(static_cast<double>(k.v0), static_cast<double>(k.v1));
    }
    Totals& t = out[s.name];
    ++t.count;
    const double hdur = s.h1 - s.h0;
    t.host_s += hdur;
    t.self_host_s += hdur - covered(hiv, s.h0, s.h1);
    if (s.virt) {
      const double v0 = static_cast<double>(s.v0);
      const double v1 = static_cast<double>(s.v1);
      t.virt_us += (v1 - v0) / 1e6;
      t.self_virt_us += (v1 - v0 - covered(viv, v0, v1)) / 1e6;
    }
  }
  return out;
}

void Recorder::write_chrome(const std::string& path,
                            const std::string& header_json) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  double base = 0.0;
  if (!spans_.empty()) {
    base = spans_[0].h0;
    for (const Span& s : spans_) base = std::min(base, s.h0);
  }
  out << "{\"header\": " << header_json << ",\n\"traceEvents\": [\n"
      << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"host clock\"}},\n"
      << "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"virtual clock\"}}";
  char buf[320];
  for (const Span& s : spans_) {
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name.c_str()
                      : "";
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": "
                  "\"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"parent\": \"%s\"}}",
                  s.tid, s.name.c_str(), (s.h0 - base) * 1e6,
                  (s.h1 - s.h0) * 1e6, parent);
    out << buf;
    if (s.virt) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": %d, \"name\": "
                    "\"%s\", \"ts\": %.6f, \"dur\": %.6f, \"args\": "
                    "{\"parent\": \"%s\"}}",
                    s.tid, s.name.c_str(), to_us(s.v0), to_us(s.v1 - s.v0),
                    parent);
      out << buf;
    }
  }
  out << "\n],\n\"phases\": [";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << phases_[i].first
        << "\", \"deltas\": {";
    const auto& d = phases_[i].second;
    for (std::size_t j = 0; j < d.size(); ++j) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", j == 0 ? "" : ", ",
                    d[j].first.c_str(), std::isfinite(d[j].second)
                                            ? d[j].second
                                            : 0.0);
      out << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

void Recorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  phases_.clear();
  root_ = -1;
}

Built build_cluster(const ibp::core::ClusterConfig& cfg, Recorder* rec) {
  const Scope span(rec, "core.cluster_ctor");
  Built b;
  const double t0 = host_now();
  b.cluster = std::make_unique<ibp::core::Cluster>(cfg);
  b.ctor_s = host_now() - t0;
  return b;
}

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

void add_usage(PassResult& r, const Usage& start, const Usage& end) {
  r.layer["sim.user_s"] += end.user_s - start.user_s;
  r.layer["sim.sys_s"] += end.sys_s - start.sys_s;
  r.layer["sim.ctx_switches"] += end.ctx_switches - start.ctx_switches;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace ibb
