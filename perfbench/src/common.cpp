#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "core/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace pb {

namespace {
const std::chrono::steady_clock::time_point& epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  double v = 0.0;
  for (int field = 0; field < 10 && (stat >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::int64_t llc_bytes() {
  std::int64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level(dir + "/level"), size(dir + "/size");
    int lvl = 0;
    std::string s;
    if (!(level >> lvl) || !(size >> s) || s.empty()) continue;
    std::int64_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    const std::int64_t bytes = std::atoll(s.c_str()) * mult;
    if (lvl >= 2 && bytes > best) best = bytes;
  }
  return best;
}

// --- spans --------------------------------------------------------------------

Spans::Scope::Scope(Spans& s, const char* name)
    : spans_(s.enabled ? &s : nullptr), name_(name), t0_(0.0) {
  if (spans_ != nullptr) {
    ++spans_->depth_;
    t0_ = now_s();
  }
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const double t1 = now_s();
  --spans_->depth_;
  spans_->records_.push_back({name_, t0_, t1, spans_->depth_});
}

std::vector<double> Spans::self_times_all() const {
  // Records land in completion order, so a span's children (depth + 1,
  // inside its interval) were all pushed before it.
  std::vector<double> self(records_.size());
  std::vector<double> child_sum(64, 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const auto d = static_cast<std::size_t>(r.depth);
    if (d + 1 >= child_sum.size()) child_sum.resize(d + 2, 0.0);
    self[i] = (r.t1 - r.t0) - child_sum[d + 1];
    child_sum[d + 1] = 0.0;
    child_sum[d] += r.t1 - r.t0;
  }
  return self;
}

std::map<std::string, double> Spans::self_by_name() const {
  const std::vector<double> self = self_times_all();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i)
    out[records_[i].name] += self[i];
  return out;
}

std::map<std::string, double> Spans::self_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, s] : self_by_name())
    out[name.substr(0, name.find('.'))] += s;
  return out;
}

std::vector<double> Spans::self_times(const std::string& name) const {
  const std::vector<double> self = self_times_all();
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (name == records_[i].name) out.push_back(self[i]);
  return out;
}

double Spans::total_self() const {
  double s = 0.0;
  for (const double v : self_times_all()) s += v;
  return s;
}

// --- report -------------------------------------------------------------------

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& m,
                         bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + json_str(name) +
           ": {\"value\": " + json_num(metric.value) +
           ", \"unit\": " + json_str(metric.unit);
    if (with_samples)
      out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

void Report::result(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  result_[name] = {value, unit, samples};
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  detail_[name] = {value, unit, samples};
}

void Report::stamp(const std::string& key, const std::string& json_value) {
  stamps_.emplace_back(key, json_value);
}

void Report::stamp(const std::string& key, double value) {
  stamp(key, json_num(value));
}

void Report::stamp_str(const std::string& key, const std::string& value) {
  stamp(key, json_str(value));
}

void Report::op(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ops_.size() < 8) failed_ops_.push_back(what_failed);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failed_checks_.push_back(what);
}

void Report::print(const RunConfig& cfg) const {
  std::printf("# workload %s  seed %llu  seconds %g  trace %d%s\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.tiny ? "  (tiny scale)" : "");
  for (const auto& [k, v] : stamps_)
    std::printf("# stamp %-36s %s\n", k.c_str(), v.c_str());
  auto table = [](const char* kind, const std::map<std::string, Metric>& m) {
    for (const auto& [name, metric] : m)
      std::printf("# %-6s %-36s %16.6g %-8s n=%lld\n", kind, name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<long long>(metric.samples));
  };
  table("detail", detail_);
  table("result", result_);
  for (const auto& f : failed_ops_)
    std::printf("# FAILED operation: %s\n", f.c_str());
  for (const auto& f : failed_checks_)
    std::printf("# FAILED check: %s\n", f.c_str());

  std::string stamps = "{";
  for (std::size_t i = 0; i < stamps_.size(); ++i)
    stamps += (i ? ", " : "") + json_str(stamps_[i].first) + ": " +
              stamps_[i].second;
  stamps += "}";
  std::printf("{\"report\": {\"workload\": %s, \"stamps\": %s, \"detail\": %s, "
              "\"result\": %s}}\n",
              json_str(cfg.workload).c_str(), stamps.c_str(),
              metrics_json(detail_, true).c_str(),
              metrics_json(result_, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              metrics_json(result_, false).c_str());
  std::fflush(stdout);
}

void stamp_host(Report& r) {
  r.stamp("host.cores", std::thread::hardware_concurrency());
  r.stamp_str("host.isa",
              featgraph::simd::isa_name(featgraph::simd::active_isa()));
  r.stamp("host.pool_workers",
          featgraph::parallel::ThreadPool::global().num_workers());
  r.stamp("host.llc_bytes", static_cast<double>(llc_bytes()));
}

double triad_gbps(Report& r, int threads, int reps, bool tiny) {
  std::int64_t llc = llc_bytes();
  if (llc <= 0) llc = 32ll << 20;
  const std::int64_t array_bytes = tiny ? (8ll << 20) : 4 * llc;
  const auto n = static_cast<std::size_t>(array_bytes / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  auto& pool = featgraph::parallel::ThreadPool::global();
  auto slice = [n](int tid, int nt, std::size_t& lo, std::size_t& hi) {
    lo = n * static_cast<std::size_t>(tid) / static_cast<std::size_t>(nt);
    hi = n * static_cast<std::size_t>(tid + 1) / static_cast<std::size_t>(nt);
  };
  // First touch on the same threads that stream the arrays later.
  pool.launch(threads, [&](int tid, int nt) {
    std::size_t lo = 0, hi = 0;
    slice(tid, nt, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    pool.launch(threads, [&](int tid, int nt) {
      std::size_t lo = 0, hi = 0;
      slice(tid, nt, lo, hi);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(array_bytes) / dt / 1e9);
  }
  r.check(a[n / 2] == 7.0, "triad result a = b + 3c");
  r.stamp("host.triad_array_bytes", static_cast<double>(array_bytes));
  r.stamp("host.triad_llc_bytes", static_cast<double>(llc));
  r.stamp("host.triad_threads", threads);
  return best;
}

bool all_finite(const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (!std::isfinite(x[i])) return false;
  return true;
}

// --- reference job ------------------------------------------------------------

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::int64_t kRefDegree = 16;
constexpr std::int64_t kRefDim = 32;
constexpr int kRefFanout = 10;
constexpr int kRefBatch = 256;
constexpr int kRefBlock = 64;  // dense part: kRefBlock^2 blocks, in cache

}  // namespace

HostRef::HostRef(bool tiny)
    : n_(tiny ? (1 << 12) : (1 << 18)),
      seeds_(tiny ? 2048 : 32768),
      blocks_(tiny ? 16 : 256) {
  std::uint64_t s = 0x5eedf00dull;
  adj_.resize(static_cast<std::size_t>(n_ * kRefDegree));
  for (auto& u : adj_)
    u = static_cast<std::uint32_t>(splitmix(s) % static_cast<std::uint64_t>(n_));
  feat_.resize(static_cast<std::size_t>(n_ * kRefDim));
  for (auto& f : feat_)
    f = static_cast<float>(splitmix(s) % 1024) / 512.0f - 1.0f;
  weight_.resize(static_cast<std::size_t>(kRefDim * kRefDim));
  for (auto& w : weight_)
    w = static_cast<float>(splitmix(s) % 1024) / 16384.0f;
  stream_.assign(tiny ? (1u << 20) : (32u << 20), 1.0f);
}

double HostRef::resident_mib() const {
  const double bytes = static_cast<double>(adj_.size() * sizeof(adj_[0]) +
                                           (feat_.size() + weight_.size() +
                                            stream_.size()) * sizeof(float));
  return bytes / (1024.0 * 1024.0);
}

double HostRef::cpu_s(int threads) {
  std::vector<double> cpu(static_cast<std::size_t>(std::max(threads, 1)));
  std::vector<std::thread> others;
  for (std::size_t t = 1; t < cpu.size(); ++t)
    others.emplace_back([this, &cpu, t] { cpu[t] = pass(); });
  cpu[0] = pass();
  for (auto& th : others) th.join();
  double total = 0.0;
  for (const double c : cpu) total += c;
  return total;
}

double HostRef::pass() {
  std::uint64_t s = 0x243f6a8885a308d3ull * (calls_.fetch_add(1) + 1);
  const double c0 = thread_cpu_s();
  double check = 0.0;

  // Gathers: mean of kRefFanout random neighbours' rows per seed, then a
  // kRefDim x kRefDim transform per batch of seeds.
  std::vector<float> agg(kRefBatch * kRefDim), out(kRefBatch * kRefDim);
  const auto n = static_cast<std::uint64_t>(n_);
  for (std::int64_t done = 0; done < seeds_; done += kRefBatch) {
    for (int b = 0; b < kRefBatch; ++b) {
      const std::uint64_t v = splitmix(s) % n;
      float* a = &agg[static_cast<std::size_t>(b * kRefDim)];
      std::fill(a, a + kRefDim, 0.0f);
      for (int k = 0; k < kRefFanout; ++k) {
        const std::uint32_t u = adj_[v * kRefDegree + splitmix(s) % kRefDegree];
        const float* f = &feat_[static_cast<std::size_t>(u) * kRefDim];
        for (std::int64_t j = 0; j < kRefDim; ++j) a[j] += f[j];
      }
      for (std::int64_t j = 0; j < kRefDim; ++j) a[j] *= 1.0f / kRefFanout;
    }
    std::fill(out.begin(), out.end(), 0.0f);
    for (int b = 0; b < kRefBatch; ++b) {
      float* o = &out[static_cast<std::size_t>(b * kRefDim)];
      for (std::int64_t k = 0; k < kRefDim; ++k) {
        const float x = agg[static_cast<std::size_t>(b * kRefDim + k)];
        const float* w = &weight_[static_cast<std::size_t>(k * kRefDim)];
        for (std::int64_t j = 0; j < kRefDim; ++j) o[j] += x * w[j];
      }
    }
    check += out[static_cast<std::size_t>(s % out.size())];
  }

  // Dense arithmetic: repeated kRefBlock^2 block products, all in cache.
  constexpr int kB = kRefBlock;
  std::vector<float> a(kB * kB, 0.5f), b(kB * kB, 0.25f), c(kB * kB, 0.0f);
  for (std::int64_t rep = 0; rep < blocks_; ++rep) {
    for (int i = 0; i < kB; ++i)
      for (int k = 0; k < kB; ++k) {
        const float x = a[static_cast<std::size_t>(i * kB + k)];
        const float* brow = &b[static_cast<std::size_t>(k * kB)];
        float* crow = &c[static_cast<std::size_t>(i * kB)];
        for (int j = 0; j < kB; ++j) crow[j] += x * brow[j];
      }
    a[static_cast<std::size_t>(rep % (kB * kB))] =
        c[static_cast<std::size_t>((rep * 7) % (kB * kB))] * 1e-3f;
  }
  check += c[5];

  // Sequential read of the whole stream array.
  float acc0 = 0.0f, acc1 = 0.0f;
  for (std::size_t i = 0; i + 1 < stream_.size(); i += 2) {
    acc0 += stream_[i];
    acc1 += stream_[i + 1];
  }
  check += acc0 + acc1;

  const volatile double keep = check;  // the job's result must be computed
  (void)keep;
  return thread_cpu_s() - c0;
}

}  // namespace pb
