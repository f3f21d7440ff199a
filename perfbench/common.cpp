#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started from a larger parent reports the parent's peak.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---- Report -----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_[key] = json_value;
}
void Report::note_num(const std::string& key, double v) { note(key, json_num(v)); }
void Report::note_str(const std::string& key, const std::string& v) {
  note(key, json_str(v));
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::absorb(const Report& probe) {
  for (const auto& [name, m] : probe.metrics_) {
    if (name != "setup_s") metrics_.emplace(name, m);
  }
  attempted_ += probe.attempted_;
  failed_ += probe.failed_;
  failures_.insert(failures_.end(), probe.failures_.begin(), probe.failures_.end());
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failures_.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
       << json_num(m.value) << ", \"unit\": " << json_str(m.unit) << "}";
    first = false;
  }
  os << "}, \"details\": {";
  first = true;
  for (const auto& [k, v] : notes_) {
    os << (first ? "" : ", ") << json_str(k) << ": " << v;
    first = false;
  }
  os << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << json_str(failures_[i]);
  }
  os << "]}";
  return os.str();
}

// ---- Spans ------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}
}  // namespace

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t request) {
  Rec r;
  r.name = name;
  r.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  r.request = request;
  r.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  r.id = next_id_++;
  r.start_ns = ns_between(t0_, Clock::now());
  recs_.push_back(std::move(r));
  t_open_spans.push_back(recs_.back().id);
  return recs_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  const std::uint64_t now = ns_between(t0_, Clock::now());
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  recs_[id - 1].end_ns = now;  // ids are dense, 1-based
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t request,
                           std::uint64_t parent, Clock::time_point start,
                           Clock::time_point end) {
  Rec r;
  r.name = name;
  r.parent = parent;
  r.request = request;
  r.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  r.id = next_id_++;
  r.start_ns = start > t0_ ? ns_between(t0_, start) : 0;
  r.end_ns = end > t0_ ? ns_between(t0_, end) : 0;
  recs_.push_back(std::move(r));
  return recs_.back().id;
}

std::uint64_t SpanLog::current() {
  return t_open_spans.empty() ? 0 : t_open_spans.back();
}

std::vector<SpanLog::Rec> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recs_;
}

std::map<std::string, double> SpanLog::self_ns() const {
  const auto recs = records();
  // Direct children per parent; concurrent children (requests in flight)
  // overlap, so a parent loses the union of their intervals, not the sum.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      recs.size() + 1);
  for (const auto& r : recs) {
    if (r.parent != 0) kids[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, double> out;
  for (const auto& r : recs) {
    auto& iv = kids[r.id];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = r.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, r.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[r.name] += static_cast<double>(r.end_ns - r.start_ns - covered);
  }
  return out;
}

std::string SpanLog::self_time_table() const {
  const auto recs = records();
  struct Agg {
    std::size_t count = 0;
    double total = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (const auto& r : recs) {
    auto& a = agg[r.name];
    ++a.count;
    a.total += static_cast<double>(r.end_ns - r.start_ns);
  }
  const auto self = self_ns();
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %8s %12s %12s\n", "span (host clock)",
                "count", "total ms", "self ms");
  os << line;
  for (const auto& [name, a] : agg) {
    std::snprintf(line, sizeof line, "%-34s %8zu %12.3f %12.3f\n", name.c_str(),
                  a.count, a.total / 1e6, self.at(name) / 1e6);
    os << line;
  }
  return os.str();
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const auto recs = records();
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    f << (i ? ",\n" : "\n") << "{\"name\":" << json_str(r.name)
      << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
      << json_num(static_cast<double>(r.start_ns) / 1e3)
      << ",\"dur\":" << json_num(static_cast<double>(r.end_ns - r.start_ns) / 1e3)
      << ",\"pid\":1,\"tid\":" << r.tid << ",\"args\":{\"id\":" << r.id
      << ",\"parent\":" << r.parent << ",\"request\":" << r.request << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Span::Span(SpanLog* log, const std::string& name, std::uint64_t request)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->begin(name, request);
}

Span::~Span() {
  if (log_ != nullptr) log_->end(id_);
}

// ---- TimingPredictor --------------------------------------------------------

using mlsim::core::LatencyPrediction;

TimingPredictor::TimingPredictor(mlsim::core::LatencyPredictor& inner,
                                 bool materialize_lazy)
    : inner_(inner), materialize_lazy_(materialize_lazy) {}

namespace {
/// Add to a counter only this decorator's calling thread writes (cheaper
/// than a locked read-modify-write; concurrent readers see a valid value).
void bump(std::atomic<std::uint64_t>& c, std::uint64_t d) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}
}  // namespace

LatencyPrediction TimingPredictor::predict(const mlsim::core::WindowView& window,
                                           std::uint64_t global_index) {
  bump(calls_, 1);
  if (calls_.load(std::memory_order_relaxed) % kSampleEvery != 0) {
    return inner_.predict(window, global_index);
  }
  const auto t0 = Clock::now();
  const LatencyPrediction p = inner_.predict(window, global_index);
  bump(sampled_ns_, ns_between(t0, Clock::now()));
  bump(sampled_, 1);
  return p;
}

LatencyPrediction TimingPredictor::predict_lazy(
    const mlsim::core::LazyWindow& window) {
  if (materialize_lazy_) {
    const auto t0 = Clock::now();
    window.materialize(buf_);
    bump(mat_ns_, ns_between(t0, Clock::now()));
    bump(mat_calls_, 1);
    return predict(mlsim::core::WindowView{buf_.data(), window.rows()},
                   window.current_index());
  }
  bump(calls_, 1);
  if (calls_.load(std::memory_order_relaxed) % kSampleEvery != 0) {
    return inner_.predict_lazy(window);
  }
  const auto t0 = Clock::now();
  const LatencyPrediction p = inner_.predict_lazy(window);
  bump(sampled_ns_, ns_between(t0, Clock::now()));
  bump(sampled_, 1);
  return p;
}

void TimingPredictor::predict_batch(const std::int32_t* windows,
                                    std::size_t batch, std::size_t rows,
                                    const std::uint64_t* global_indices,
                                    LatencyPrediction* out) {
  const auto t0 = Clock::now();
  inner_.predict_batch(windows, batch, rows, global_indices, out);
  batch_ns_.fetch_add(ns_between(t0, Clock::now()), std::memory_order_relaxed);
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_items_.fetch_add(batch, std::memory_order_relaxed);
}

TimingPredictor::Counts TimingPredictor::counts() const {
  Counts c;
  c.calls = calls_.load();
  const std::uint64_t sampled = sampled_.load();
  c.ns = sampled == 0 ? 0
                      : static_cast<std::uint64_t>(
                            static_cast<double>(sampled_ns_.load()) *
                            static_cast<double>(c.calls) /
                            static_cast<double>(sampled));
  c.materialize_calls = mat_calls_.load();
  c.materialize_ns = mat_ns_.load();
  c.batch_calls = batch_calls_.load();
  c.batch_items = batch_items_.load();
  c.batch_ns = batch_ns_.load();
  return c;
}

}  // namespace perfbench
