#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/timer.hpp"

namespace perfbench {

namespace {

thread_local int t_current = -1;  ///< innermost open span of this thread
thread_local int t_tid = -1;      ///< this thread's number, -1 until first span

/// Total length of the union of the intervals.
double covered(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double open_until = -1e300;
  for (const auto& [a, b] : iv) {
    const double lo = std::max(a, open_until);
    if (b > lo) total += b - lo;
    open_until = std::max(open_until, b);
  }
  return total;
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, const char* layer, std::string name,
                      long req)
    : log_(&log), outer_(t_current) {
  id_ = log.open(layer, std::move(name), req);
  t_current = id_;
}

SpanLog::Scope::~Scope() {
  log_->close(id_);
  t_current = outer_;
}

int SpanLog::open(const char* layer, std::string name, long req) {
  const double t = h2::now_sec();
  const std::lock_guard<std::mutex> lk(mu_);
  if (t_tid < 0) t_tid = n_threads_++;
  spans_.push_back({layer, std::move(name), t, t, t_current, t_tid, req});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double t = h2::now_sec();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

void SpanLog::add_tasks(const h2::ExecStats& ex, const std::string& dag) {
  const std::lock_guard<std::mutex> lk(mu_);
  for (const auto& r : ex.records)
    tasks_.push_back(
        {dag, r.label, r.t_start, r.t_end, r.worker, r.level, r.owner});
}

std::vector<LayerTime> SpanLog::self_times(double t_begin,
                                           double t_end) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  std::vector<std::pair<double, double>> all;
  for (const Span& s : spans_) {
    all.emplace_back(s.t0, s.t1);
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  }
  std::vector<LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const LayerTime& l) {
      return l.layer == s.layer;
    });
    if (it == out.end()) it = out.insert(out.end(), {s.layer, 0.0});
    it->seconds += (s.t1 - s.t0) - covered(children[i]);
  }
  out.push_back({"unattributed", (t_end - t_begin) - covered(all)});
  return out;
}

bool SpanLog::write_chrome(const std::string& path, double t_begin,
                           const std::string& other_data) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  if (!f) return false;
  auto us = [t_begin](double t) { return (t - t_begin) * 1e6; };
  char buf[160];
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data
    << ",\"traceEvents\":[\n"
    << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"layer spans"}},)"
    << "\n"
    << R"({"name":"process_name","ph":"M","pid":2,"args":{"name":"DAG workers"}})";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,\"tid\":%d",
                  us(s.t0), us(s.t1) - us(s.t0), s.tid);
    f << ",\n{\"name\":\"" << escaped(s.name) << "\",\"cat\":\"" << s.layer
      << "\",\"ph\":\"X\",\"pid\":1," << buf << ",\"args\":{\"span\":" << i
      << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  for (const Task& t : tasks_) {
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,\"tid\":%d",
                  us(t.t0), us(t.t1) - us(t.t0), t.worker);
    f << ",\n{\"name\":\"" << escaped(t.label)
      << "\",\"cat\":\"runtime.task\",\"ph\":\"X\",\"pid\":2," << buf
      << ",\"args\":{\"dag\":\"" << escaped(t.dag) << "\",\"level\":"
      << t.level << ",\"owner\":" << t.owner << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
