#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace gbmobench {

int SpanLog::begin(const std::string& name, double modeled) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = name;
  s.host_start = host_now();
  s.modeled_start = modeled;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::end(double modeled) {
  if (open_.empty()) throw std::logic_error("span end without a begin");
  Span& s = spans_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  s.host_end = host_now();
  s.modeled_end = modeled;
}

int SpanLog::add(Span s) {
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.host_start, s.host_end});
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.host_start;  // end of the union so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.host_end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (s.host_end - s.host_start) - covered;
  }
  return self;
}

void SpanLog::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"clocks\": {\"host\": \"s since run start\", "
                  "\"modeled\": \"modeled device s\"},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %d, \"parent\": %d, \"request\": %ld, \"name\": \"%s\", "
                 "\"host\": [%.9f, %.9f], \"modeled\": [%.9g, %.9g]}%s\n",
                 s.id, s.parent, s.request, s.name.c_str(), s.host_start,
                 s.host_end, s.modeled_start, s.modeled_end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

void FitTracer::begin_fit() {
  std::lock_guard<std::mutex> lock(mu_);
  cur_ = FitLayers{};
  first_span_ = log_.spans().size();
  log_.begin("fit", 0.0);
  last_charge_ = log_.host_now();
}

FitLayers FitTracer::end_fit(double modeled_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.end(modeled_seconds);
  const auto self = log_.self_seconds();
  for (std::size_t i = first_span_; i < log_.spans().size(); ++i) {
    if (log_.spans()[i].name.rfind("tree ", 0) == 0) {
      cur_.tree_self_ms.push_back(self[i] * 1e3);
    }
  }
  return std::move(cur_);
}

void FitTracer::on_event(const gbmo::sim::KernelEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = log_.host_now();
  cur_.phase_host[*e.phase] += now - last_charge_;
  last_charge_ = now;
  if (e.seconds > 0.0) ++cur_.launches;
  if (*e.phase == "histogram") cur_.histogram += e.stats;
}

void FitTracer::on_span_begin(const std::string& name, double ts) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.begin(name, ts);
}

void FitTracer::on_span_end(double ts) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.end(ts);
}

}  // namespace gbmobench
