// Benchmark-side tracing. Nothing here is compiled into the library: the
// spans are recorded through the library's public hooks (sim::StatsSink on
// GbmoBooster::set_sink) and around the calls the benchmark makes itself.
//
// A span carries its name, its parent, an optional request id, and its start
// and end on both clocks: host seconds since the run began, and modeled
// device seconds as the layer that produced it reports them. Spans stay in
// memory; SpanLog::write_json writes them once, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/counters.h"
#include "sim/sink.h"

namespace gbmobench {

struct Span {
  int id = 0;
  int parent = -1;      // -1 for a root span
  std::string name;
  long request = -1;    // request id shared by the spans of one request
  double host_start = 0.0;
  double host_end = 0.0;
  double modeled_start = 0.0;
  double modeled_end = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  double host_now() const { return seconds_between(epoch_, Clock::now()); }
  double host_at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  // Opens a span under the innermost open one. Not thread-safe: callers
  // that open spans from several threads serialize (FitTracer does).
  int begin(const std::string& name, double modeled);
  void end(double modeled);
  // Appends a finished span (request spans, recorded after the fact).
  int add(Span s);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part of it that child spans cover, host seconds.
  std::vector<double> self_seconds() const;
  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Per-fit layer counters gathered by FitTracer.
struct FitLayers {
  std::uint64_t launches = 0;                // time-charging events
  std::map<std::string, double> phase_host;  // host seconds per charged phase
  gbmo::sim::KernelStats histogram;          // counters charged in "histogram"
  std::vector<double> tree_self_ms;          // self time of each tree span
};

// The traced run's sink: records the booster's pipeline spans into a SpanLog
// and, per charge, the counters and the host time since the previous charge
// (assigned to the phase that was charged).
class FitTracer final : public gbmo::sim::StatsSink {
 public:
  explicit FitTracer(SpanLog& log) : log_(log) {}

  // Brackets one fit(): opens a root "fit" span and resets the counters.
  void begin_fit();
  FitLayers end_fit(double modeled_seconds);

  void on_event(const gbmo::sim::KernelEvent& e) override;
  void on_span_begin(const std::string& name, double ts) override;
  void on_span_end(double ts) override;

 private:
  SpanLog& log_;
  std::mutex mu_;  // charges arrive from scheduler worker threads
  FitLayers cur_;
  double last_charge_ = 0.0;
  std::size_t first_span_ = 0;
};

}  // namespace gbmobench
