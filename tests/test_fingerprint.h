// Hashing helpers shared by the fingerprint tests (grower, inference): an
// FNV-1a stream hasher and a StatsSink that folds every kernel event and
// span into it, in arrival order.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "sim/sink.h"

namespace gbmo {

// FNV-1a over a byte stream.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Hashes every kernel event (name, phase, device, tree, level, every
// KernelStats field, the bit patterns of `seconds` and `t_end`) and every
// span begin/end, and keeps a few per-device and per-kernel tallies for the
// tests' premise checks.
class RecordingSink : public sim::StatsSink {
 public:
  void on_event(const sim::KernelEvent& e) override {
    h.u64('K');
    h.str(*e.name);
    h.str(*e.phase);
    h.i64(e.device);
    h.i64(e.tree);
    h.i64(e.level);
    const sim::KernelStats& s = e.stats;
    for (const std::uint64_t v :
         {s.gmem_coalesced_bytes, s.gmem_random_accesses, s.atomic_global_ops,
          s.atomic_global_conflicts, s.atomic_shared_ops,
          s.atomic_shared_conflicts, s.smem_bytes, s.flops, s.blocks,
          s.threads, s.barriers, s.sort_pairs_bytes, s.scan_bytes,
          s.check_violations, s.faults_injected, s.fault_retries}) {
      h.u64(v);
    }
    h.f64(e.seconds);
    h.f64(e.t_end);
    clock[e.device] = e.t_end;
    last_tree[e.device] = e.tree;
    ++kernels[*e.name];
  }
  void on_span_begin(const std::string& name, double ts) override {
    h.u64('B');
    h.str(name);
    h.f64(ts);
  }
  void on_span_end(double ts) override {
    h.u64('E');
    h.f64(ts);
  }

  Fnv h;
  std::map<int, double> clock;  // device -> modeled seconds after its last charge
  std::map<int, int> last_tree;  // device -> tree of its last charge
  std::map<std::string, std::uint64_t> kernels;
};

}  // namespace gbmo
