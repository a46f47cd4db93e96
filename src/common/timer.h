// Wall-clock timing helpers for the bench harness and phase accounting.
#pragma once

#include <chrono>

namespace gbmo {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  // Elapsed seconds since construction/reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gbmo
