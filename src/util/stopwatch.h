// Wall-clock stopwatch for the benchmark harness.
#ifndef TRANCE_UTIL_STOPWATCH_H_
#define TRANCE_UTIL_STOPWATCH_H_

#include <chrono>

namespace trance {

/// Microseconds since a process-wide epoch (first call). All observability
/// timestamps (compile-phase spans, runtime stage wall times) share this
/// epoch so they land on one consistent trace timeline.
inline double WallMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace trance

#endif  // TRANCE_UTIL_STOPWATCH_H_
