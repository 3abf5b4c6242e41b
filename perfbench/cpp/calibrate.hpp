// Host-speed calibration.
//
// The benchmark runs on shared hosts whose CPU speed swings by up to half
// within seconds (neighbours on the same cores).  Every timed unit of work
// (a simulator iteration, a server pass) is therefore bracketed by a fixed
// calibration kernel — banded sparse matrix-vector products over a
// synthetic 60k-row matrix that streams from memory and a 3k-row one that
// stays in cache, written here so that no change to the program moves
// them — and host times are reported normalized to the reference speed:
//
//   normalized time = measured time * kReferenceMs / calibration time
//
// where the calibration time is the mean of the runs just before and just
// after the unit.  Work that runs on several threads at once is calibrated
// with as many copies of the kernel running side by side: a neighbour that
// takes some of the cores slows it more than it slows one thread.  Raw
// times are kept in the result file next to the normalized ones.
#pragma once

#include <vector>

namespace perfbench {

/// Calibration time on the reference host (4-core Xeon, quiet), in ms: the
/// streaming phase takes 8 ms there, and the cache-resident phase took 0.8
/// times as long as the streaming one on that Xeon.
inline constexpr double kReferenceCalibrationMs = 14.4;

/// Run `threads` copies of the calibration kernel side by side, three
/// times; the median wall time of a run in ms.
double calibration_ms(unsigned threads = 1);

/// Factor that turns a raw host time into a normalized one, from the
/// calibration times measured before and after the timed unit.
inline double speed_factor(double before_ms, double after_ms) {
  return kReferenceCalibrationMs / (0.5 * (before_ms + after_ms));
}

/// Calibration between consecutive timed units: next() calibrates once
/// more and returns the speed factor of the unit that just ended.  Every
/// calibration time is appended to `series`.
class SpeedTracker {
 public:
  SpeedTracker(unsigned threads, std::vector<double>& series)
      : threads_(threads), series_(series), last_ms_(measure()) {}

  double next() {
    const double before = last_ms_;
    last_ms_ = measure();
    return speed_factor(before, last_ms_);
  }

 private:
  double measure() {
    series_.push_back(calibration_ms(threads_));
    return series_.back();
  }

  unsigned threads_;
  std::vector<double>& series_;
  double last_ms_;
};

}  // namespace perfbench
