#include "calibrate.hpp"

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "report.hpp"

namespace perfbench {

namespace {

/// A banded sparse matrix-vector product, repeated; kRows sets whether its
/// working set streams from memory or stays in cache.
template <std::size_t kRows, int kSweeps>
struct Kernel {
  static constexpr std::size_t kWidth = 9;

  std::vector<double> values = std::vector<double>(kRows * kWidth);
  std::vector<std::uint32_t> columns =
      std::vector<std::uint32_t>(kRows * kWidth);
  std::vector<double> x = std::vector<double>(kRows, 1.0);
  std::vector<double> y = std::vector<double>(kRows, 0.0);

  Kernel() {
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t k = 0; k < kWidth; ++k) {
        columns[i * kWidth + k] =
            static_cast<std::uint32_t>((i + k * 997) % kRows);
        values[i * kWidth + k] = 1.0 / (1.0 + static_cast<double>(k));
      }
    }
  }

  void run() {
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t i = 0; i < kRows; ++i) {
        double sum = 0.0;
        for (std::size_t k = 0; k < kWidth; ++k)
          sum += values[i * kWidth + k] * x[columns[i * kWidth + k]];
        y[i] = sum;
      }
      x.swap(y);
      for (double& v : x) v *= 0.25;
    }
  }
};

/// One calibration run: a streaming phase (60k rows, ~7 MB) and a
/// cache-resident phase (3k rows, ~0.4 MB), for work of either kind.
struct Calibration {
  Kernel<60'000, 20> streaming;
  Kernel<3'000, 400> resident;

  void run() {
    streaming.run();
    resident.run();
  }
};

}  // namespace

double calibration_ms(unsigned threads) {
  static std::deque<Calibration> kernels;
  while (kernels.size() < threads) {
    kernels.emplace_back();
    kernels.back().run();  // first touch of the data, untimed
  }
  Samples runs;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> side;
      for (unsigned t = 1; t < threads; ++t)
        side.emplace_back([t] { kernels[t].run(); });
      kernels[0].run();
    }
    runs.add(seconds_between(t0, Clock::now()) * 1e3);
  }
  return runs.median();
}

}  // namespace perfbench
