// Measurement utilities: EWMA filters, binned time series
// (throughput-over-time figures), and latency histograms with percentile
// queries (one-way-delay figure).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace flowvalve::stats {

using sim::Rate;
using sim::SimDuration;
using sim::SimTime;

/// Exponentially weighted moving average with explicit time-decay: the
/// weight of old samples decays with the gap between observations, so the
/// filter behaves identically regardless of sampling cadence.
class Ewma {
 public:
  /// `half_life` — time after which an old sample's weight halves.
  explicit Ewma(SimDuration half_life = sim::milliseconds(2)) : half_life_(half_life) {}

  void set_half_life(SimDuration half_life) { half_life_ = half_life; }

  void observe(SimTime now, double value);
  double value() const { return value_; }
  bool has_value() const { return initialized_; }
  void reset();

 private:
  SimDuration half_life_;
  double value_ = 0.0;
  SimTime last_ = 0;
  bool initialized_ = false;
};

/// Per-interval byte accounting producing a throughput time series — the
/// backbone of every Figure-3/11 style plot. Bins are fixed-width from t=0.
class ThroughputSeries {
 public:
  explicit ThroughputSeries(SimDuration bin_width = sim::milliseconds(100));

  void add(SimTime now, std::uint64_t bytes);

  /// Number of complete+partial bins touched so far.
  std::size_t bins() const { return bytes_per_bin_.size(); }

  /// Average rate within bin `i`.
  Rate bin_rate(std::size_t i) const;

  /// Bin midpoint time in seconds (for plotting).
  double bin_mid_seconds(std::size_t i) const;

  SimDuration bin_width() const { return bin_width_; }

  /// Average rate over bins [from, to) — used by conformance assertions.
  Rate mean_rate(std::size_t from, std::size_t to) const;

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  SimDuration bin_width_;
  std::vector<std::uint64_t> bytes_per_bin_;
  std::uint64_t total_bytes_ = 0;
};

/// Latency histogram with exact storage of samples (sample counts in our
/// experiments are small enough) and percentile/mean/stddev queries.
class LatencyStats {
 public:
  void add(SimDuration sample);

  std::size_t count() const { return samples_.size(); }
  double mean_us() const;
  double stddev_us() const;
  double percentile_us(double p) const;  // p in [0,100]
  double min_us() const;
  double max_us() const;
  void reset() { samples_.clear(); sorted_ = true; }

 private:
  void ensure_sorted() const;
  mutable std::vector<SimDuration> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-layout console table printer used by the benches so that every
/// figure/table reproduction prints in a uniform, diff-able format.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Render to stdout.
  void print() const;
  std::string to_string() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace flowvalve::stats
