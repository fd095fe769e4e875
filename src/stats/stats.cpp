#include "stats/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace flowvalve::stats {

// ---------------------------------------------------------------- Ewma ----

void Ewma::observe(SimTime now, double value) {
  if (!initialized_) {
    value_ = value;
    last_ = now;
    initialized_ = true;
    return;
  }
  const SimDuration dt = now - last_;
  last_ = now;
  if (dt <= 0) {
    // Same-instant observation: average in with half weight.
    value_ = 0.5 * value_ + 0.5 * value;
    return;
  }
  const double decay = std::exp2(-static_cast<double>(dt) / static_cast<double>(half_life_));
  value_ = decay * value_ + (1.0 - decay) * value;
}

void Ewma::reset() {
  value_ = 0.0;
  last_ = 0;
  initialized_ = false;
}

// ---------------------------------------------------- ThroughputSeries ----

ThroughputSeries::ThroughputSeries(SimDuration bin_width) : bin_width_(bin_width) {
  assert(bin_width > 0);
}

void ThroughputSeries::add(SimTime now, std::uint64_t bytes) {
  const auto bin = static_cast<std::size_t>(now / bin_width_);
  if (bin >= bytes_per_bin_.size()) bytes_per_bin_.resize(bin + 1, 0);
  bytes_per_bin_[bin] += bytes;
  total_bytes_ += bytes;
}

Rate ThroughputSeries::bin_rate(std::size_t i) const {
  if (i >= bytes_per_bin_.size()) return Rate::zero();
  return Rate::bits_per_sec(static_cast<double>(bytes_per_bin_[i]) * 8e9 /
                            static_cast<double>(bin_width_));
}

double ThroughputSeries::bin_mid_seconds(std::size_t i) const {
  return sim::to_seconds(static_cast<SimTime>(i) * bin_width_ + bin_width_ / 2);
}

Rate ThroughputSeries::mean_rate(std::size_t from, std::size_t to) const {
  if (from >= to) return Rate::zero();
  std::uint64_t bytes = 0;
  for (std::size_t i = from; i < to && i < bytes_per_bin_.size(); ++i)
    bytes += bytes_per_bin_[i];
  const auto span = static_cast<double>((to - from) * static_cast<std::size_t>(bin_width_));
  return Rate::bits_per_sec(static_cast<double>(bytes) * 8e9 / span);
}

// -------------------------------------------------------- LatencyStats ----

void LatencyStats::add(SimDuration sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void LatencyStats::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyStats::mean_us() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (auto s : samples_) acc += sim::to_micros(s);
  return acc / static_cast<double>(samples_.size());
}

double LatencyStats::stddev_us() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean_us();
  double acc = 0.0;
  for (auto s : samples_) {
    const double d = sim::to_micros(s) - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double LatencyStats::percentile_us(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sim::to_micros(samples_[lo]) * (1.0 - frac) + sim::to_micros(samples_[hi]) * frac;
}

double LatencyStats::min_us() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return sim::to_micros(samples_.front());
}

double LatencyStats::max_us() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return sim::to_micros(samples_.back());
}

// -------------------------------------------------------- TablePrinter ----

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      out << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) out << std::string(width[c] + 2, '-') << "|";
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TablePrinter::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace flowvalve::stats
