#include "stats/series_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace flowvalve::stats {
namespace {

double series_rate_at(const ThroughputSeries& s, SimTime t0, SimTime t1) {
  // Average the bins overlapping [t0, t1).
  const SimDuration bw = s.bin_width();
  const auto b0 = static_cast<std::size_t>(t0 / bw);
  const auto b1 = static_cast<std::size_t>((t1 + bw - 1) / bw);
  if (b1 <= b0) return s.bin_rate(b0).gbps();
  double acc = 0.0;
  for (std::size_t b = b0; b < b1; ++b) acc += s.bin_rate(b).gbps();
  return acc / static_cast<double>(b1 - b0);
}

}  // namespace

std::string series_to_csv(const std::vector<NamedSeries>& series, SimTime horizon) {
  std::ostringstream out;
  out << "time_s";
  for (const auto& s : series) out << ',' << s.name << "_gbps";
  out << '\n';
  if (series.empty()) return out.str();
  const SimDuration bw = series.front().series->bin_width();
  const auto nbins = static_cast<std::size_t>(horizon / bw);
  const int decimals =
      bw >= sim::milliseconds(100) ? 3 : exact_seconds_decimals(bw) + 1;
  char buf[64];
  for (std::size_t b = 0; b < nbins; ++b) {
    std::snprintf(buf, sizeof(buf), "%.*f", decimals,
                  series.front().series->bin_mid_seconds(b));
    out << buf;
    for (const auto& s : series) {
      std::snprintf(buf, sizeof(buf), "%.4f", s.series->bin_rate(b).gbps());
      out << ',' << buf;
    }
    out << '\n';
  }
  return out.str();
}

bool write_series_csv(const std::string& path, const std::vector<NamedSeries>& series,
                      SimTime horizon) {
  std::ofstream f(path);
  if (!f) return false;
  f << series_to_csv(series, horizon);
  return static_cast<bool>(f);
}

std::string series_to_ascii(const std::vector<NamedSeries>& series, SimTime horizon,
                            Rate max_rate, std::size_t cols) {
  static const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  std::ostringstream out;
  std::size_t name_w = 0;
  for (const auto& s : series) name_w = std::max(name_w, s.name.size());
  for (const auto& s : series) {
    out << s.name << std::string(name_w - s.name.size(), ' ') << " |";
    for (std::size_t c = 0; c < cols; ++c) {
      const SimTime t0 = static_cast<SimTime>(static_cast<double>(horizon) * c / cols);
      const SimTime t1 = static_cast<SimTime>(static_cast<double>(horizon) * (c + 1) / cols);
      const double g = series_rate_at(*s.series, t0, t1);
      int level = max_rate.gbps() <= 0.0
                      ? 0
                      : static_cast<int>(g / max_rate.gbps() * 8.0 + 0.5);
      level = std::clamp(level, 0, 8);
      out << kBlocks[level];
    }
    out << "| 0.." << max_rate.gbps() << " Gbps\n";
  }
  return out.str();
}

std::string series_to_table(const std::vector<NamedSeries>& series, SimTime horizon,
                            SimDuration step) {
  TablePrinter::fmt(0.0);  // keep linker honest about inline usage
  std::vector<std::string> headers{"t(s)"};
  for (const auto& s : series) headers.push_back(s.name + "(Gbps)");
  headers.push_back("total(Gbps)");
  TablePrinter tp(std::move(headers));
  const int decimals =
      step >= sim::milliseconds(100) ? 1 : exact_seconds_decimals(step);
  for (SimTime t = 0; t + step <= horizon; t += step) {
    std::vector<std::string> row;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%*.*f-%*.*f", decimals + 4, decimals,
                  sim::to_seconds(t), decimals + 4, decimals,
                  sim::to_seconds(t + step));
    row.emplace_back(buf);
    double total = 0.0;
    for (const auto& s : series) {
      const double g = series_rate_at(*s.series, t, t + step);
      total += g;
      row.push_back(TablePrinter::fmt(g, 2));
    }
    row.push_back(TablePrinter::fmt(total, 2));
    tp.add_row(std::move(row));
  }
  return tp.to_string();
}

int exact_seconds_decimals(SimDuration d) {
  int decimals = 9;
  for (; decimals > 0 && d % 10 == 0; --decimals) d /= 10;
  return decimals;
}

}  // namespace flowvalve::stats
