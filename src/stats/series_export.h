// Rendering helpers for throughput time series: CSV export for offline
// plotting and a compact ASCII strip chart that lets the Fig. 3/11 benches
// show the *shape* of each series directly in the terminal.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "stats/stats.h"

namespace flowvalve::stats {

/// A named series sampled on a shared bin grid.
struct NamedSeries {
  std::string name;
  const ThroughputSeries* series = nullptr;
};

/// Emit "time_s,name1_gbps,name2_gbps,..." rows covering [0, horizon), one
/// per bin, stamped with the bin's midpoint: three decimals for bins of
/// 0.1 s or more, one more than the bin width needs for finer ones.
std::string series_to_csv(const std::vector<NamedSeries>& series, SimTime horizon);

/// Write CSV to a file; returns false on I/O failure.
bool write_series_csv(const std::string& path, const std::vector<NamedSeries>& series,
                      SimTime horizon);

/// Render each series as one row of unicode block characters, scaled to
/// `max_rate`, with `cols` columns covering [0, horizon). A legend line maps
/// glyph height to Gbps.
std::string series_to_ascii(const std::vector<NamedSeries>& series, SimTime horizon,
                            Rate max_rate, std::size_t cols = 60);

/// Print a per-interval rate table: one row per `step` of virtual time, one
/// column per series (in Gbps). This is the primary textual form of the
/// throughput-over-time figures. Row labels carry one decimal for steps of
/// 0.1 s or more and exact_seconds_decimals(step) for finer ones.
std::string series_to_table(const std::vector<NamedSeries>& series, SimTime horizon,
                            SimDuration step);

/// Decimals that print `d` in seconds exactly: 9 less the trailing decimal
/// zeros of its nanosecond count (0 for whole seconds).
int exact_seconds_decimals(SimDuration d);

}  // namespace flowvalve::stats
