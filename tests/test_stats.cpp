// Unit tests for the measurement utilities.
#include <gtest/gtest.h>

#include "stats/series_export.h"
#include "stats/stats.h"

namespace flowvalve::stats {
namespace {

TEST(Ewma, FirstObservationSetsValue) {
  Ewma e(sim::milliseconds(1));
  EXPECT_FALSE(e.has_value());
  e.observe(0, 10.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, HalfLifeDecay) {
  Ewma e(sim::milliseconds(1));
  e.observe(0, 10.0);
  e.observe(sim::milliseconds(1), 0.0);  // one half-life later
  EXPECT_NEAR(e.value(), 5.0, 0.01);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(sim::milliseconds(1));
  for (int i = 0; i <= 20; ++i) e.observe(sim::milliseconds(i), 7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, ResetClears) {
  Ewma e(sim::milliseconds(1));
  e.observe(0, 10.0);
  e.reset();
  EXPECT_FALSE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
}

TEST(ThroughputSeries, BinsBytes) {
  ThroughputSeries s(sim::milliseconds(100));
  s.add(sim::milliseconds(50), 1000);
  s.add(sim::milliseconds(150), 3000);
  s.add(sim::milliseconds(160), 1000);
  EXPECT_EQ(s.bins(), 2u);
  // Bin 0: 1000 B / 100 ms = 80 kbps.
  EXPECT_NEAR(s.bin_rate(0).kbps(), 80.0, 0.001);
  EXPECT_NEAR(s.bin_rate(1).kbps(), 320.0, 0.001);
  EXPECT_DOUBLE_EQ(s.bin_rate(99).bps(), 0.0);  // out of range → zero
  EXPECT_EQ(s.total_bytes(), 5000u);
}

TEST(ThroughputSeries, MeanRateOverRange) {
  ThroughputSeries s(sim::milliseconds(100));
  for (int bin = 0; bin < 10; ++bin)
    s.add(bin * sim::milliseconds(100) + 1, static_cast<std::uint64_t>(1000 * (bin + 1)));
  // Bins 0..9 hold 1000..10000 bytes. Mean over [2,4): (3000+4000)/2 per 100ms.
  EXPECT_NEAR(s.mean_rate(2, 4).kbps(), 3500 * 8.0 / 100.0 * 1000 / 1000, 0.01);
}

TEST(ThroughputSeries, BinMidSeconds) {
  ThroughputSeries s(sim::milliseconds(100));
  EXPECT_DOUBLE_EQ(s.bin_mid_seconds(0), 0.05);
  EXPECT_DOUBLE_EQ(s.bin_mid_seconds(9), 0.95);
}

TEST(LatencyStats, MeanStddevPercentiles) {
  LatencyStats l;
  for (int us = 1; us <= 100; ++us) l.add(sim::microseconds(us));
  EXPECT_EQ(l.count(), 100u);
  EXPECT_NEAR(l.mean_us(), 50.5, 0.01);
  EXPECT_NEAR(l.percentile_us(50), 50.5, 0.01);
  EXPECT_NEAR(l.percentile_us(99), 99.01, 0.1);
  EXPECT_NEAR(l.min_us(), 1.0, 0.001);
  EXPECT_NEAR(l.max_us(), 100.0, 0.001);
  EXPECT_NEAR(l.stddev_us(), 29.0, 0.2);
}

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats l;
  EXPECT_DOUBLE_EQ(l.mean_us(), 0.0);
  EXPECT_DOUBLE_EQ(l.stddev_us(), 0.0);
  EXPECT_DOUBLE_EQ(l.percentile_us(99), 0.0);
}

TEST(LatencyStats, SingleSample) {
  LatencyStats l;
  l.add(sim::microseconds(42));
  EXPECT_DOUBLE_EQ(l.mean_us(), 42.0);
  EXPECT_DOUBLE_EQ(l.stddev_us(), 0.0);
  EXPECT_DOUBLE_EQ(l.percentile_us(0), 42.0);
  EXPECT_DOUBLE_EQ(l.percentile_us(100), 42.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"a", "bbbb"});
  tp.add_row({"xxxxx", "1"});
  const std::string out = tp.to_string();
  EXPECT_NE(out.find("| a     | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxx | 1    |"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(3.14159, 4), "3.1416");
}

TEST(SeriesExport, CsvShape) {
  ThroughputSeries s(sim::milliseconds(100));
  s.add(sim::milliseconds(50), 12500);  // 1 Mbps bin
  const std::string csv =
      series_to_csv({{"app", &s}}, sim::milliseconds(200));
  EXPECT_NE(csv.find("time_s,app_gbps"), std::string::npos);
  EXPECT_NE(csv.find("0.050,0.0010"), std::string::npos);

  // Bins finer than 0.1 s stamp their midpoints exactly: 2.5 ms, not 0.003.
  ThroughputSeries fine(sim::milliseconds(5));
  fine.add(sim::milliseconds(6), 625);  // 1 Mbps in the second bin
  const std::string fine_csv =
      series_to_csv({{"app", &fine}}, sim::milliseconds(10));
  EXPECT_NE(fine_csv.find("\n0.0025,0.0000\n0.0075,0.0010\n"), std::string::npos)
      << fine_csv;
}

TEST(SeriesExport, TableContainsTotals) {
  ThroughputSeries a(sim::milliseconds(100));
  ThroughputSeries b(sim::milliseconds(100));
  a.add(1, 125'000'000);  // 10 Gbps over 100ms
  b.add(1, 62'500'000);   // 5 Gbps
  const std::string table = series_to_table({{"a", &a}, {"b", &b}},
                                            sim::milliseconds(100),
                                            sim::milliseconds(100));
  EXPECT_NE(table.find("10.00"), std::string::npos);
  EXPECT_NE(table.find("5.00"), std::string::npos);
  EXPECT_NE(table.find("15.00"), std::string::npos);  // total column
}

}  // namespace
}  // namespace flowvalve::stats
