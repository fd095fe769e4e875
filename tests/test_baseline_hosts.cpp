// Unit tests for the kernel host model and the DPDK QoS scheduler model.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/dpdk_sched.h"
#include "baseline/htb.h"
#include "baseline/kernel_host.h"
#include "fifo_qdisc.h"
#include "sim/simulator.h"

namespace flowvalve::baseline {
namespace {

using sim::Rate;

net::Packet packet_for(std::uint32_t app, std::uint32_t bytes = 1518,
                       std::uint64_t id = 0) {
  net::Packet p;
  p.id = id;
  p.app_id = app;
  p.flow_id = app;
  p.wire_bytes = bytes;
  return p;
}

TEST(FifoQdiscTest, TailDropAtLimit) {
  FifoQdisc fifo(2);
  EXPECT_TRUE(fifo.enqueue(packet_for(0), 0));
  EXPECT_TRUE(fifo.enqueue(packet_for(0), 0));
  EXPECT_FALSE(fifo.enqueue(packet_for(0), 0));
  EXPECT_EQ(fifo.drops(), 1u);
}

// ---- KernelHostDevice --------------------------------------------------------

TEST(KernelHost, DeliversThroughQdiscWithTimestamps) {
  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.wire_rate = Rate::gigabits_per_sec(40);
  auto fifo = std::make_unique<FifoQdisc>(1000);
  KernelHostDevice dev(sim, cfg, std::move(fifo));
  int delivered = 0;
  net::Packet seen;
  dev.set_on_delivered([&](const net::Packet& p) {
    ++delivered;
    seen = p;
  });
  dev.submit(packet_for(0, 1518, 7));
  sim.run_until(sim::milliseconds(10));
  ASSERT_EQ(delivered, 1);
  EXPECT_EQ(seen.id, 7u);
  EXPECT_GT(seen.wire_tx_done, 0);
  EXPECT_EQ(seen.delivered_at, seen.wire_tx_done + cfg.fixed_delay);
}

TEST(KernelHost, SingleCoreCapsThroughput) {
  // One app on one core, 64 KiB skbs: the sender-core cycle model caps
  // throughput near 9 Gbps even on a 40G wire.
  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.sender_cores = 4;
  cfg.wire_rate = Rate::gigabits_per_sec(40);
  KernelHostDevice dev(sim, cfg, std::make_unique<FifoQdisc>(64));
  std::uint64_t delivered_bytes = 0;
  dev.set_on_delivered(
      [&](const net::Packet& p) { delivered_bytes += p.wire_bytes; });
  // Offer 20G from a single app.
  const std::uint32_t bytes = 64 * 1024;
  const double gap = bytes * 8e9 / 20e9;
  for (double t = 0; t < sim::milliseconds(50); t += gap)
    sim.schedule_at(static_cast<sim::SimTime>(t),
                    [&dev, bytes] { dev.submit(packet_for(0, bytes)); });
  sim.run_until(sim::milliseconds(55));
  const double gbps = static_cast<double>(delivered_bytes) * 8.0 / sim::milliseconds(50);
  EXPECT_GT(gbps, 6.0);
  EXPECT_LT(gbps, 11.0);
  EXPECT_GT(dev.stats().socket_drops, 0u);
  EXPECT_GT(dev.cores_used(sim.now()), 0.8);
}

TEST(KernelHost, MultipleCoresScale) {
  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.sender_cores = 4;
  cfg.wire_rate = Rate::gigabits_per_sec(40);
  KernelHostDevice dev(sim, cfg, std::make_unique<FifoQdisc>(256));
  std::uint64_t delivered_bytes = 0;
  dev.set_on_delivered(
      [&](const net::Packet& p) { delivered_bytes += p.wire_bytes; });
  const std::uint32_t bytes = 64 * 1024;
  const double gap = bytes * 8e9 / 6e9;  // 6G per app, 4 apps = 24G offered
  for (double t = 0; t < sim::milliseconds(50); t += gap)
    for (std::uint32_t app = 0; app < 4; ++app)
      sim.schedule_at(static_cast<sim::SimTime>(t),
                      [&dev, bytes, app] { dev.submit(packet_for(app, bytes)); });
  sim.run_until(sim::milliseconds(55));
  const double gbps = static_cast<double>(delivered_bytes) * 8.0 / sim::milliseconds(50);
  // Four cores push well beyond the single-core cap.
  EXPECT_GT(gbps, 16.0);
}

TEST(KernelHost, LockContentionAccumulates) {
  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.sender_cores = 4;
  KernelHostDevice dev(sim, cfg, std::make_unique<FifoQdisc>(1000));
  for (int i = 0; i < 200; ++i)
    for (std::uint32_t app = 0; app < 4; ++app) dev.submit(packet_for(app, 1518));
  sim.run_until(sim::milliseconds(10));
  EXPECT_GT(dev.qdisc_lock_stats().total_wait, 0);
  EXPECT_GT(dev.qdisc_lock_stats().acquisitions, 400u);
}

TEST(KernelHost, CoreUtilizationVectorShape) {
  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.sender_cores = 3;
  KernelHostDevice dev(sim, cfg, std::make_unique<FifoQdisc>(16));
  dev.submit(packet_for(0));
  sim.run_until(sim::milliseconds(1));
  const auto util = dev.core_utilization(sim.now());
  ASSERT_EQ(util.size(), 4u);  // 3 senders + softirq
  EXPECT_GT(util[0], 0.0);
  EXPECT_DOUBLE_EQ(util[1], 0.0);
}

TEST(KernelHost, HtbRootHoldsTenantsToRootAndRates) {
  // An idealized HTB as the root qdisc: two tenants offering 8G each of
  // GSO skbs are held near the 10G root and split by their 6:3 rates.
  auto htb = std::make_unique<HtbQdisc>(Rate::gigabits_per_sec(10),
                                        Rate::gigabits_per_sec(10));
  HtbClassConfig vm1;
  vm1.name = "vm1";
  vm1.rate = Rate::gigabits_per_sec(6);
  vm1.ceil = Rate::gigabits_per_sec(10);
  vm1.queue_limit = 32;
  htb->add_class(vm1);
  HtbClassConfig vm2 = vm1;
  vm2.name = "vm2";
  vm2.rate = Rate::gigabits_per_sec(3);
  htb->add_class(vm2);
  htb->set_classifier(
      [](const net::Packet& p) { return p.app_id == 0 ? "vm1" : "vm2"; });

  sim::Simulator sim;
  KernelHostConfig cfg;
  cfg.sender_cores = 4;
  cfg.wire_rate = Rate::gigabits_per_sec(40);
  KernelHostDevice dev(sim, cfg, std::move(htb));
  std::uint64_t delivered[2] = {};
  dev.set_on_delivered([&](const net::Packet& p) { delivered[p.app_id] += p.wire_bytes; });

  const std::uint32_t bytes = 64 * 1024;
  const double gap = bytes * 8e9 / 8e9;
  for (double t = 0; t < sim::milliseconds(200); t += gap)
    sim.schedule_at(static_cast<sim::SimTime>(t), [&dev, bytes] {
      dev.submit(packet_for(0, bytes));
      dev.submit(packet_for(1, bytes));
    });
  sim.run_until(sim::milliseconds(220));

  const double total_gbps =
      static_cast<double>(delivered[0] + delivered[1]) * 8.0 / sim::milliseconds(200);
  EXPECT_NEAR(total_gbps, 10.0, 1.2);
  EXPECT_NEAR(static_cast<double>(delivered[0]) / static_cast<double>(delivered[1]),
              2.0, 0.5);
}

// ---- DpdkQosScheduler ---------------------------------------------------------

DpdkQosScheduler make_dpdk(sim::Simulator& sim, DpdkQosConfig cfg,
                           bool with_probe_pipe = false) {
  DpdkQosScheduler sched(sim, cfg);
  for (int i = 0; i < 2; ++i) {
    DpdkPipeConfig pipe;
    pipe.name = "p" + std::to_string(i);
    pipe.queues.push_back({"hi", 0, 1.0});
    pipe.queues.push_back({"lo", 1, 1.0});
    sched.add_pipe(pipe);
  }
  if (with_probe_pipe) {
    DpdkPipeConfig pipe;
    pipe.name = "probe";
    pipe.queues.push_back({"q", 0, 1.0});
    sched.add_pipe(pipe);
  }
  sched.set_classifier([](const net::Packet& p) -> std::string {
    switch (p.app_id) {
      case 0: return "p0/hi";
      case 1: return "p0/lo";
      case 2: return "p1/hi";
      default: return "p1/lo";
    }
  });
  return sched;
}

TEST(DpdkQos, EffectivePpsModel) {
  DpdkQosConfig cfg;
  cfg.run_cores = 1;
  EXPECT_NEAR(cfg.effective_pps() / 1e6, 2.277, 0.01);
  cfg.run_cores = 4;
  EXPECT_NEAR(cfg.effective_pps() / 1e6, 4 * 0.985 * 2.277, 0.05);
}

TEST(DpdkQos, DeliversAndTimestamps) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  auto sched = make_dpdk(sim, cfg);
  sched.start();
  int delivered = 0;
  sched.set_on_delivered([&](const net::Packet&) { ++delivered; });
  sched.submit(packet_for(0));
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sched.stats().transmitted, 1u);
}

TEST(DpdkQos, UnmatchedClassifyDrops) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  DpdkQosScheduler sched(sim, cfg);
  DpdkPipeConfig pipe;
  pipe.name = "p0";
  pipe.queues.push_back({"q", 0, 1.0});
  sched.add_pipe(pipe);
  sched.set_classifier([](const net::Packet&) { return "nope/q"; });
  sched.start();
  int drops = 0;
  sched.set_on_dropped([&](const net::Packet&) { ++drops; });
  EXPECT_FALSE(sched.submit(packet_for(0)));
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(sched.stats().classify_drops, 1u);
}

TEST(DpdkQos, QueueLimitDrops) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  cfg.queue_limit = 4;
  auto sched = make_dpdk(sim, cfg);
  sched.start();
  for (int i = 0; i < 10; ++i) sched.submit(packet_for(0));
  EXPECT_EQ(sched.stats().queue_drops, 6u);
  EXPECT_EQ(sched.queue_backlog("p0/hi"), 4u);
}

TEST(DpdkQos, StrictTcPriorityWithinPipe) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  cfg.port_rate = Rate::megabits_per_sec(100);  // slow wire serializes output
  auto sched = make_dpdk(sim, cfg);
  sched.start();
  std::vector<std::uint32_t> order;
  sched.set_on_delivered([&](const net::Packet& p) { order.push_back(p.app_id); });
  // Fill lo first, then hi: hi (TC0) must come out before lo (TC1).
  for (int i = 0; i < 4; ++i) sched.submit(packet_for(1));
  for (int i = 0; i < 4; ++i) sched.submit(packet_for(0));
  sim.run_until(sim::seconds(2));
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 0u);
}

TEST(DpdkQos, WrrWeightsShareTc) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  cfg.port_rate = Rate::gigabits_per_sec(1);
  DpdkQosScheduler sched(sim, cfg);
  DpdkPipeConfig pipe;
  pipe.name = "p";
  pipe.queues.push_back({"a", 0, 3.0});
  pipe.queues.push_back({"b", 0, 1.0});
  sched.add_pipe(pipe);
  sched.set_classifier([](const net::Packet& p) {
    return p.app_id == 0 ? std::string("p/a") : std::string("p/b");
  });
  sched.start();
  std::uint64_t got_a = 0, got_b = 0;
  sched.set_on_delivered([&](const net::Packet& p) {
    (p.app_id == 0 ? got_a : got_b) += p.wire_bytes;
  });
  // Keep both queues topped up.
  sim::PeriodicTimer feeder(sim, sim::microseconds(50), [&] {
    while (sched.queue_backlog("p/a") < 32) sched.submit(packet_for(0));
    while (sched.queue_backlog("p/b") < 32) sched.submit(packet_for(1));
  });
  feeder.start();
  sim.run_until(sim::milliseconds(200));
  ASSERT_GT(got_b, 0u);
  EXPECT_NEAR(static_cast<double>(got_a) / static_cast<double>(got_b), 3.0, 0.5);
}

TEST(DpdkQos, PipeShapingLimitsRate) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  cfg.port_rate = Rate::gigabits_per_sec(10);
  DpdkQosScheduler sched(sim, cfg);
  DpdkPipeConfig pipe;
  pipe.name = "p";
  pipe.rate = Rate::gigabits_per_sec(2);
  pipe.queues.push_back({"q", 0, 1.0});
  sched.add_pipe(pipe);
  sched.set_classifier([](const net::Packet&) { return "p/q"; });
  sched.start();
  std::uint64_t got = 0;
  sched.set_on_delivered([&](const net::Packet& p) { got += p.wire_bytes; });
  sim::PeriodicTimer feeder(sim, sim::microseconds(50), [&] {
    while (sched.queue_backlog("p/q") < 64) sched.submit(packet_for(0));
  });
  feeder.start();
  sim.run_until(sim::milliseconds(100));
  const double gbps = static_cast<double>(got) * 8.0 / sim::milliseconds(100);
  EXPECT_NEAR(gbps, 2.0, 0.3);
}

TEST(DpdkQos, CpuBudgetCapsPacketRate) {
  sim::Simulator sim;
  DpdkQosConfig cfg;
  cfg.run_cores = 1;
  cfg.port_rate = Rate::gigabits_per_sec(40);
  auto sched = make_dpdk(sim, cfg);
  sched.start();
  std::uint64_t got = 0;
  sched.set_on_delivered([&](const net::Packet&) { ++got; });
  sim::PeriodicTimer feeder(sim, sim::microseconds(20), [&] {
    while (sched.queue_backlog("p0/hi") < 64) sched.submit(packet_for(0, 64));
  });
  feeder.start();
  sim.run_until(sim::milliseconds(50));
  const double mpps = static_cast<double>(got) / sim::to_seconds(sim::milliseconds(50)) / 1e6;
  EXPECT_NEAR(mpps, 2.27, 0.2);  // one core's budget, not the 59 Mpps wire
}

}  // namespace
}  // namespace flowvalve::baseline
