// Contract tests for the EgressDevice interface across every implementation:
// each submitted packet produces exactly one outcome (delivery or drop),
// callbacks can be installed/replaced, and devices tolerate missing
// callbacks.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/carousel.h"
#include "baseline/dpdk_sched.h"
#include "baseline/kernel_host.h"
#include "baseline/pifo.h"
#include "core/flowvalve.h"
#include "exp/scenarios.h"
#include "fifo_qdisc.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"

namespace flowvalve {
namespace {

using sim::Rate;

struct Harness {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  void attach(net::EgressDevice& dev) {
    dev.set_on_delivered([this](const net::Packet&) { ++delivered; });
    dev.set_on_dropped([this](const net::Packet&) { ++dropped; });
  }
};

net::Packet packet_for(std::uint32_t app, std::uint64_t id) {
  net::Packet p;
  p.id = id;
  p.app_id = app;
  p.flow_id = app;
  p.vf_port = static_cast<std::uint16_t>(app);
  p.wire_bytes = 1518;
  p.tuple.src_ip = 0x0a000001 + app;
  p.tuple.src_port = static_cast<std::uint16_t>(47000 + app);
  return p;
}

/// Submit N packets at a heavy rate, run to quiescence, and require
/// delivered + dropped == N.
void check_conservation(sim::Simulator& sim, net::EgressDevice& dev, Harness& h,
                        unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    const auto at = static_cast<sim::SimTime>(i) * 200;  // 5 Mpps offered
    sim.schedule_at(at, [&dev, i] { dev.submit(packet_for(i % 4, i)); });
  }
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(h.delivered + h.dropped, n);
  EXPECT_GT(h.delivered, 0u);
}

TEST(DeviceContract, NicPipelineConservesPackets) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_10g();
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(exp::fair_queueing_script(nic.wire_rate, 4)), "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline dev(sim, nic, proc);
  Harness h;
  h.attach(dev);
  check_conservation(sim, dev, h, 5000);
}

TEST(DeviceContract, KernelHostConservesPackets) {
  sim::Simulator sim;
  baseline::KernelHostConfig cfg;
  auto fifo = std::make_unique<baseline::FifoQdisc>(64);
  baseline::KernelHostDevice dev(sim, cfg, std::move(fifo));
  Harness h;
  h.attach(dev);
  check_conservation(sim, dev, h, 3000);
}

TEST(DeviceContract, DpdkConservesPackets) {
  sim::Simulator sim;
  baseline::DpdkQosConfig cfg;
  baseline::DpdkQosScheduler dev(sim, cfg);
  for (int i = 0; i < 4; ++i) {
    baseline::DpdkPipeConfig pipe;
    pipe.name = "p" + std::to_string(i);
    pipe.queues.push_back({"q", 0, 1.0});
    dev.add_pipe(pipe);
  }
  dev.set_classifier(
      [](const net::Packet& p) { return "p" + std::to_string(p.app_id % 4) + "/q"; });
  dev.start();
  Harness h;
  h.attach(dev);
  check_conservation(sim, dev, h, 5000);
}

TEST(DeviceContract, PifoConservesPackets) {
  sim::Simulator sim;
  baseline::PifoConfig cfg;
  baseline::PifoScheduler dev(sim, cfg);
  for (int i = 0; i < 4; ++i) dev.add_class("c" + std::to_string(i), 1.0);
  dev.set_classifier([](const net::Packet& p) { return static_cast<int>(p.app_id % 4); });
  Harness h;
  h.attach(dev);
  check_conservation(sim, dev, h, 5000);
}

TEST(DeviceContract, CarouselConservesPackets) {
  sim::Simulator sim;
  baseline::CarouselConfig cfg;
  baseline::CarouselShaper dev(sim, cfg);
  dev.set_rate_policy([](const net::Packet&) { return Rate::gigabits_per_sec(2); });
  dev.start();
  Harness h;
  h.attach(dev);
  check_conservation(sim, dev, h, 5000);
}

TEST(DeviceContract, MissingCallbacksAreSafe) {
  // No callbacks installed at all: devices must not crash.
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_10g();
  np::NullProcessor proc;
  np::NicPipeline dev(sim, nic, proc);
  for (unsigned i = 0; i < 100; ++i) dev.submit(packet_for(i % 4, i));
  sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(dev.stats().forwarded_to_wire, 100u);
}

TEST(DeviceContract, CallbacksReplaceable) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_10g();
  np::NullProcessor proc;
  np::NicPipeline dev(sim, nic, proc);
  int first = 0, second = 0;
  dev.set_on_delivered([&](const net::Packet&) { ++first; });
  dev.submit(packet_for(0, 1));
  sim.run_until(sim::milliseconds(1));
  dev.set_on_delivered([&](const net::Packet&) { ++second; });
  dev.submit(packet_for(0, 2));
  sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace flowvalve
