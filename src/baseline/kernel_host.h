// Kernel software-scheduler host model (paper §II-A, Fig. 3).
//
// Models what happens when scheduling stays on the host: every sender
// process runs the socket/TCP stack on its own core, serializes on the
// *global qdisc lock* for each enqueue ([23]'s locking-overhead finding),
// and the qdisc is drained to the wire by kernel transmit work that also
// takes the lock. Sender-core cycle budgets cap single-flow throughput
// below line rate; lock contention inflates costs as senders multiply;
// queue-limit tail drops feed TCP loss signals.
#pragma once

#include <memory>
#include <vector>

#include "baseline/qdisc.h"
#include "net/device.h"
#include "sim/sim_lock.h"
#include "sim/simulator.h"

namespace flowvalve::baseline {

struct KernelHostConfig {
  unsigned sender_cores = 4;
  double core_freq_ghz = 2.3;  // the paper's 8-core 2.3 GHz Xeon

  /// Per-skb sender-path cost: socket + TCP + skb alloc + qdisc enqueue.
  std::uint32_t per_skb_cycles = 3500;
  /// Copy/segmentation cost per payload byte (caps one core near ~9 Gbps
  /// for MTU traffic, matching single-flow iperf3-through-HTB reality).
  double cycles_per_byte = 2.2;

  /// Transmit-side per-skb cost (qdisc dequeue + driver xmit), charged to a
  /// softirq core.
  std::uint32_t xmit_skb_cycles = 2200;
  double xmit_cycles_per_byte = 0.30;

  /// Qdisc spinlock hold per enqueue/dequeue.
  sim::SimDuration lock_hold = sim::nanoseconds(260);

  /// Socket buffer: how far ahead of real time a sender core may queue work
  /// before the app blocks/drops.
  sim::SimDuration core_backlog_limit = sim::milliseconds(2);

  Rate wire_rate = Rate::gigabits_per_sec(10);
  sim::SimDuration fixed_delay = sim::microseconds(8);  // driver+NIC+capture
};

class KernelHostDevice final : public net::EgressDevice {
 public:
  KernelHostDevice(sim::Simulator& sim, KernelHostConfig config,
                   std::unique_ptr<Qdisc> root);

  bool submit(net::Packet pkt) override;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t socket_drops = 0;   // sender core hopelessly behind
    std::uint64_t qdisc_drops = 0;    // queue-limit tail drop
    std::uint64_t transmitted = 0;
    std::uint64_t wire_bytes = 0;
  };
  const Stats& stats() const { return stats_; }

  /// CPU cores' busy fraction over [0, now]: index 0..sender_cores-1 are
  /// sender cores, the last entry is the softirq/xmit core.
  std::vector<double> core_utilization(sim::SimTime now) const;

  /// Total CPU cores consumed by scheduling+stack work (Σ busy / elapsed).
  double cores_used(sim::SimTime now) const;

  const sim::LockStats& qdisc_lock_stats() const { return qdisc_lock_.stats(); }

 private:
  void kick_drain();
  void drain_step();

  sim::Simulator& sim_;
  KernelHostConfig config_;
  std::unique_ptr<Qdisc> root_;

  std::vector<sim::SimTime> core_busy_until_;
  std::vector<std::uint64_t> core_busy_ns_;
  sim::SimTime softirq_busy_until_ = 0;
  std::uint64_t softirq_busy_ns_ = 0;

  sim::SimBlockingLock qdisc_lock_;
  bool drain_armed_ = false;
  bool retry_armed_ = false;
  sim::SimTime wire_free_at_ = 0;
  unsigned in_flight_ = 0;

  Stats stats_;
};

}  // namespace flowvalve::baseline
