// DPDK QoS Scheduler model (rte_sched) — the paper's second baseline.
//
// Reproduces the librte_sched hierarchy: a port drained at line rate,
// pipes with token-bucket shaping, four strict-priority traffic classes per
// pipe, and WRR among the queues of a traffic class. The run-to-completion
// polling cost model captures the behaviour behind Fig. 13: accurate rate
// conformance, but ~2.3 Mpps of enqueue+dequeue work per 2.3 GHz core, with
// a small multi-core penalty from the thread-safety and cache-line sharing
// costs the paper digs into (§V-B).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/device.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace flowvalve::baseline {

using sim::Rate;
using sim::SimDuration;
using sim::SimTime;

struct DpdkQosConfig {
  Rate port_rate = Rate::gigabits_per_sec(10);
  unsigned run_cores = 1;       // lcores running the scheduler poll loop
  double core_freq_ghz = 2.3;

  /// Per-packet scheduler work (enqueue + dequeue + prefetch misses):
  /// ~1010 cycles/packet ≈ 2.27 Mpps per 2.3 GHz core, matching the
  /// paper's measured 2.25 Mpps @1518 B on one core.
  std::uint32_t cycles_per_packet = 1010;

  /// Fractional throughput loss per additional core (spinlocks + shared
  /// cache lines, §V-B): eff = n·(1 − penalty·(n−1)).
  double multi_core_penalty = 0.005;

  /// Poll/batch granularity of the run loop.
  SimDuration poll_interval = sim::microseconds(20);

  std::size_t queue_limit = 128;  // packets per queue
  SimDuration fixed_delay = sim::microseconds(8);

  /// Per-packet contention jitter (exponential mean): spinlock waits and
  /// cache-line bouncing between enqueue and dequeue lcores make rte_sched's
  /// per-packet latency noticeably noisier than hardware paths (§V-B). The
  /// mean scales with the number of run cores.
  SimDuration contention_jitter_mean = sim::microseconds(8);
  std::uint64_t jitter_seed = 0x5eed;

  /// Effective packets/s of the scheduler stage.
  double effective_pps() const {
    const double n = static_cast<double>(run_cores);
    const double scale = n * (1.0 - multi_core_penalty * (n - 1.0));
    return scale * core_freq_ghz * 1e9 / static_cast<double>(cycles_per_packet);
  }
};

/// One queue inside a pipe: a strict-priority traffic class (0 = highest)
/// and a WRR weight among same-TC queues.
struct DpdkQueueConfig {
  std::string name;
  unsigned tc = 0;         // 0..3, strict priority
  double wrr_weight = 1.0;
};

struct DpdkPipeConfig {
  std::string name;
  Rate rate = Rate::zero();  // pipe token-bucket rate (zero = unshaped)
  std::vector<DpdkQueueConfig> queues;
};

class DpdkQosScheduler final : public net::EgressDevice {
 public:
  DpdkQosScheduler(sim::Simulator& sim, DpdkQosConfig config);

  void add_pipe(const DpdkPipeConfig& pipe);

  /// Maps packets to "pipe/queue" names. Unmatched packets are dropped.
  void set_classifier(std::function<std::string(const net::Packet&)> fn) {
    classify_ = std::move(fn);
  }

  /// Call after configuration, before traffic.
  void start();

  bool submit(net::Packet pkt) override;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t classify_drops = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t transmitted = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t polls = 0;
  };
  const Stats& stats() const { return stats_; }
  const DpdkQosConfig& config() const { return config_; }

  /// DPDK lcores poll at 100%: cores used equals provisioned run cores.
  double cores_used() const { return static_cast<double>(config_.run_cores); }

  std::uint64_t queue_backlog(const std::string& pipe_queue) const;

 private:
  struct Queue {
    DpdkQueueConfig cfg;
    std::deque<net::Packet> q;
    double wrr_credit = 0.0;
  };
  struct Pipe {
    DpdkPipeConfig cfg;
    std::vector<Queue> queues;
    double tb_tokens = 0.0;   // bytes
    double tb_burst = 0.0;
    SimTime tb_last = 0;
  };

  void poll();
  bool wire_has_room() const;
  void push_to_wire(net::Packet pkt);

  int find_queue(const std::string& pipe_queue, int* pipe_idx) const;

  sim::Simulator& sim_;
  DpdkQosConfig config_;
  std::vector<Pipe> pipes_;
  std::function<std::string(const net::Packet&)> classify_;

  std::size_t grinder_ = 0;  // round-robin pipe cursor
  SimTime wire_free_at_ = 0;
  sim::Rng jitter_rng_{0x5eed};
  bool started_ = false;
  std::unique_ptr<sim::PeriodicTimer> poll_timer_;

  Stats stats_;
};

}  // namespace flowvalve::baseline
