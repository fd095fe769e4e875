// Invariant-checking subsystem (see DESIGN.md §7).
//
// A CheckHarness taps a NicPipeline (as its PipelineObserver) and optionally
// a FlowValveEngine (via the process observer), fans every event out to a
// set of pluggable InvariantChecker instances, samples slow-changing state
// on a periodic epoch timer, and collects violations. The checkers encode
// the paper's correctness claims — packet conservation through the single
// shared FIFO, in-order wire delivery through the reorder system, token-
// bucket/ceiling conformance, scheduling-tree arithmetic, monotonic virtual
// time, and worker busy-interval exclusivity — so any randomized scenario
// the fuzzer generates can be validated without a hand-written expectation.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/flowvalve.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"

namespace flowvalve::check {

struct Violation {
  std::string checker;
  sim::SimTime at = 0;
  std::string detail;

  std::string to_string() const;
};

/// Bounded violation collector shared by all checkers of one harness. The
/// cap is per checker name: a flood from one noisy checker (e.g. ordering,
/// which reports once per overtaken packet) must not evict the single
/// violation another checker raises at finish time.
class ViolationSink {
 public:
  /// Violations stored per checker name (the total is still counted).
  static constexpr std::size_t kCapPerChecker = 64;

  void report(std::string_view checker, sim::SimTime at, std::string detail);

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t total() const { return total_; }
  bool clean() const { return total_ == 0; }

 private:
  std::uint64_t total_ = 0;
  std::vector<Violation> violations_;
  std::map<std::string, std::size_t, std::less<>> stored_per_checker_;
};

/// Read-only view of the system under check, handed to epoch/finish hooks.
struct SystemView {
  const np::NicPipeline* pipeline = nullptr;
  const core::FlowValveEngine* engine = nullptr;  // may be null (NullProcessor)
  std::uint64_t delivered_packets = 0;            // harness-counted deliveries
};

/// One pluggable invariant. Event hooks mirror PipelineObserver; on_epoch
/// runs on the harness's sampling timer; on_finish runs once after the
/// simulation has fully drained (quiescence assertions go there).
class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;

  virtual std::string_view name() const = 0;

  virtual void on_submit(const net::Packet&, sim::SimTime) {}
  virtual void on_dispatch(const net::Packet&, unsigned /*worker*/,
                           std::uint64_t /*ingress_seq*/, sim::SimTime,
                           sim::SimDuration /*busy*/) {}
  virtual void on_drop(const net::Packet&, np::DropReason, sim::SimTime) {}
  virtual void on_wire_tx(const net::Packet&, sim::SimTime) {}
  virtual void on_delivered(const net::Packet&, sim::SimTime) {}
  virtual void on_engine_result(const net::Packet&,
                                const core::FlowValveEngine::Result&,
                                sim::SimTime) {}
  virtual void on_watchdog(const net::Packet&, unsigned /*worker*/,
                           std::uint64_t /*ingress_seq*/, sim::SimTime) {}
  virtual void on_epoch(const SystemView&, sim::SimTime) {}
  virtual void on_finish(const SystemView&, sim::SimTime) {}

 protected:
  friend class CheckHarness;
  void fail(sim::SimTime at, std::string detail) {
    if (sink_) sink_->report(name(), at, std::move(detail));
  }

 private:
  ViolationSink* sink_ = nullptr;
};

/// Wires checkers into a pipeline + engine. Lifecycle:
///
///   CheckHarness harness(sim, pipeline, &engine);
///   harness.add_standard_checkers(...);
///   harness.start();          // installs observers + epoch timer
///   ... run the scenario, stop traffic, drain the simulator ...
///   harness.finish();         // quiescence checks
///   harness.sink().clean()    // verdict
class CheckHarness final : public np::PipelineObserver {
 public:
  /// Period of the on_epoch sampling timer.
  static constexpr sim::SimDuration kEpoch = sim::milliseconds(1);

  CheckHarness(sim::Simulator& sim, np::NicPipeline& pipeline,
               core::FlowValveEngine* engine);
  ~CheckHarness() override;

  void add(std::unique_ptr<InvariantChecker> checker);

  /// Install the full standard library of checkers (invariants.h).
  void add_standard_checkers();

  void start();
  /// Stop the epoch timer so the simulator can drain to quiescence (the
  /// timer would otherwise re-arm forever and run_all() would never return).
  void stop_sampling();
  void finish();

  const ViolationSink& sink() const { return sink_; }
  std::uint64_t delivered_packets() const { return delivered_; }

  // PipelineObserver:
  void on_submit(const net::Packet& pkt, sim::SimTime now) override;
  void on_dispatch(const net::Packet& pkt, unsigned worker, std::uint64_t seq,
                   sim::SimTime now, sim::SimDuration busy) override;
  void on_drop(const net::Packet& pkt, np::DropReason reason, sim::SimTime now) override;
  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override;
  void on_delivered(const net::Packet& pkt, sim::SimTime now) override;
  void on_watchdog(const net::Packet& pkt, unsigned worker, std::uint64_t seq,
                   sim::SimTime now) override;

 private:
  SystemView view() const;
  /// Virtual-time monotonicity: every observed event, on any hook, must
  /// carry a timestamp >= the previous one (the simulator's core contract).
  void observe_clock(sim::SimTime now);

  sim::Simulator& sim_;
  np::NicPipeline& pipeline_;
  core::FlowValveEngine* engine_;
  ViolationSink sink_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::unique_ptr<sim::PeriodicTimer> epoch_timer_;
  sim::SimTime last_event_time_ = 0;
  std::uint64_t delivered_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace flowvalve::check
