// Invariant-checking subsystem (see DESIGN.md §7).
//
// A CheckHarness taps a NicPipeline (as its PipelineObserver) and optionally
// a FlowValveEngine (via the process observer), hands every event to the
// pluggable InvariantChecker instances that override its hook, samples
// slow-changing state on a periodic epoch timer, and collects violations.
// The checkers encode the paper's correctness claims — packet conservation through the single
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
#include <type_traits>
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
/// simulation has fully drained (quiescence assertions go there). A checker
/// overrides only the hooks it reads: the harness calls a per-packet hook
/// only on the checkers whose type overrides it.
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
///   harness.add_standard_checkers();
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

  /// Register a checker and return it. The per-packet hooks it overrides
  /// are read off its type, which must therefore be final: it joins each
  /// such hook's list in registration order, and it gets every on_epoch
  /// and on_finish. Hooks may fire before start() (tests call them
  /// directly), so the lists are filled here.
  template <class T>
  T& add(std::unique_ptr<T> checker);

  /// Install the full standard library of checkers that apply to this
  /// pipeline's config and engine (invariants.cpp).
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
  /// The engine's process observer, installed by start().
  void on_engine_result(const net::Packet& pkt,
                        const core::FlowValveEngine::Result& result,
                        sim::SimTime now);

 private:
  using Hooked = std::vector<InvariantChecker*>;

  SystemView view() const;
  /// Virtual-time monotonicity: every observed event, on any hook, must
  /// carry a timestamp >= the previous one (the simulator's core contract).
  void observe_clock(sim::SimTime now) {
    if (now < last_event_time_) [[unlikely]] clock_went_backwards(now);
    last_event_time_ = now;
  }
  void clock_went_backwards(sim::SimTime now);

  sim::Simulator& sim_;
  np::NicPipeline& pipeline_;
  core::FlowValveEngine* engine_;
  ViolationSink sink_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  // One list per per-packet hook: the checkers whose type overrides it.
  struct {
    Hooked submit, dispatch, drop, wire_tx, delivered, engine_result, watchdog;
  } hooked_;
  std::unique_ptr<sim::PeriodicTimer> epoch_timer_;
  sim::SimTime last_event_time_ = 0;
  std::uint64_t delivered_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

template <class T>
T& CheckHarness::add(std::unique_ptr<T> checker) {
  static_assert(std::is_base_of_v<InvariantChecker, T> && std::is_final_v<T>,
                "hook lists are read off the checker's type, so it must be final");
  T& c = *checker;
  c.sink_ = &sink_;
  checkers_.push_back(std::move(checker));
  // &T::on_x names InvariantChecker's empty default unless T overrides it.
  const auto route = [&c]<class Mine, class Default>(Mine, Default, Hooked& list) {
    if constexpr (!std::is_same_v<Mine, Default>) list.push_back(&c);
  };
  using I = InvariantChecker;
  route(&T::on_submit, &I::on_submit, hooked_.submit);
  route(&T::on_dispatch, &I::on_dispatch, hooked_.dispatch);
  route(&T::on_drop, &I::on_drop, hooked_.drop);
  route(&T::on_wire_tx, &I::on_wire_tx, hooked_.wire_tx);
  route(&T::on_delivered, &I::on_delivered, hooked_.delivered);
  route(&T::on_engine_result, &I::on_engine_result, hooked_.engine_result);
  route(&T::on_watchdog, &I::on_watchdog, hooked_.watchdog);
  return c;
}

}  // namespace flowvalve::check
