// FlowValveEngine — the public entry point of the core library.
//
// Combines the labeling function (classifier + flow cache) and the
// scheduling function (Algorithm 1) over one scheduling tree, exactly the
// per-packet work a worker micro-engine performs in the paper's back end.
// The NP pipeline (src/np) plugs an engine into every worker core; the
// examples use it directly.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/frontend.h"
#include "core/scheduling_function.h"

namespace flowvalve::core {

class FlowValveEngine {
 public:
  struct Options {
    FvParams params;
    /// Virtual time the update lock is held: SchedulerBackend::kUpdateCycles
    /// at the micro-engine clock (267 ns at 1.2 GHz); np::engine_options_for
    /// derives it from the NP's clock.
    sim::SimDuration lock_hold_ns = 267;
    /// Flow-cache geometry and idle timeout (DESIGN.md §14).
    ExactMatchFlowCache::Options emc;
    /// Scheduling discipline run behind the shared contention structure
    /// (scheduler_backend.h). The FlowValve tree is the default; rank
    /// backends reuse the same labeling and update walk.
    BackendKind backend = BackendKind::kFlowValve;
  };

  // Two overloads rather than `Options options = {}`: GCC defers parsing a
  // nested class's default member initializers to the end of the enclosing
  // class, so a brace default argument here can't see Options::backend's.
  FlowValveEngine();
  explicit FlowValveEngine(Options options);

  /// Apply an fv policy script and finalize. Throws std::invalid_argument
  /// on parse errors; returns a non-empty error string on semantic errors.
  std::string configure(std::string_view fv_script, sim::SimTime now = 0);

  /// The engine's only data-path entry point, run once per packet as
  /// Algorithm 1 runs on a micro-engine: label (one EMC probe, a rule walk
  /// on a miss), schedule, then notify the process observer. The packet's
  /// label field is filled in. Returns the combined decision with total
  /// cycles spent.
  struct Result {
    Verdict verdict = Verdict::kDrop;
    std::uint32_t cycles = 0;
    bool cache_hit = false;
    bool borrowed = false;
  };
  Result process(net::Packet& pkt, sim::SimTime now);

  /// Passive tap fired once per processed packet with the labeled packet
  /// and the decision taken — src/check hangs its scheduler-conformance
  /// checkers here. Empty (and free) by default.
  using ProcessObserver =
      std::function<void(const net::Packet&, const Result&, sim::SimTime)>;
  void set_process_observer(ProcessObserver observer) {
    process_observer_ = std::move(observer);
  }

  FvFrontend& frontend() { return frontend_; }
  const FvFrontend& frontend() const { return frontend_; }
  SchedulingTree& tree() { return frontend_.tree(); }
  const SchedulingTree& tree() const { return frontend_.tree(); }
  /// The configured discipline (any backend).
  SchedulerBackend& backend() { return *sched_; }
  const SchedulerBackend& backend() const { return *sched_; }
  BackendKind backend_kind() const { return options_.backend; }
  /// The FlowValve scheduling function. Only valid under the default
  /// backend (asserts otherwise) — legacy accessor for the ablation
  /// benches and FlowValve-specific tests.
  SchedulingFunction& scheduler();
  Classifier& classifier() { return frontend_.classifier(); }

  bool ready() const { return sched_ != nullptr; }

 private:
  Options options_;
  FvFrontend frontend_;
  std::unique_ptr<SchedulerBackend> sched_;  // created once configured
  ProcessObserver process_observer_;
};

}  // namespace flowvalve::core
