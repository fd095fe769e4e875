// Span tracer and the timing decorators of the benchmark's traced run.
//
// The decorators sit on the simulator's public seams and time every call
// that crosses them from the outside:
//   CheckedDevice    net::EgressDevice between FlowRouter and NicPipeline
//                    (np.submit, and traffic.feedback for the delivered /
//                    dropped callbacks back into FlowRouter); it also runs
//                    the per-packet delivery checks in every run
//   TimedProcessor   np::PacketProcessor around FlowValveProcessor (core)
//   TimedObserver    np::PipelineObserver forwarding to obs::MetricsHub
// Spans nest (a submit can dispatch a burst into the core synchronously),
// so each layer's self time is its span's duration minus its children's.
// Call counts cover every call. Reading the clock costs ~20 ns on a
// virtualized x86 host, so only call trees rooted at a deterministic
// 1-in-N subset of packet ids are timed, and each layer's self time over
// the whole run is estimated by scaling those trees up by their root
// kind's untimed/timed ratio, net of the clock's own cost per span. Raw
// spans are kept for a sparser subset, up to a cap, and written once at
// exit as Chrome trace-event JSON.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "net/device.h"
#include "np/nic_pipeline.h"
#include "obs/metrics_hub.h"
#include "stats/stats.h"

namespace perfbench {

using namespace flowvalve;

/// Cheap monotonic tick counter; converted to seconds per traced run by
/// calibrating against std::chrono::steady_clock over the same interval.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

enum class Layer : std::uint8_t { kTraffic, kNp, kCore, kObs, kCheck };
inline constexpr std::size_t kNumLayers = 5;
const char* layer_name(Layer layer);

enum class SpanKind : std::uint8_t {
  kFeedbackDelivered,
  kFeedbackDropped,
  kSubmit,
  kCoreBatch,
  kCoreProcess,
  kObsDispatch,
  kObsDrop,
  kObsWireTx,
  kObsDelivered,
  kScenario,
};
inline constexpr std::size_t kNumSpanKinds = 10;
const char* span_name(SpanKind kind);
Layer span_layer(SpanKind kind);

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;  // exact
    double self_ticks = 0.0;  // estimated from the timed roots
  };

  /// A call tree (an outermost span and everything nested in it) is timed
  /// when its root packet id hashes into a 1-in-`time_every` subset, and
  /// its raw spans are kept when it hashes into the 1-in-`keep_every`
  /// subset (powers of two, keep_every >= time_every), up to `max_spans`.
  Tracer(std::uint64_t time_every, std::uint64_t keep_every, std::size_t max_spans);

  void enter(SpanKind kind, std::uint64_t packet_id) {
    Frame& f = stack_[depth_];
    if (depth_ == 0) {
      // Fibonacci hashing: the top bits of id * 2^64/phi are well spread
      // even for sequential ids (a plain modulus would pick the same
      // position in every sender clump).
      const std::uint64_t h = packet_id * 0x9e3779b97f4a7c15ull;
      f.root = kind;
      f.timed = (h & time_mask_) == 0;
      f.keep = (h & keep_mask_) == 0;
      ++root_calls_[index(kind)];
      if (f.timed) ++timed_root_calls_[index(kind)];
    } else {
      const Frame& parent = stack_[depth_ - 1];
      f.root = parent.root;
      f.timed = parent.timed;
      f.keep = parent.keep;
    }
    ++depth_;
    ++calls_[index(kind)];
    if (!f.timed) return;
    ++timed_calls_[index(f.root)][index(kind)];
    f.kind = kind;
    f.child_ticks = 0;
    f.raw = kNone;
    if (f.keep && spans_.size() < max_spans_) {
      f.raw = spans_.size();
      spans_.push_back({kind, packet_id, depth_ > 1 ? stack_[depth_ - 2].raw : kNone, 0, 0});
    }
    f.start = ticks();
  }

  void exit() {
    const Frame& f = stack_[--depth_];
    if (!f.timed) return;
    const std::uint64_t end = ticks();
    const std::uint64_t dur = end - f.start;
    self_ticks_[index(f.root)][index(f.kind)] += dur - f.child_ticks;
    if (depth_ > 0) stack_[depth_ - 1].child_ticks += dur;
    if (f.raw != kNone) {
      spans_[f.raw].start = f.start;
      spans_[f.raw].end = end;
    }
  }

  Totals layer_totals(Layer layer) const;
  /// Estimated ticks inside outermost spans: the sum of every self time.
  double root_ticks() const;

  /// Chrome trace-event JSON ("X" events, one lane per layer); `origin` is
  /// the tick that maps to ts 0 and `ticks_per_us` the calibrated clock.
  std::string chrome_json(std::uint64_t origin, double ticks_per_us) const;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Frame {
    SpanKind kind = SpanKind::kSubmit;
    SpanKind root = SpanKind::kSubmit;
    bool timed = false;
    bool keep = false;
    std::uint64_t start = 0;
    std::uint64_t child_ticks = 0;
    std::size_t raw = kNone;
  };
  struct RawSpan {
    SpanKind kind;
    std::uint64_t packet_id;
    std::size_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  static std::size_t index(SpanKind kind) { return static_cast<std::size_t>(kind); }
  Totals totals(SpanKind kind) const;
  /// Untimed roots per timed root of `root`'s kind.
  double scale(std::size_t root) const;
  /// Self ticks of one (root, kind) cell net of the clock's own cost.
  double net_self(std::size_t root, std::size_t kind) const;

  std::uint64_t time_mask_;
  std::uint64_t keep_mask_;
  std::size_t max_spans_;
  std::array<Frame, 64> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kNumSpanKinds> calls_{};
  std::array<std::uint64_t, kNumSpanKinds> root_calls_{};
  std::array<std::uint64_t, kNumSpanKinds> timed_root_calls_{};
  std::array<std::array<std::uint64_t, kNumSpanKinds>, kNumSpanKinds> timed_calls_{};
  std::array<std::array<std::uint64_t, kNumSpanKinds>, kNumSpanKinds> self_ticks_{};
  /// What one timed span adds to its own measured duration (two clock
  /// reads back to back); subtracted from every self time.
  std::uint64_t clock_ticks_ = 0;
  std::vector<RawSpan> spans_;
};

/// Scoped span; a null tracer makes it free apart from one branch.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind, std::uint64_t packet_id) : tracer_(tracer) {
    if (tracer_) tracer_->enter(kind, packet_id);
  }
  ~Span() {
    if (tracer_) tracer_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Per-packet delivery checks of every pipeline run: conservation
/// (submitted == delivered + dropped at quiescence), in-flow ordering
/// (seq_in_flow strictly increasing at delivery), and, if asked, the exact
/// sojourn sample (nic_arrival → delivered_at) of every delivery.
class DeliveryCheck {
 public:
  explicit DeliveryCheck(bool record_sojourn) : record_sojourn_(record_sojourn) {}

  void on_submit() { ++submitted_; }
  void on_delivered(const net::Packet& pkt);
  void on_dropped() { ++dropped_; }

  /// Count deliveries whose delivered_at falls in [from, to).
  void set_window(sim::SimTime from, sim::SimTime to) {
    window_from_ = from;
    window_to_ = to;
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t out_of_order() const { return out_of_order_; }
  std::uint64_t delivered_in_window() const { return in_window_; }
  /// Packets neither delivered nor dropped (meaningful at quiescence).
  std::uint64_t unaccounted() const {
    const std::uint64_t done = delivered_ + dropped_;
    return submitted_ > done ? submitted_ - done : done - submitted_;
  }
  const stats::LatencyStats& sojourn() const { return sojourn_; }

 private:
  bool record_sojourn_;
  std::uint64_t submitted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t in_window_ = 0;
  sim::SimTime window_from_ = 0;
  sim::SimTime window_to_ = 0;
  std::vector<std::uint64_t> next_seq_;  // by flow id: last seq + 1, 0 = none
  stats::LatencyStats sojourn_;
};

/// The egress device the traffic layer sees: forwards to the pipeline,
/// feeds DeliveryCheck, and (traced) times submit and the feedback calls.
class CheckedDevice final : public net::EgressDevice {
 public:
  CheckedDevice(np::NicPipeline& inner, DeliveryCheck& check, Tracer* tracer);

  bool submit(net::Packet pkt) override {
    check_.on_submit();
    Span span(tracer_, SpanKind::kSubmit, pkt.id);
    return inner_.submit(std::move(pkt));
  }

 private:
  np::NicPipeline& inner_;
  DeliveryCheck& check_;
  Tracer* tracer_;
};

class TimedProcessor final : public np::PacketProcessor {
 public:
  TimedProcessor(np::PacketProcessor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  Outcome process(net::Packet& pkt, sim::SimTime now) override {
    ++packets_;
    Span span(&tracer_, SpanKind::kCoreProcess, pkt.id);
    return inner_.process(pkt, now);
  }
  void process_batch(BatchSlot* slots, std::size_t n, sim::SimTime now) override {
    packets_ += n;
    Span span(&tracer_, SpanKind::kCoreBatch, n > 0 ? slots[0].pkt->id : 0);
    inner_.process_batch(slots, n, now);
  }

  std::uint64_t packets() const { return packets_; }

 private:
  np::PacketProcessor& inner_;
  Tracer& tracer_;
  std::uint64_t packets_ = 0;
};

/// Times the observer calls MetricsHub implements; the other hooks are
/// forwarded untimed (the hub inherits them as no-ops).
class TimedObserver final : public np::PipelineObserver {
 public:
  TimedObserver(obs::MetricsHub& hub, Tracer& tracer) : hub_(hub), tracer_(tracer) {}

  void on_submit(const net::Packet& pkt, sim::SimTime now) override {
    hub_.on_submit(pkt, now);
  }
  void on_dispatch(const net::Packet& pkt, unsigned worker, std::uint64_t seq,
                   sim::SimTime now, sim::SimDuration busy) override {
    Span span(&tracer_, SpanKind::kObsDispatch, pkt.id);
    hub_.on_dispatch(pkt, worker, seq, now, busy);
  }
  void on_drop(const net::Packet& pkt, np::DropReason reason,
               sim::SimTime now) override {
    Span span(&tracer_, SpanKind::kObsDrop, pkt.id);
    hub_.on_drop(pkt, reason, now);
  }
  void on_watchdog(const net::Packet& pkt, unsigned worker, std::uint64_t seq,
                   sim::SimTime now) override {
    hub_.on_watchdog(pkt, worker, seq, now);
  }
  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override {
    Span span(&tracer_, SpanKind::kObsWireTx, pkt.id);
    hub_.on_wire_tx(pkt, now);
  }
  void on_delivered(const net::Packet& pkt, sim::SimTime now) override {
    Span span(&tracer_, SpanKind::kObsDelivered, pkt.id);
    hub_.on_delivered(pkt, now);
  }

 private:
  obs::MetricsHub& hub_;
  Tracer& tracer_;
};

}  // namespace perfbench
