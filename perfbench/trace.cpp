#include "trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTraffic: return "traffic";
    case Layer::kNp: return "np";
    case Layer::kCore: return "core";
    case Layer::kObs: return "obs";
    case Layer::kCheck: return "check";
  }
  return "?";
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFeedbackDelivered: return "traffic.feedback_delivered";
    case SpanKind::kFeedbackDropped: return "traffic.feedback_dropped";
    case SpanKind::kSubmit: return "np.submit";
    case SpanKind::kCoreBatch: return "core.process_batch";
    case SpanKind::kCoreProcess: return "core.process";
    case SpanKind::kObsDispatch: return "obs.on_dispatch";
    case SpanKind::kObsDrop: return "obs.on_drop";
    case SpanKind::kObsWireTx: return "obs.on_wire_tx";
    case SpanKind::kObsDelivered: return "obs.on_delivered";
    case SpanKind::kScenario: return "check.scenario";
  }
  return "?";
}

Layer span_layer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFeedbackDelivered:
    case SpanKind::kFeedbackDropped: return Layer::kTraffic;
    case SpanKind::kSubmit: return Layer::kNp;
    case SpanKind::kCoreBatch:
    case SpanKind::kCoreProcess: return Layer::kCore;
    case SpanKind::kObsDispatch:
    case SpanKind::kObsDrop:
    case SpanKind::kObsWireTx:
    case SpanKind::kObsDelivered: return Layer::kObs;
    case SpanKind::kScenario: return Layer::kCheck;
  }
  return Layer::kCheck;
}

namespace {

/// Mask of the top log2(n) bits (n a power of two; 0 for n = 1).
std::uint64_t top_bits(std::uint64_t n) {
  return n <= 1 ? 0 : ~(~std::uint64_t{0} >> std::countr_zero(n));
}

}  // namespace

Tracer::Tracer(std::uint64_t time_every, std::uint64_t keep_every, std::size_t max_spans)
    : time_mask_(top_bits(time_every)), keep_mask_(top_bits(keep_every)), max_spans_(max_spans) {
  std::vector<std::uint64_t> empty(1001);
  for (std::uint64_t& d : empty) {
    const std::uint64_t a = ticks();
    d = ticks() - a;
  }
  std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
  clock_ticks_ = empty[500];
}

double Tracer::net_self(std::size_t root, std::size_t kind) const {
  const double net = static_cast<double>(self_ticks_[root][kind]) -
                     static_cast<double>(timed_calls_[root][kind] * clock_ticks_);
  return std::max(net, 0.0);
}

double Tracer::scale(std::size_t root) const {
  return timed_root_calls_[root] == 0 ? 0.0
                                      : static_cast<double>(root_calls_[root]) /
                                            static_cast<double>(timed_root_calls_[root]);
}

Tracer::Totals Tracer::totals(SpanKind kind) const {
  Totals t;
  t.calls = calls_[index(kind)];
  for (std::size_t root = 0; root < kNumSpanKinds; ++root)
    t.self_ticks += net_self(root, index(kind)) * scale(root);
  return t;
}

Tracer::Totals Tracer::layer_totals(Layer layer) const {
  Totals sum;
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    if (span_layer(static_cast<SpanKind>(k)) != layer) continue;
    const Totals t = totals(static_cast<SpanKind>(k));
    sum.calls += t.calls;
    sum.self_ticks += t.self_ticks;
  }
  return sum;
}

double Tracer::root_ticks() const {
  double sum = 0.0;
  for (std::size_t root = 0; root < kNumSpanKinds; ++root)
    for (std::size_t kind = 0; kind < kNumSpanKinds; ++kind)
      sum += net_self(root, kind) * scale(root);
  return sum;
}

std::string Tracer::chrome_json(std::uint64_t origin, double ticks_per_us) const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const RawSpan& s = spans_[i];
    const double ts = static_cast<double>(s.start - origin) / ticks_per_us;
    const double end = static_cast<double>(s.end - origin) / ticks_per_us;
    const long long parent = s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"packet_id\":%llu,\"end_us\":%.3f}}",
                  i == 0 ? "" : ",\n", span_name(s.kind),
                  layer_name(span_layer(s.kind)),
                  static_cast<unsigned>(span_layer(s.kind)) + 1, ts, end - ts, i,
                  parent, static_cast<unsigned long long>(s.packet_id), end);
    out += buf;
  }
  out += "]}\n";
  return out;
}

void DeliveryCheck::on_delivered(const net::Packet& pkt) {
  ++delivered_;
  if (pkt.flow_id >= next_seq_.size())
    next_seq_.resize(std::max<std::size_t>(next_seq_.size() * 2, pkt.flow_id + 1), 0);
  std::uint64_t& next = next_seq_[pkt.flow_id];
  if (next != 0 && pkt.seq_in_flow < next) ++out_of_order_;
  next = pkt.seq_in_flow + 1;
  if (pkt.delivered_at >= window_from_ && pkt.delivered_at < window_to_) ++in_window_;
  if (record_sojourn_) sojourn_.add(pkt.delivered_at - pkt.nic_arrival);
}

CheckedDevice::CheckedDevice(np::NicPipeline& inner, DeliveryCheck& check,
                             Tracer* tracer)
    : inner_(inner), check_(check), tracer_(tracer) {
  inner_.set_on_delivered([this](const net::Packet& pkt) {
    check_.on_delivered(pkt);
    Span span(tracer_, SpanKind::kFeedbackDelivered, pkt.id);
    deliver(pkt);
  });
  inner_.set_on_dropped([this](const net::Packet& pkt) {
    check_.on_dropped();
    Span span(tracer_, SpanKind::kFeedbackDropped, pkt.id);
    notify_drop(pkt);
  });
}

}  // namespace perfbench
