#include "obs/span.hpp"

namespace rg::obs {

namespace {

/// Virtual-tick bounds for the per-class latency histograms: powers of two
/// from 16 to 2^20, fixed so exports are comparable across runs.
std::vector<std::uint64_t> latency_bounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 16; b <= (1ull << 20); b <<= 1) bounds.push_back(b);
  return bounds;
}

}  // namespace

const char* to_string(TxnClass cls) {
  switch (cls) {
    case TxnClass::Other: return "OTHER";
    case TxnClass::Register: return "REGISTER";
    case TxnClass::Invite: return "INVITE";
    case TxnClass::Options: return "OPTIONS";
  }
  return "?";
}

SpanTracker::SpanTracker(FlightRecorder* recorder) : recorder_(recorder) {
  spans_.emplace_back();  // id 0 = kNoSpan sentinel
  latency_.reserve(kTxnClassCount);
  for (std::size_t i = 0; i < kTxnClassCount; ++i)
    latency_.push_back(std::make_unique<Histogram>(latency_bounds()));
  if (recorder_ != nullptr) recorder_->set_spans(this, &active_);
}

void SpanTracker::ensure_tid(rt::ThreadId tid) {
  if (tid >= stacks_.size()) {
    stacks_.resize(tid + 1);
    active_.resize(tid + 1, kNoSpan);
  }
}

std::uint32_t SpanTracker::open(rt::ThreadId tid, std::uint32_t parent,
                                rt::ThreadId parent_tid, std::uint32_t trace,
                                std::string_view name, std::uint64_t detail,
                                TxnClass cls) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  SpanInfo info;
  info.id = id;
  info.parent = parent;
  info.trace = trace;
  info.name = support::intern(name);
  info.tid = tid;
  info.parent_tid = parent_tid;
  info.start = recorder_ != nullptr ? recorder_->now() : 0;
  info.detail = detail;
  info.cls = cls;
  spans_.push_back(info);
  stacks_[tid].push_back(id);
  active_[tid] = id;
  // Recorded *after* the stack push so the SpanBegin event itself carries
  // the new span id (and extends the stream hash to the span structure).
  // Names stay out of the hashed fields: interned symbol values depend on
  // process-global first-use order, the dense ids do not.
  if (recorder_ != nullptr)
    recorder_->record_now(EventKind::SpanBegin, tid, id,
                          (static_cast<std::uint64_t>(trace) << 32) | parent,
                          support::kUnknownSite,
                          static_cast<std::uint8_t>(cls));
  return id;
}

std::uint32_t SpanTracker::begin_span(rt::ThreadId tid, std::string_view name,
                                      std::uint64_t detail, TxnClass cls) {
  if (tid == rt::kNoThread) return kNoSpan;
  ensure_tid(tid);
  const std::uint32_t parent = active_[tid];
  const std::uint32_t trace =
      parent != kNoSpan ? spans_[parent].trace : next_trace_++;
  const rt::ThreadId parent_tid =
      parent != kNoSpan ? spans_[parent].tid : rt::kNoThread;
  return open(tid, parent, parent_tid, trace, name, detail, cls);
}

std::uint32_t SpanTracker::adopt(rt::ThreadId tid, const SpanHandoff& from,
                                 std::string_view name, std::uint64_t detail,
                                 TxnClass cls) {
  if (tid == rt::kNoThread) return kNoSpan;
  if (from.span == kNoSpan || from.span >= spans_.size())
    return begin_span(tid, name, detail, cls);
  ensure_tid(tid);
  return open(tid, from.span, spans_[from.span].tid, from.trace, name,
              detail, cls);
}

void SpanTracker::end_span(rt::ThreadId tid) {
  if (tid >= stacks_.size() || stacks_[tid].empty()) return;
  const std::uint32_t id = stacks_[tid].back();
  SpanInfo& info = spans_[id];
  info.end = recorder_ != nullptr ? recorder_->now() : 0;
  info.closed = true;
  // SpanEnd is recorded before the pop so it is stamped with its own id.
  if (recorder_ != nullptr)
    recorder_->record_now(EventKind::SpanEnd, tid, id, info.end - info.start);
  stacks_[tid].pop_back();
  active_[tid] = stacks_[tid].empty() ? kNoSpan : stacks_[tid].back();
  if (info.cls != TxnClass::Other)
    latency_[static_cast<std::size_t>(info.cls)]->observe(info.end -
                                                          info.start);
}

void SpanTracker::export_latency(MetricsRegistry& registry) const {
  registry.counter("spans.count").set(span_count());
  registry.counter("spans.traces").set(trace_count());
  for (std::size_t i = 0; i < kTxnClassCount; ++i) {
    const auto cls = static_cast<TxnClass>(i);
    if (cls == TxnClass::Other) continue;
    const Histogram& h = latency(cls);
    const std::string prefix =
        std::string("spans.latency.") + to_string(cls) + ".";
    registry.gauge(prefix + "count").set(static_cast<std::int64_t>(h.count()));
    registry.gauge(prefix + "p50")
        .set(static_cast<std::int64_t>(h.quantile(0.50)));
    registry.gauge(prefix + "p90")
        .set(static_cast<std::int64_t>(h.quantile(0.90)));
    registry.gauge(prefix + "p99")
        .set(static_cast<std::int64_t>(h.quantile(0.99)));
    registry.gauge(prefix + "max").set(static_cast<std::int64_t>(h.max()));
  }
}

std::string SpanTracker::json() const {
  std::string out = "{\"schema_version\":1";
  out += ",\"traces\":" + std::to_string(trace_count());
  out += ",\"spans\":" + std::to_string(span_count());
  out += ",\"latency\":{";
  bool first_cls = true;
  for (std::size_t i = 0; i < kTxnClassCount; ++i) {
    const auto cls = static_cast<TxnClass>(i);
    if (cls == TxnClass::Other) continue;
    const Histogram& h = latency(cls);
    if (!first_cls) out += ",";
    first_cls = false;
    out += std::string("\"") + to_string(cls) + "\":{";
    out += "\"count\":" + std::to_string(h.count());
    out += ",\"p50\":" + std::to_string(h.quantile(0.50));
    out += ",\"p90\":" + std::to_string(h.quantile(0.90));
    out += ",\"p99\":" + std::to_string(h.quantile(0.99));
    out += ",\"max\":" + std::to_string(h.max()) + "}";
  }
  out += "},\"span_list\":[";
  for (std::uint32_t id = 1; id < spans_.size(); ++id) {
    const SpanInfo& s = spans_[id];
    if (id != 1) out += ",";
    out += "\n{\"id\":" + std::to_string(s.id);
    out += ",\"trace\":" + std::to_string(s.trace);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"tid\":" + std::to_string(s.tid);
    out += ",\"name\":\"" + json_escape(support::symbol_text(s.name)) + "\"";
    out += ",\"start\":" + std::to_string(s.start);
    out += ",\"end\":" + std::to_string(s.closed ? s.end : s.start);
    out += ",\"closed\":" + std::string(s.closed ? "true" : "false");
    if (s.detail != 0) out += ",\"detail\":" + std::to_string(s.detail);
    if (s.cls != TxnClass::Other)
      out += std::string(",\"class\":\"") + to_string(s.cls) + "\"";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace rg::obs
