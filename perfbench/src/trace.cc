#include "trace.h"

#include <atomic>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<uint32_t> g_next_thread{1};

uint32_t ThreadNumber() {
  thread_local const uint32_t number = g_next_thread.fetch_add(1);
  return number;
}

/// Open synchronous spans of the calling thread, innermost last.
std::vector<int64_t>& OpenSpans() {
  thread_local std::vector<int64_t> stack;
  return stack;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled, uint64_t run_id)
    : enabled_(enabled),
      run_id_(run_id),
      origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      layer_(layer),
      name_(name) {
  if (tracer_ == nullptr) return;
  std::vector<int64_t>& open = OpenSpans();
  parent_ = open.empty() ? -1 : open.back();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  open.push_back(id_);
  start_ns_ = tracer_->NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord record;
  record.end_ns = tracer_->NowNs();
  record.start_ns = start_ns_;
  record.layer = layer_;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.thread = ThreadNumber();
  OpenSpans().pop_back();
  tracer_->Finish(std::move(record));
}

void Tracer::AddAsync(const char* layer, const char* name, int64_t start_ns,
                      int64_t end_ns) {
  if (!enabled_) return;
  const std::vector<int64_t>& open = OpenSpans();
  SpanRecord record;
  record.layer = layer;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.parent = open.empty() ? -1 : open.back();
  record.thread = ThreadNumber();
  record.async = true;
  std::lock_guard<std::mutex> lock(mu_);
  if (async_kept_ >= kAsyncLimit) return;
  ++async_kept_;
  record.id = next_id_++;
  spans_.push_back(std::move(record));
}

void Tracer::Finish(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const SpanRecord& span : all) {
    if (!span.async && span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : all) {
    if (span.async) continue;
    const auto it = child_ns.find(span.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - children) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& span : spans()) {
    if (!first) out << ",\n";
    first = false;
    const double ts_us = static_cast<double>(span.start_ns) * 1e-3;
    const double dur_us =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    out << "{\"name\": \"" << JsonEscape(span.name) << "\", \"cat\": \""
        << JsonEscape(span.layer) << "\", ";
    if (span.async) {
      // Async spans overlap freely: emit them as begin/end pairs keyed by
      // id so the viewer draws them on their own tracks.
      out << "\"ph\": \"b\", \"id\": " << span.id << ", \"ts\": " << ts_us
          << ", \"pid\": 1, \"tid\": " << span.thread
          << ", \"args\": {\"run_id\": " << run_id_
          << ", \"parent\": " << span.parent << "}},\n"
          << "{\"name\": \"" << JsonEscape(span.name) << "\", \"cat\": \""
          << JsonEscape(span.layer) << "\", \"ph\": \"e\", \"id\": "
          << span.id << ", \"ts\": " << ts_us + dur_us
          << ", \"pid\": 1, \"tid\": " << span.thread << "}";
    } else {
      out << "\"ph\": \"X\", \"ts\": " << ts_us << ", \"dur\": " << dur_us
          << ", \"pid\": 1, \"tid\": " << span.thread
          << ", \"args\": {\"run_id\": " << run_id_
          << ", \"span\": " << span.id << ", \"parent\": " << span.parent
          << "}}";
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
