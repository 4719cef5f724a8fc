#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. Times are nanoseconds since the tracer started.
struct SpanRecord {
  std::string layer;  ///< The program module the call went into.
  std::string name;   ///< The public function (or bench step) called.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span.
  uint32_t thread = 0;
  /// Async spans (one open-loop request, sent on one thread and answered
  /// on another) are written to the trace but never nest and are left
  /// out of self time.
  bool async = false;
};

/// In-memory span recorder for the traced run. Spans are taken around
/// the benchmark's own calls into the program's layers (the program is
/// not instrumented); every span of one run carries the same run id.
/// Disabled tracers cost one branch per span and record nothing.
class Tracer {
 public:
  Tracer(bool enabled, uint64_t run_id);

  bool enabled() const { return enabled_; }
  uint64_t run_id() const { return run_id_; }
  int64_t NowNs() const;

  /// Scoped synchronous span; nests under the innermost open span of the
  /// calling thread.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* layer_;
    const char* name_;
    int64_t start_ns_ = 0;
    int64_t id_ = -1;
    int64_t parent_ = -1;
  };

  /// Records an already-timed async span (start/end from NowNs()). Only
  /// the first kAsyncLimit are kept, so a long open-loop run cannot grow
  /// the trace without bound.
  void AddAsync(const char* layer, const char* name, int64_t start_ns,
                int64_t end_ns);

  std::vector<SpanRecord> spans() const;

  /// Per layer: summed duration minus the time its child spans cover.
  /// Async spans are excluded.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path, std::string* error) const;

 private:
  void Finish(SpanRecord record);

  bool enabled_;
  uint64_t run_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int64_t next_id_ = 0;
  static constexpr size_t kAsyncLimit = 200000;
  size_t async_kept_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
