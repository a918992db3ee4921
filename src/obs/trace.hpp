// Span tracing for the verification pipeline — chrome://tracing exporter.
//
// The staged pipeline (Geometry -> Parse/Link -> Sweep, radius/batch.hpp)
// runs stage 2 and then the sweep for each labeling, fanning both out over
// per-slot worker threads.  Wall-clock totals cannot show where a run's time
// goes between the stages, or whether one sweep slot straggles while the
// rest idle; a span trace can.  TraceRecorder is the process-wide span
// sink:
//
//   * Zero overhead when disabled.  `enabled()` is one relaxed atomic load;
//     a TraceSpan constructed while disabled reads no clock and records
//     nothing.  Defining PROOFLAB_NO_TRACE compiles the PLS_TRACE_SPAN
//     macro away entirely (the compile-time no-op build the CI overhead
//     gate protects; the default build keeps the spans and gates the
//     runtime-disabled cost instead).
//   * Lock-free recording.  Each thread appends to its own fixed-capacity
//     ring buffer (registered once per thread under a mutex, then never
//     shared for writing).  A full ring overwrites its oldest events and
//     counts the overwritten ones (`dropped`), so tracing never allocates
//     or blocks on the hot path.
//   * Merged export.  export_chrome_trace() merges every thread's ring into
//     one chrome://tracing "traceEvents" JSON document (complete "X" events
//     with microsecond timestamps), ordered by start time.  Load it via
//     chrome://tracing or https://ui.perfetto.dev.
//
// Span names must be string literals (the event stores the pointer); the
// optional arg is a small integer rendered into the event's args (the batch
// verifier stamps a full run's node count, the sweep its slot).
//
// Enable/disable are meant to bracket a workload from a quiesced state
// (nothing mid-span); spans started in one enabled window and finished in
// another are recorded with whatever timestamps they saw.  Ring storage is
// never freed while the process lives, so a worker thread outliving a
// disable() cannot write into freed memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pls::obs {

class TraceRecorder {
 public:
  /// One recorded span.  `name` points at a string literal.
  struct Event {
    const char* name;
    std::uint64_t start_ns;  ///< since the matching enable() call
    std::uint64_t dur_ns;
    std::uint64_t arg;       ///< kNoArg when the span carried none
    std::uint32_t tid;       ///< dense per-thread id (registration order)
  };
  static constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

  /// Starts recording.  `ring_capacity` bounds the events retained per
  /// thread (oldest overwritten beyond it); rings registered before this
  /// call keep their original capacity, so pick the capacity once up front.
  /// Clears previously recorded events.
  static void enable(std::size_t ring_capacity = 1u << 15);

  /// Stops recording (already-recorded events are kept for export).
  static void disable();

  static bool enabled() noexcept;

  /// Records a finished span; called by TraceSpan, not user code.
  static void record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t arg);

  /// Monotonic nanoseconds since the last enable().
  static std::uint64_t now_ns() noexcept;

  /// Events overwritten because some ring was full (0 = export is complete).
  static std::uint64_t dropped();

  /// Merged per-thread rings as one chrome://tracing JSON document.
  static void export_chrome_trace(std::ostream& out);

  /// Merged events sorted by start time (the test-facing export).
  static std::vector<Event> events();
};

/// RAII span: times its scope into the recorder.  When the recorder is
/// disabled at construction, the destructor does nothing (and no clock is
/// read).
class TraceSpan {
 public:
  // Span enter/exit are per-event leaves (PLS_HOT): prooflab-lint R1 keeps
  // them allocation- and lock-free, the compile-time half of the "~1 ns
  // disabled, never perturbs verdicts" contract the CI gate measures.
  PLS_HOT explicit TraceSpan(const char* name,
                             std::uint64_t arg = TraceRecorder::kNoArg) {
    if (TraceRecorder::enabled()) {
      name_ = name;
      arg_ = arg;
      start_ns_ = TraceRecorder::now_ns();
    }
  }
  PLS_HOT ~TraceSpan() {
    if (name_ != nullptr)
      TraceRecorder::record(name_, start_ns_, TraceRecorder::now_ns(), arg_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

}  // namespace pls::obs

// Compile-time switch: -DPROOFLAB_NO_TRACE removes every span from the
// binary (PROOFLAB_TRACE=OFF in CMake).  The default build keeps them,
// runtime-gated by TraceRecorder::enable().
#if defined(PROOFLAB_NO_TRACE)
#define PLS_TRACE_SPAN(...) \
  do {                      \
  } while (false)
#else
#define PLS_TRACE_CONCAT_IMPL(a, b) a##b
#define PLS_TRACE_CONCAT(a, b) PLS_TRACE_CONCAT_IMPL(a, b)
#define PLS_TRACE_SPAN(...) \
  ::pls::obs::TraceSpan PLS_TRACE_CONCAT(pls_trace_span_, __LINE__)(__VA_ARGS__)
#endif
