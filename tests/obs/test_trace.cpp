// TraceRecorder: span nesting, the disabled path recording nothing, the
// chrome-trace export shape — and the pipeline's overlap window: a 2-labeling
// batch must show labeling 1's parse span nested inside labeling 0's sweep
// window on the calling thread.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "radius/batch.hpp"
#include "radius/spread.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::obs {
namespace {

TEST(TraceRecorder, DisabledSpansRecordNothing) {
  TraceRecorder::disable();
  { PLS_TRACE_SPAN("should.not.appear", 1); }
  TraceRecorder::enable();
  TraceRecorder::disable();
  EXPECT_TRUE(TraceRecorder::events().empty());  // enable() cleared history
}

#if defined(PROOFLAB_NO_TRACE)

// The zero-overhead build: every span compiles to an empty statement, so
// even an *enabled* recorder sees nothing, and the export is still a
// well-formed (empty) trace.  The recording tests below only exist in the
// compiled-in configuration.
TEST(TraceRecorder, CompiledOutSpansRecordNothingEvenWhenEnabled) {
  TraceRecorder::enable();
  {
    PLS_TRACE_SPAN("outer", 0);
    PLS_TRACE_SPAN("inner", 1);
  }
  TraceRecorder::disable();
  EXPECT_TRUE(TraceRecorder::events().empty());
  std::ostringstream out;
  TraceRecorder::export_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

#else  // tracing compiled in

using Event = TraceRecorder::Event;

/// Spans are half-open [start, start+dur); containment is the structural
/// claim "inner ran inside outer".
bool contains(const Event& outer, const Event& inner) {
  return outer.tid == inner.tid && inner.start_ns >= outer.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

const Event* find_event(const std::vector<Event>& events, std::string name,
                        std::uint64_t arg) {
  for (const Event& e : events)
    if (name == e.name && e.arg == arg) return &e;
  return nullptr;
}

TEST(TraceRecorder, NestedSpansAreContainedAndOrdered) {
  TraceRecorder::enable();
  {
    PLS_TRACE_SPAN("outer", 0);
    {
      PLS_TRACE_SPAN("inner", 1);
    }
    {
      PLS_TRACE_SPAN("inner", 2);
    }
  }
  TraceRecorder::disable();
  const std::vector<Event> events = TraceRecorder::events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(TraceRecorder::dropped(), 0u);

  const Event* outer = find_event(events, "outer", 0);
  const Event* first = find_event(events, "inner", 1);
  const Event* second = find_event(events, "inner", 2);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(contains(*outer, *first));
  EXPECT_TRUE(contains(*outer, *second));
  EXPECT_LE(first->start_ns + first->dur_ns, second->start_ns);
  // events() is sorted by start time; the outer span started first.
  EXPECT_EQ(std::string(events.front().name), "outer");
}

TEST(TraceRecorder, ChromeTraceExportIsWellFormedJson) {
  TraceRecorder::enable();
  {
    PLS_TRACE_SPAN("alpha", 7);
    PLS_TRACE_SPAN("beta");  // no arg
  }
  TraceRecorder::disable();
  std::ostringstream out;
  TraceRecorder::export_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Balanced object/array delimiters (the writer PLS_REQUIREs this too).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceRecorder, BatchTraceShowsParseSweepOverlapWindow) {
  // Two labelings through the pipelined batch: while labeling 0's sweep is
  // posted (the "sweep.window" span on the calling thread), the calling
  // thread parses labeling 1 ("parse.link" arg 1).  The trace must show that
  // overlap structurally: parse(1) nested inside window(0), same tid.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const radius::SpreadScheme scheme(base, 2);
  auto g = testing::share(graph::grid(6, 6));
  const local::Configuration cfg = language.make_tree(g, 0);
  const core::Labeling lab = scheme.mark(cfg);
  const std::vector<core::Labeling> labelings{lab, lab};

  radius::BatchOptions options;
  options.threads = 2;
  radius::BatchVerifier verifier(scheme, cfg, 2, options);

  TraceRecorder::enable();
  const std::vector<core::Verdict> verdicts =
      verifier.run(std::span<const core::Labeling>(labelings));
  TraceRecorder::disable();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].all_accept());
  EXPECT_TRUE(verdicts[1].all_accept());

  const std::vector<Event> events = TraceRecorder::events();
  const Event* window0 = find_event(events, "sweep.window", 0);
  const Event* parse1 = find_event(events, "parse.link", 1);
  ASSERT_NE(window0, nullptr);
  ASSERT_NE(parse1, nullptr);
  EXPECT_TRUE(contains(*window0, *parse1))
      << "labeling 1's parse must run inside labeling 0's sweep window";
  // The fan-out is visible too: one verify-body span per claimed chunk
  // (36 centers over 2 slots: default chunk = 1) of both sweeps.  Which
  // slot claimed each is timing-dependent — a fast claimant may drain every
  // chunk before its peer wakes — so the spans are counted, not located.
  std::size_t slot_spans = 0;
  for (const Event& e : events)
    if (std::string("sweep.slot") == e.name) ++slot_spans;
  EXPECT_EQ(slot_spans, 2 * cfg.n());
}

TEST(TraceRecorder, StealingSweepShowsClaimedChunkSpans) {
  // Every claimed chunk is a "pool.chunk" span and a sweep chunk's verify
  // body opens "sweep.slot".  Which slot claims how many chunks is
  // timing-dependent, so the assertions count spans, not per-slot coverage.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const radius::SpreadScheme scheme(base, 2);
  auto g = testing::share(graph::grid(6, 6));
  const local::Configuration cfg = language.make_tree(g, 0);
  const core::Labeling lab = scheme.mark(cfg);

  radius::BatchOptions options;
  options.threads = 2;
  radius::BatchVerifier verifier(scheme, cfg, 2, options);

  TraceRecorder::enable();
  const core::Verdict verdict = verifier.run_one(lab);
  TraceRecorder::disable();
  EXPECT_TRUE(verdict.all_accept());

  std::size_t chunk_spans = 0;
  std::size_t slot_spans = 0;
  for (const Event& e : TraceRecorder::events()) {
    if (std::string("pool.chunk") == e.name) ++chunk_spans;
    if (std::string("sweep.slot") == e.name) ++slot_spans;
  }
  // 36 centers, 2 slots, default chunk = max(1, 36/32) = 1: one claimed
  // chunk per node for the first labeling's parallel parse, then one claimed
  // chunk (and one verify-body span) per center for the sweep, however
  // they land.
  EXPECT_EQ(chunk_spans, 2 * cfg.n());
  EXPECT_EQ(slot_spans, cfg.n());
}

#endif  // PROOFLAB_NO_TRACE

}  // namespace
}  // namespace pls::obs
