// TraceRecorder: span nesting, the disabled path recording nothing, the
// chrome-trace export shape — and a full run's stage structure: on the
// calling thread, the "parse.link" span ends before the "sweep.window" span
// opens, and every claimed chunk (one atlas block per sweep chunk) shows up
// as a span.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
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

TEST(TraceRecorder, FullRunTraceShowsParseThenSweepWindow) {
  // One run_one: stage 2 ("parse.link") and the blocking sweep
  // ("sweep.window") are both spans on the calling thread, disjoint and in
  // that order.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const radius::FragmentSpreadScheme scheme(base, 2);
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

  // Both spans carry the labeling's node count.
  const std::vector<Event> events = TraceRecorder::events();
  const Event* parse = find_event(events, "parse.link", cfg.n());
  const Event* window = find_event(events, "sweep.window", cfg.n());
  ASSERT_NE(parse, nullptr);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(parse->tid, window->tid);
  EXPECT_LE(parse->start_ns + parse->dur_ns, window->start_ns)
      << "stage 2 must end before the sweep window opens";
}

TEST(TraceRecorder, StealingSweepShowsClaimedChunkSpans) {
  // Every claimed chunk is a "pool.chunk" span and a sweep chunk's verify
  // body opens "sweep.slot".  Which slot claims how many chunks is
  // timing-dependent, so the assertions count spans, not per-slot coverage.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const radius::FragmentSpreadScheme scheme(base, 2);
  auto g = testing::share(graph::grid(6, 6));
  const local::Configuration cfg = language.make_tree(g, 0);
  const core::Labeling lab = scheme.mark(cfg);

  // A full sweep claims one atlas block per chunk; 4-center blocks leave
  // the 2 slots many sweep chunks to share.
  constexpr std::uint32_t kBlock = 4;
  radius::BatchOptions options;
  options.threads = 2;
  options.atlas = std::make_shared<radius::GeometryAtlas>(
      radius::AtlasOptions{.block_centers = kBlock});
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
  // 36 centers, 2 slots.  The parallel parse keeps the pool's default
  // chunk = max(1, 36/32) = 1: one claimed chunk per node.  The sweep
  // claims one chunk (and opens one verify-body span) per 4-center block,
  // however they land.
  const std::size_t sweep_chunks = (cfg.n() + kBlock - 1) / kBlock;
  EXPECT_EQ(chunk_spans, cfg.n() + sweep_chunks);
  EXPECT_EQ(slot_spans, sweep_chunks);
}

#endif  // PROOFLAB_NO_TRACE

}  // namespace
}  // namespace pls::obs
