// ThreadPool: exact range coverage under chunked work stealing, steal
// accounting, in-order sequential fallback, exception propagation,
// cooperative cancellation, reuse across jobs.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace pls::util {
namespace {

// Coverage must stay exactly-once at every thread count and chunk size even
// though assignment is first-come; the sequential fallback must remain a
// plain in-order loop; stats must account every chunk.
TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{5000}}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(1000);
      pool.for_range(
          hits.size(),
          [&](unsigned worker, std::size_t begin, std::size_t end) {
            EXPECT_LT(worker, threads);
            EXPECT_LT(begin, end);
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          },
          {.chunk = chunk});
      for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, RangeSmallerThanThreadCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.for_range(hits.size(),
                 [&](unsigned, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i)
                     hits[i].fetch_add(1);
                 });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.last_range_stats().chunks, 3u);  // default chunk clamps to 1
}

TEST(ThreadPool, EmptyRangeInvokesNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_range(0, [&](unsigned, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(pool.last_range_stats().chunks, 0u);
  EXPECT_EQ(pool.last_range_stats().worker_busy_ns.size(), 4u);
}

TEST(ThreadPool, ChunkOptionBoundsEveryCall) {
  ThreadPool pool(3);
  constexpr std::size_t kChunk = 16;
  std::atomic<int> calls{0};
  pool.for_range(
      100,
      [&](unsigned, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin % kChunk, 0u);
        EXPECT_LE(end - begin, kChunk);
        ++calls;
      },
      {.chunk = kChunk});
  EXPECT_EQ(calls.load(), 7);  // ceil(100 / 16)
  EXPECT_EQ(pool.last_range_stats().chunks, 7u);
  EXPECT_EQ(pool.last_range_stats().worker_busy_ns.size(), 3u);
}

TEST(ThreadPool, SequentialFallbackRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::size_t expect_begin = 0;
  pool.for_range(
      57,
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(begin, expect_begin);  // chunks drain in index order
        EXPECT_EQ(std::this_thread::get_id(), caller);
        expect_begin = end;
      },
      {.chunk = 10});
  EXPECT_EQ(expect_begin, 57u);
  EXPECT_EQ(pool.last_range_stats().chunks, 6u);
  EXPECT_EQ(pool.last_range_stats().steals, 0u);  // one claimant never steals
}

TEST(ThreadPool, StealingRebalancesAroundAStraggler) {
  // Chunk 0 refuses to finish until every other chunk has run, so whichever
  // claimant drew it is pinned and its peer must drain the rest — at least
  // three of those chunks belong to the pinned slot's home share, so the
  // steal counter must see them.
  ThreadPool pool(2);
  std::atomic<int> others_done{0};
  std::vector<std::atomic<int>> hits(8);
  pool.for_range(
      hits.size(),
      [&](unsigned, std::size_t begin, std::size_t) {
        if (begin == 0) {
          while (others_done.load() < 7) std::this_thread::yield();
        } else {
          others_done.fetch_add(1);
        }
        hits[begin].fetch_add(1);
      },
      {.chunk = 1});
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.last_range_stats().chunks, 8u);
  EXPECT_GE(pool.last_range_stats().steals, 3u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  // The throwing chunk is a stolen one (not index 0) or the first one; the
  // thrower stops claiming, the range still drains, and the pool stays
  // reusable afterwards.
  for (const std::size_t bad : {std::size_t{0}, std::size_t{35}}) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.for_range(
                     100,
                     [&](unsigned, std::size_t begin, std::size_t) {
                       if (begin == bad) throw std::runtime_error("chunk");
                     },
                     {.chunk = 5}),
                 std::runtime_error);
    std::atomic<int> total{0};
    pool.for_range(100, [&](unsigned, std::size_t begin, std::size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(total.load(), 100);
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int job = 0; job < 200; ++job)
    pool.for_range(64, [&](unsigned, std::size_t begin, std::size_t end) {
      long local = 0;
      for (std::size_t i = begin; i < end; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  EXPECT_EQ(sum.load(), 200L * (63 * 64 / 2));
}

// post_range/finish_range: the pipelining split of for_range.  Workers may
// claim chunks during the overlap window; the calling thread joins the claim
// loop inside finish_range; coverage is identical to for_range's.
TEST(ThreadPool, PostFinishCoversRangeExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(500);
    std::atomic<int> overlap_work{0};
    pool.post_range(hits.size(), [&](unsigned worker, std::size_t begin,
                                     std::size_t end) {
      EXPECT_LT(worker, threads);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    // The overlap window: the caller is free here while workers run.
    overlap_work.store(42);
    pool.finish_range();
    EXPECT_EQ(overlap_work.load(), 42);
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_GE(pool.last_range_stats().chunks, 1u);
    EXPECT_EQ(pool.last_range_stats().worker_busy_ns.size(), threads);
  }
}

TEST(ThreadPool, PostFinishSequentialDefersWholeRangeToFinish) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::size_t expect_begin = 0;
  bool before_finish = true;
  pool.post_range(
      31,
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        EXPECT_FALSE(before_finish);  // nothing may run before finish_range
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(begin, expect_begin);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        expect_begin = end;
      },
      {.chunk = 8});
  EXPECT_EQ(expect_begin, 0u);
  before_finish = false;
  pool.finish_range();
  EXPECT_EQ(expect_begin, 31u);
  EXPECT_EQ(pool.last_range_stats().chunks, 4u);
}

TEST(ThreadPool, PostFinishEmptyRangeAndReuse) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.post_range(0, [&](unsigned, std::size_t, std::size_t) { ++calls; });
  pool.finish_range();
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(pool.last_range_stats().chunks, 0u);
  // Alternate post/finish with plain for_range on the same pool.
  std::atomic<int> total{0};
  pool.post_range(64, [&](unsigned, std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  pool.finish_range();
  pool.for_range(36, [&](unsigned, std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, PostFinishExceptionPropagatesAtFinish) {
  ThreadPool pool(2);
  pool.post_range(10, [&](unsigned, std::size_t begin, std::size_t) {
    if (begin == 0) throw std::runtime_error("chunk 0");
  });
  EXPECT_THROW(pool.finish_range(), std::runtime_error);
  std::atomic<int> total{0};
  pool.for_range(10, [&](unsigned, std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, DoublePostOrUnpairedUseIsInvalid) {
  ThreadPool pool(2);
  pool.post_range(4, [](unsigned, std::size_t, std::size_t) {});
  EXPECT_THROW(pool.post_range(4, [](unsigned, std::size_t, std::size_t) {}),
               std::logic_error);
  EXPECT_THROW(
      pool.for_range(4, [](unsigned, std::size_t, std::size_t) {}),
      std::logic_error);
  pool.finish_range();
  EXPECT_THROW(pool.finish_range(), std::logic_error);
}

TEST(ThreadPool, StealsAreCountedAgainstContiguousHomeShares) {
  // A chunk's home is the slot whose contiguous share of the chunk indices
  // [chunks * w / threads, chunks * (w + 1) / threads) contains it; every
  // chunk executed elsewhere is exactly one steal, whatever the (racy)
  // assignment turned out to be.
  for (const unsigned threads : {1u, 2u, 3u, 5u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t chunks = 1; chunks <= 40; ++chunks) {
      std::vector<unsigned> ran_on(chunks);
      pool.for_range(
          chunks,
          [&](unsigned worker, std::size_t begin, std::size_t) {
            ran_on[begin] = worker;
          },
          {.chunk = 1});
      std::uint64_t expected_steals = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        unsigned home = 0;
        while (c >= chunks * (home + 1) / threads) ++home;
        ASSERT_LT(home, threads);
        if (ran_on[c] != home) ++expected_steals;
      }
      EXPECT_EQ(pool.last_range_stats().steals, expected_steals)
          << "threads " << threads << " chunks " << chunks;
    }
  }
}

// Cooperative cancellation (RangeOptions::cancel): the token is polled
// before every chunk claim; a claimed chunk always runs to completion.  The
// job throws CancelledError iff the range was left uncovered and no chunk
// threw a real exception — a real error always wins over a racing cancel.
TEST(ThreadPool, CancelStopsAtTheNextChunkBoundary) {
  ThreadPool pool(1);  // deterministic: chunks drain in index order
  CancelToken token;
  std::size_t calls = 0;
  EXPECT_THROW(
      pool.for_range(
          100,
          [&](unsigned, std::size_t, std::size_t) {
            if (++calls == 3) token.cancel();
          },
          {.chunk = 10, .cancel = &token}),
      CancelledError);
  // The cancelling chunk finishes; the NEXT claim is refused.
  EXPECT_EQ(calls, 3u);
  EXPECT_TRUE(pool.last_range_stats().cancelled);
  EXPECT_EQ(pool.last_range_stats().chunks, 3u);
  // A cancelled pool is fully reusable.
  std::atomic<int> total{0};
  pool.for_range(100,
                          [&](unsigned, std::size_t begin, std::size_t end) {
                            total.fetch_add(static_cast<int>(end - begin));
                          });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, CancelAfterTheLastChunkIsANoOp) {
  // The token trips inside the FINAL chunk: the range is fully covered, so
  // the job completes normally — late cancellation never invents a failure.
  ThreadPool pool(1);
  CancelToken token;
  std::size_t calls = 0;
  pool.for_range(
      30,
      [&](unsigned, std::size_t, std::size_t) {
        if (++calls == 3) token.cancel();
      },
      {.chunk = 10, .cancel = &token});
  EXPECT_EQ(calls, 3u);
  EXPECT_FALSE(pool.last_range_stats().cancelled);
}

TEST(ThreadPool, RealExceptionWinsOverRacingCancellation) {
  // Interleave cancel+throw inside the SAME chunk at every boundary k: the
  // caller must always learn what actually broke, never CancelledError.
  for (std::size_t k = 0; k < 5; ++k) {
    ThreadPool pool(1);
    CancelToken token;
    std::size_t calls = 0;
    try {
      pool.for_range(
          50,
          [&](unsigned, std::size_t, std::size_t) {
            if (++calls == k + 1) {
              token.cancel();
              throw std::runtime_error("real failure");
            }
          },
          {.chunk = 10, .cancel = &token});
      FAIL() << "must throw (k = " << k << ")";
    } catch (const CancelledError&) {
      FAIL() << "cancellation masked the real error at chunk " << k;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "real failure");
    }
    EXPECT_FALSE(pool.last_range_stats().cancelled);
    EXPECT_EQ(calls, k + 1);
  }
}

TEST(ThreadPool, CancelMultiThreadedIsConsistent) {
  // With workers racing the cancel, either outcome is legal — the range
  // drained before the token was seen, or it was abandoned — but the stats,
  // the exception, and the executed count must agree.
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<int> calls{0};
  bool cancelled_seen = false;
  try {
    pool.for_range(
        1000,
        [&](unsigned, std::size_t, std::size_t) {
          if (calls.fetch_add(1) == 0) token.cancel();
        },
        {.chunk = 1, .cancel = &token});
  } catch (const CancelledError&) {
    cancelled_seen = true;
  }
  EXPECT_EQ(cancelled_seen, pool.last_range_stats().cancelled);
  if (cancelled_seen) {
    EXPECT_LT(calls.load(), 1000);
  }
  EXPECT_EQ(pool.last_range_stats().chunks,
            static_cast<std::uint64_t>(calls.load()));
  std::atomic<int> total{0};
  pool.for_range(64,
                          [&](unsigned, std::size_t begin, std::size_t end) {
                            total.fetch_add(static_cast<int>(end - begin));
                          });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PostFinishCancelSurfacesAtFinish) {
  ThreadPool pool(1);
  CancelToken token;
  token.cancel();  // pre-cancelled: no chunk may run at all
  std::size_t calls = 0;
  pool.post_range(
      50, [&](unsigned, std::size_t, std::size_t) { ++calls; },
      {.chunk = 10, .cancel = &token});
  EXPECT_THROW(pool.finish_range(), CancelledError);
  EXPECT_EQ(calls, 0u);
  EXPECT_TRUE(pool.last_range_stats().cancelled);
  EXPECT_EQ(pool.last_range_stats().chunks, 0u);
  std::atomic<int> total{0};
  pool.for_range(10, [&](unsigned, std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, DeadlineTokenCancelsThroughThePool) {
  // An already-expired deadline behaves exactly like a tripped flag: the
  // first claim is refused.
  ThreadPool pool(1);
  CancelToken token;
  token.reset(1);  // long past
  std::size_t calls = 0;
  EXPECT_THROW(
      pool.for_range(
          40, [&](unsigned, std::size_t, std::size_t) { ++calls; },
          {.chunk = 10, .cancel = &token}),
      CancelledError);
  EXPECT_EQ(calls, 0u);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, ZeroThreadsIsInvalidInput) {
  EXPECT_THROW(ThreadPool pool(0), std::logic_error);
}

}  // namespace
}  // namespace pls::util
