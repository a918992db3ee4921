// Fixed-size worker pool for embarrassingly-parallel sweeps.
//
// The radius-t engine evaluates one independent verdict per node, so the only
// parallel primitive the codebase needs is a blocking parallel-for over a
// dense index range.  ThreadPool provides exactly that: [0, n) is cut into
// fixed-size chunks claimed from a shared atomic cursor (chunked claiming —
// the degenerate all-stealing deque).  Assignment is first-come, so a worker
// that drew light chunks immediately takes load off a straggler; per-worker
// scratch stays valid because `worker` names the executing slot, and callers
// whose writes are per-index disjoint (the sweep) get bit-identical results
// at every thread count even though the assignment is nondeterministic.  The
// calling thread is claimant 0, so a 1-thread pool spawns no threads at all
// and drains the chunks in index order — the same traversal as a plain loop.
// Per-job steal/chunk counts and per-worker busy time come back through
// last_range_stats().
//
// Exceptions thrown by `fn` are captured (first one wins) and rethrown on
// the calling thread after every claimant has stopped, so the pool is never
// left with a wedged worker.  A worker stops claiming after its first
// exception; the remaining chunks drain to its peers.
// Locking discipline is compiler-checked: every cross-thread member is
// GUARDED_BY(mu_) and Clang's thread-safety analysis (util/thread_annotations
// .hpp, the CI `analysis` job) rejects unlocked access paths; the one
// intentionally unguarded shared member is the chunk cursor, an explicit
// relaxed atomic (uniqueness of the claimed index is all it must provide —
// the job hand-off mutex supplies every happens-before edge).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pls::util {

/// Tuning knobs of a range job.
struct RangeOptions {
  /// Indices per claimed chunk; 0 picks a heuristic (about 16 chunks per
  /// execution slot, clamped to >= 1) — small enough to rebalance a skewed
  /// instance, large enough that the shared-cursor fetch_add is noise.
  std::size_t chunk = 0;
  /// Cooperative cancellation: polled before every chunk claim.  A claimant
  /// that observes a cancelled token stops claiming; the job completes with
  /// CancelledError iff the range was left uncovered and no chunk threw a
  /// real exception (a real exception always wins — the caller learns what
  /// actually broke, not that someone also pulled the plug).  If every chunk
  /// was already claimed and executed when the cancel landed, the range is
  /// complete and nothing is thrown.  Must outlive the job.
  const CancelToken* cancel = nullptr;
};

/// What the most recent job actually did, aggregated when it completes —
/// also when it throws: the observability feed for the sweep scheduler.
struct RangeStats {
  std::uint64_t chunks = 0;  ///< chunks executed across all workers
  std::uint64_t steals = 0;  ///< chunks run by a slot other than the chunk's
                             ///< home (its contiguous share of the chunk
                             ///< indices) — load a fixed split would have
                             ///< left on a straggler
  bool cancelled = false;    ///< range abandoned with chunks unexecuted
                             ///< (RangeOptions::cancel observed in time)
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-slot claim-loop wall
                                              ///< time (size thread_count())
};

class ThreadPool {
 public:
  /// A pool with `threads` >= 1 execution slots (including the caller).
  /// `threads` == 1 spawns no worker threads.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const noexcept { return threads_; }

  /// fn(worker, begin, end): runs once per claimed chunk, with worker in
  /// [0, thread_count()) the executing slot (stable across calls — index
  /// per-worker scratch with it) and [begin, end) that chunk of [0, n).
  /// Empty ranges invoke nothing.  Blocks until the whole range is covered
  /// (or abandoned, see RangeOptions::cancel).
  using RangeFn = std::function<void(unsigned worker, std::size_t begin,
                                     std::size_t end)>;
  void for_range(std::size_t n, const RangeFn& fn, RangeOptions options = {});

  /// Asynchronous variant for software pipelining: posts the job and returns
  /// immediately — the workers start claiming right away, while the calling
  /// thread joins the claim loop only inside finish_range().  Between the
  /// two calls the caller may do unrelated work (the batch verifier parses
  /// labeling i+1 there while the workers sweep labeling i).  A 1-thread
  /// pool runs the whole range inside finish_range(), so nothing runs before
  /// it and the sequential path still spawns nothing.  At most one posted
  /// range may be outstanding; for_range(n, fn, o) ==
  /// post_range(n, fn, o) + finish_range().
  void post_range(std::size_t n, RangeFn fn, RangeOptions options = {});

  /// Completes the posted range: claims chunks here, blocks until every
  /// worker has stopped, and rethrows the first captured exception.
  void finish_range();

  /// Stats of the most recent job completed by this pool (for_range, or
  /// post_range + finish_range), assembled before any rethrow; valid until
  /// the next job starts.  Calling-thread-only, like the pool's other
  /// bookkeeping between post and finish.
  const RangeStats& last_range_stats() const noexcept { return last_stats_; }

  /// std::thread::hardware_concurrency, clamped to >= 1.
  static unsigned hardware_threads() noexcept;

 private:
  /// One range job as the claimants see it.
  struct Job {
    const RangeFn* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t chunk_count = 0;
    const CancelToken* cancel = nullptr;
  };

  /// One slot's contribution to a job, accumulated in locals during the
  /// claim loop and committed to worker_stats_ under mu_ at job end.
  struct WorkerTotals {
    std::uint64_t chunks = 0;
    std::uint64_t steals = 0;
    std::uint64_t busy_ns = 0;
  };

  /// Home slot of chunk `c` when `chunks` chunk indices are contiguously
  /// split over `threads` slots — the baseline a "steal" is counted against.
  static unsigned chunk_home(std::size_t c, std::size_t chunks,
                             unsigned threads) noexcept {
    return static_cast<unsigned>(((c + 1) * threads - 1) / chunks);
  }

  Job make_job(const RangeFn* fn, std::size_t n,
               RangeOptions options) const noexcept;
  void worker_loop(unsigned worker);
  /// Resets the cursor and hands `job` to the worker threads (no-op for an
  /// empty range or a 1-thread pool).
  void start(const Job& job) PLS_EXCLUDES(mu_);
  /// Joins the claim loop as slot 0, waits for the workers, assembles
  /// last_stats_, and rethrows the job's error or CancelledError.
  void join(const Job& job) PLS_EXCLUDES(mu_);
  /// The claim loop: grabs chunks off next_chunk_ until the range is
  /// exhausted, the job's token reads cancelled, or fn throws (the returned
  /// error stops this slot's claiming but not its peers').  Fills `totals`;
  /// never throws itself.
  std::exception_ptr run_chunks(unsigned worker, const Job& job,
                                WorkerTotals& totals) noexcept;

  const unsigned threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar start_cv_;  // signals workers: a new job is posted
  CondVar done_cv_;   // signals caller: all workers finished
  // Handed from the caller to the workers and back under mu_; per-slot
  // totals are committed back under the same lock the job-end remaining_
  // decrement already takes.
  Job job_ PLS_GUARDED_BY(mu_);
  std::uint64_t generation_ PLS_GUARDED_BY(mu_) = 0;  // bumped per job
  unsigned remaining_ PLS_GUARDED_BY(mu_) = 0;  // worker threads outstanding
  std::exception_ptr first_error_ PLS_GUARDED_BY(mu_);
  bool stopping_ PLS_GUARDED_BY(mu_) = false;
  std::vector<WorkerTotals> worker_stats_ PLS_GUARDED_BY(mu_);
  // The chunk claim cursor.  Deliberately NOT guarded: fetch_add(relaxed)
  // only has to hand every claimant a unique index — all data the chunks
  // read or write is ordered by the job hand-off mutex (publish at start,
  // collect at the remaining_ == 0 wait), never by this cursor.  Reset
  // (relaxed) before each job's publication; quiesced workers cannot observe
  // the reset early because they re-read the job only after the
  // generation_ bump behind the same mutex.
  std::atomic<std::size_t> next_chunk_{0};
  // post_range bookkeeping: touched only by the calling thread between
  // post_range and finish_range (the workers read the job through job_),
  // so these are caller-local, not guarded.
  RangeFn posted_fn_;      // owning copy for post_range jobs
  Job posted_job_;
  bool posted_ = false;    // a post_range awaits finish_range
  RangeStats last_stats_;  // assembled at the end of every job
};

}  // namespace pls::util
