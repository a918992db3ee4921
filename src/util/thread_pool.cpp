#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace pls::util {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads), worker_stats_(threads) {
  PLS_REQUIRE(threads >= 1);
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::Job ThreadPool::make_job(const RangeFn* fn, std::size_t n,
                                     RangeOptions options) const noexcept {
  // Default chunk: ~16 chunks per slot — fine enough that one fat region
  // rebalances across the pool, coarse enough that the shared-cursor
  // fetch_add stays noise.
  const std::size_t chunk =
      options.chunk != 0
          ? options.chunk
          : std::max<std::size_t>(1, n / (std::size_t{threads_} * 16));
  return Job{fn, n, chunk, (n + chunk - 1) / chunk, options.cancel};
}

std::exception_ptr ThreadPool::run_chunks(unsigned worker, const Job& job,
                                          WorkerTotals& totals) noexcept {
  std::exception_ptr error;
  const std::uint64_t start = now_ns();
  while (true) {
    // Cooperative cancellation boundary: checked before every claim, so a
    // chunk already in flight completes (its per-index writes are whole)
    // but no further work is taken once the token trips.
    if (job.cancel != nullptr && job.cancel->cancelled()) break;
    // Relaxed: uniqueness of the claimed index is the only requirement; the
    // chunk's data dependencies are ordered by the job hand-off mutex.
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunk_count) break;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      // Span per executed chunk: a straggler's load shows as its chunks
      // migrating to peer slots instead of one long stuck slice.
      PLS_TRACE_SPAN("pool.chunk", worker);
      // Chaos site: a stalled chunk (Action::kDelay) must only move work to
      // peer slots and stretch deadlines — never change a verdict bit.
      PLS_FAILPOINT("pool.chunk");
      (*job.fn)(worker, begin, end);
    } catch (...) {
      error = std::current_exception();
      break;  // stop claiming; peers drain the rest
    }
    ++totals.chunks;
    if (chunk_home(c, job.chunk_count, threads_) != worker) ++totals.steals;
  }
  totals.busy_ns += now_ns() - start;
  return error;
}

void ThreadPool::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  while (true) {
    Job job;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (not the predicate-lambda overload): the guarded
      // reads stay in a scope the thread-safety analysis can tie to `lock`.
      while (!stopping_ && generation_ == seen) start_cv_.wait(lock);
      if (stopping_) return;
      seen = generation_;
      job = job_;
    }
    WorkerTotals totals;
    std::exception_ptr error = run_chunks(worker, job, totals);
    {
      MutexLock lock(mu_);
      if (error && !first_error_) first_error_ = std::move(error);
      worker_stats_[worker] = totals;
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::for_range(std::size_t n, const RangeFn& fn,
                           RangeOptions options) {
  const bool overlapping = in_job_.exchange(true, std::memory_order_seq_cst);
  PLS_REQUIRE(!overlapping);
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false, std::memory_order_seq_cst); }
  } release{in_job_};
  const Job job = make_job(&fn, n, options);
  start(job);
  join(job);
}

void ThreadPool::start(const Job& job) {
  if (job.n == 0) return;
  // Reset the cursor before publishing the job: the generation_ bump under
  // mu_ is the release edge workers synchronize with, so no worker can read
  // the new job without also observing the reset cursor.
  next_chunk_.store(0, std::memory_order_relaxed);
  if (threads_ == 1) return;  // the caller drains everything in join()
  {
    MutexLock lock(mu_);
    job_ = job;
    std::fill(worker_stats_.begin(), worker_stats_.end(), WorkerTotals{});
    remaining_ = threads_ - 1;
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
}

void ThreadPool::join(const Job& job) {
  // Field-wise reset keeps worker_busy_ns's capacity: no allocation per job.
  last_stats_.chunks = 0;
  last_stats_.steals = 0;
  last_stats_.cancelled = false;
  last_stats_.worker_busy_ns.assign(threads_, 0);
  if (job.n == 0) return;
  // The caller is claimant 0: it joins the chunk race instead of owning a
  // fixed share, so a skewed prefix cannot pin the calling thread either.
  WorkerTotals own;
  std::exception_ptr error = run_chunks(0, job, own);
  {
    MutexLock lock(mu_);
    while (remaining_ != 0) done_cv_.wait(lock);
    worker_stats_[0] = own;
    // With one slot no worker ran, so only slot 0's totals are this job's.
    for (unsigned w = 0; w < threads_; ++w) {
      last_stats_.chunks += worker_stats_[w].chunks;
      last_stats_.steals += worker_stats_[w].steals;
      last_stats_.worker_busy_ns[w] = worker_stats_[w].busy_ns;
    }
    if (!error) error = std::move(first_error_);
    first_error_ = nullptr;
    job_ = Job{};
  }
  // The range was cancelled iff chunks were left unexecuted and nothing
  // threw.  A real exception always wins over cancellation — even when a
  // cancel raced the same job — so callers see what actually broke.  If
  // every chunk executed before the claimants observed the token, the range
  // is complete and cancellation is a no-op.
  last_stats_.cancelled = !error && last_stats_.chunks != job.chunk_count;
  if (error) std::rethrow_exception(error);
  if (last_stats_.cancelled) throw CancelledError();
}

}  // namespace pls::util
