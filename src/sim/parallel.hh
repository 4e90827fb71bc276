/**
 * @file
 * Host-parallel execution of independent simulation jobs.
 *
 * Every sweep driver in the repo — the fault campaigns, the
 * cross-validation harness, the fig_* evaluation tables, mssp-suite —
 * runs a set of *independent* jobs (one workload x config x seed
 * each). Simulations themselves are single-threaded and fully
 * deterministic, so the only parallelism worth having is across jobs,
 * and the only contract worth keeping is determinism: the merged
 * result of a parallel sweep must be byte-identical to the serial
 * sweep.
 *
 * Two pieces deliver that (DESIGN.md §10):
 *
 *  - ThreadPool: a small work-stealing pool. Job indices are dealt
 *    round-robin onto per-worker deques; a worker pops its own deque
 *    from the back (LIFO, cache-warm) and steals from the front of a
 *    sibling's deque when it runs dry (FIFO, oldest work first).
 *    runCollect() surfaces *every* job's exception positionally;
 *    run() keeps the historical compat contract of rethrowing only
 *    the first exception by *job index* (deterministic, but the rest
 *    are swallowed — new callers should go through runSupervised()
 *    in sim/supervisor.hh, which turns all failures into a
 *    structured quarantine report).
 *
 *  - runSharded(): executes a vector of result-returning closures on
 *    a pool and hands results to the caller (or a merge function) in
 *    canonical job order, whatever order they finished in. Jobs must
 *    not touch shared mutable state; everything they need is captured
 *    per-job, and per-run RNG seeds are preassigned from the job
 *    index (sim/rng.hh Rng::mix) so scheduling cannot leak into
 *    results.
 *
 * `jobs <= 1` bypasses the pool entirely — the closures run inline on
 * the calling thread in order, which is bit-for-bit the pre-parallel
 * code path (that is what `--jobs 1` means everywhere).
 */

#ifndef MSSP_SIM_PARALLEL_HH
#define MSSP_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/thread_annotations.hh"

namespace mssp
{

/** Host threads to use when the user gives no --jobs flag: the
 *  hardware concurrency, clamped to at least 1 (the standard allows
 *  hardware_concurrency() == 0 when unknowable). */
unsigned defaultJobs();

/**
 * Work-stealing pool of host worker threads.
 *
 * Workers are spawned once and reused across run() batches; run()
 * blocks the caller until the whole batch has drained. One batch at a
 * time: run() is not reentrant and must be called from one thread
 * (the sweep drivers are all structured that way).
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Execute every job in @p jobs and block until all complete.
     * Jobs may run in any order on any worker. If one or more jobs
     * throw, the exception of the *lowest-indexed* throwing job is
     * rethrown here after the batch drains (the rest are swallowed) —
     * deterministic regardless of scheduling. This is the compat
     * error contract; callers that need every failure use
     * runCollect() (directly or via sim/supervisor.hh).
     */
    void run(std::vector<std::function<void()>> jobs);

    /**
     * Like run(), but never throws: the returned vector has one slot
     * per job, holding that job's exception (or nullptr). All
     * failures are surfaced positionally, so the caller can report
     * or quarantine each one instead of losing all but the first.
     */
    std::vector<std::exception_ptr>
    runCollect(std::vector<std::function<void()>> jobs);

  private:
    /** One runCollect() call's jobs, owned by that call's frame. */
    struct Batch
    {
        std::vector<std::function<void()>> &jobs;
        std::vector<std::exception_ptr> &errors;
        /** Jobs not yet finished. The caller returns (and the batch
         *  dies) once it hits zero, so no worker touches a batch
         *  after its own decrement. */
        std::atomic<size_t> remaining;
    };

    /** One queued job: an index into the batch it belongs to. A
     *  worker still draining one batch may pop a job of the next, so
     *  every job carries its own batch rather than relying on a
     *  per-batch snapshot. */
    struct Task
    {
        Batch *batch;
        size_t idx;
    };

    /** One worker's deque of pending jobs. */
    struct Shard
    {
        Mutex m;
        std::deque<Task> q MSSP_GUARDED_BY(m);
    };

    void workerMain(unsigned self);
    /** Pop from own back, else steal from a sibling's front. */
    bool nextJob(unsigned self, Task &task);
    /** Run one job and retire it from its batch. */
    void execute(const Task &task);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> workers_;

    Mutex m_;
    CondVar wake_;                   ///< workers wait for a batch
    CondVar done_;                   ///< runCollect() waits for a drain
    uint64_t batch_ MSSP_GUARDED_BY(m_) = 0;   ///< bumped per batch
    bool stop_ MSSP_GUARDED_BY(m_) = false;
};

/**
 * Run @p work[i] for every i across @p jobs host threads and return
 * the results indexed exactly like @p work. With jobs <= 1 (or fewer
 * than two work items) everything runs inline on the calling thread
 * in order — the exact serial path.
 */
template <typename R>
std::vector<R>
runSharded(unsigned jobs, std::vector<std::function<R()>> work)
{
    std::vector<std::optional<R>> slots(work.size());
    if (jobs <= 1 || work.size() <= 1) {
        for (size_t i = 0; i < work.size(); ++i)
            slots[i].emplace(work[i]());
    } else {
        ThreadPool pool(std::min<size_t>(jobs, work.size()));
        std::vector<std::function<void()>> thunks;
        thunks.reserve(work.size());
        for (size_t i = 0; i < work.size(); ++i) {
            thunks.push_back(
                [&slots, &work, i] { slots[i].emplace(work[i]()); });
        }
        pool.run(std::move(thunks));
    }
    std::vector<R> results;
    results.reserve(slots.size());
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

/**
 * Same, but hand each result to @p merge in canonical job order
 * (0, 1, 2, ...) after the batch completes. Because the merge runs
 * serially on the calling thread in job order, any output it emits —
 * JSON rows, log lines, table cells — is byte-identical to what the
 * serial sweep would have produced.
 */
template <typename R, typename MergeFn>
void
runSharded(unsigned jobs, std::vector<std::function<R()>> work,
           MergeFn &&merge)
{
    std::vector<R> results = runSharded<R>(jobs, std::move(work));
    for (size_t i = 0; i < results.size(); ++i)
        merge(i, std::move(results[i]));
}

} // namespace mssp

#endif // MSSP_SIM_PARALLEL_HH
