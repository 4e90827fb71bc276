#include "sim/parallel.hh"

#include "sim/logging.hh"

namespace mssp
{

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    shards_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(m_);
        stop_ = true;
    }
    wake_.notifyAll();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::run(std::vector<std::function<void()>> jobs)
{
    std::vector<std::exception_ptr> errors =
        runCollect(std::move(jobs));
    // First failure by job index, not completion time: deterministic.
    // The rest are dropped — the compat contract (see the header).
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

std::vector<std::exception_ptr>
ThreadPool::runCollect(std::vector<std::function<void()>> jobs)
{
    std::vector<std::exception_ptr> errors(jobs.size());
    if (jobs.empty())
        return errors;
    Batch batch{jobs, errors, {jobs.size()}};
    {
        MutexLock lock(m_);
        ++batch_;
        // Deal indices round-robin: similar-cost neighbours spread
        // over all workers, stealing rebalances the rest.
        for (size_t i = 0; i < jobs.size(); ++i) {
            Shard &s = *shards_[i % shards_.size()];
            MutexLock qlock(s.m);
            s.q.push_back({&batch, i});
        }
    }
    wake_.notifyAll();

    MutexLock lock(m_);
    while (batch.remaining.load(std::memory_order_acquire) != 0)
        done_.wait(m_);
    return errors;
}

bool
ThreadPool::nextJob(unsigned self, Task &task)
{
    {
        Shard &own = *shards_[self];
        MutexLock lock(own.m);
        if (!own.q.empty()) {
            task = own.q.back();   // LIFO: most recently dealt, warm
            own.q.pop_back();
            return true;
        }
    }
    for (size_t off = 1; off < shards_.size(); ++off) {
        Shard &victim = *shards_[(self + off) % shards_.size()];
        MutexLock lock(victim.m);
        if (!victim.q.empty()) {
            task = victim.q.front();   // steal oldest: FIFO fairness
            victim.q.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::execute(const Task &task)
{
    Batch &b = *task.batch;
    try {
        b.jobs[task.idx]();
    } catch (...) {
        b.errors[task.idx] = std::current_exception();
    }
    if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last job out: wake the caller. Taking the lock orders this
        // notify after the caller's wait() registration. The batch
        // may be gone from here on; only pool members are touched.
        MutexLock lock(m_);
        done_.notifyAll();
    }
}

void
ThreadPool::workerMain(unsigned self)
{
    uint64_t seen = 0;
    for (;;) {
        {
            MutexLock lock(m_);
            while (!stop_ && batch_ == seen)
                wake_.wait(m_);
            if (stop_)
                return;
            seen = batch_;
        }
        Task task;
        while (nextJob(self, task))
            execute(task);
        // Drained (for this worker). Other workers may still be
        // executing; runCollect() waits on the batch, not on us.
    }
}

} // namespace mssp
