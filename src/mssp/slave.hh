/**
 * @file
 * MSSP slave processors.
 *
 * A slave executes one task of the *original* program. Reads are
 * satisfied, in priority order, from the task's own write buffer, the
 * already-recorded live-ins, the master's checkpoint (its per-spawn
 * diff, then its shared base), and finally architected state
 * (read-through, charged archReadLatency cycles).
 * Every first read of a cell is recorded in the task's live-in set;
 * the verify/commit unit later checks that set against architected
 * state, which is exactly the paper's memoization-style commit test.
 *
 * This is the machine's dominant instruction path, so it runs
 * devirtualized (TaskContext is final), fetches through the shared
 * predecode cache of the original image, and captures live-ins with a
 * single hash probe (StateDelta's lookup/insertAt cursor).
 */

#ifndef MSSP_MSSP_SLAVE_HH
#define MSSP_MSSP_SLAVE_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "arch/arch_state.hh"
#include "arch/mmio.hh"
#include "exec/blockjit.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "exec/executor.hh"
#include "mssp/budget.hh"
#include "mssp/config.hh"
#include "mssp/fork_sites.hh"
#include "mssp/task.hh"

namespace mssp
{

/** ExecContext for one task on one slave. */
class TaskContext final : public ExecContext
{
  public:
    TaskContext(Task &task, const ArchState &arch,
                Cache *l1 = nullptr)
        : task_(task), arch_(arch), l1_(l1)
    {}

    /** Arch read-throughs performed by the last step (for timing). */
    unsigned archReadsLastStep = 0;
    /** Set when the last step tried to touch device space; all of the
     *  step's writes were suppressed and it must be discarded. */
    bool mmioTouched = false;

    void
    beginStep()
    {
        archReadsLastStep = 0;
        mmioTouched = false;
    }

    uint32_t
    readCell(CellId cell)
    {
        if (auto v = task_.liveOut.get(cell))
            return *v;
        // Live-in capture probes once: the lookup cursor doubles as
        // the insert position for the read-through value.
        StateDelta::Cursor c = task_.liveIn.lookup(cell);
        if (c.found)
            return task_.liveIn.valueAt(c);
        if (auto v = task_.checkpoint.get(cell)) {
            task_.liveIn.insertAt(c, cell, *v);
            return *v;
        }
        uint32_t value = arch_.readCell(cell);
        ++task_.archReads;
        // L1 filter: resident memory lines are free; misses (and all
        // architected register-file reads) pay the read-through.
        bool charged = true;
        if (l1_ && cellKind(cell) == CellKind::Mem)
            charged = !l1_->access(cellIndex(cell));
        if (charged)
            ++archReadsLastStep;
        task_.liveIn.insertAt(c, cell, value);
        return value;
    }

    uint32_t readReg(unsigned r) override
    {
        // Repeat register reads hit the task's register cache; only
        // the first touch of r runs the full read (and records the
        // live-in). The cached value tracks liveOut/liveIn exactly.
        uint32_t bit = 1u << r;
        if (task_.regValid & bit)
            return task_.regCache[r];
        uint32_t v = readCell(makeRegCell(r));
        task_.regCache[r] = v;
        task_.regValid |= bit;
        return v;
    }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        if (mmioTouched)
            return;   // discard the aborted step's register write
        task_.liveOut.set(makeRegCell(r), v);
        task_.regCache[r] = v;
        task_.regValid |= 1u << r;
    }
    uint32_t
    readMem(uint32_t addr) override
    {
        if (isMmio(addr)) {
            mmioTouched = true;
            return 0;   // dummy; the step is discarded
        }
        return readCell(makeMemCell(addr));
    }
    void
    writeMem(uint32_t addr, uint32_t v) override
    {
        if (isMmio(addr) || mmioTouched) {
            mmioTouched = true;
            return;
        }
        task_.liveOut.set(makeMemCell(addr), v);
    }
    uint32_t
    fetch(uint32_t pc) override
    {
        // Original code is immutable (no self-modifying code); fetch
        // directly from architected memory without live-in recording.
        return arch_.readMem(pc);
    }
    void
    output(uint16_t port, uint32_t value) override
    {
        task_.outputs.push_back({port, value});
    }

  private:
    Task &task_;
    const ArchState &arch_;
    Cache *l1_;
};

/**
 * One slave processor.
 *
 * A slave keeps its own clock: the next cycle it has not simulated.
 * advance() moves it forward by many cycles at once, exactly as that
 * many single-cycle steps would, which is what lets the machine run
 * in quanta (MsspMachine::run). Only the head task's slave ever runs
 * ahead of the machine; every other slave's clock equals the
 * machine's cycle between quanta.
 */
class SlaveCore
{
  public:
    SlaveCore(int id, const ArchState &arch, const MsspConfig &cfg,
              const ForkSiteSet &fork_site_pcs, DecodeCache &decode)
        : id_(id), arch_(arch), cfg_(cfg),
          fork_site_pcs_(fork_site_pcs), decode_(decode),
          backend_(resolveHookedBackend(cfg.execBackend))
    {
        if (cfg.useSlaveL1)
            l1_ = std::make_unique<Cache>(cfg.slaveL1);
    }

    bool idle() const { return task_ == nullptr; }
    /** Free to take a task at machine cycle @p now: no task, and not
     *  still simulating one it finished ahead of the machine. */
    bool idleAt(Cycle now) const { return !task_ && clock_ <= now; }
    Task *task() { return task_; }
    int id() const { return id_; }
    /** The next cycle this slave has not simulated (while pending():
     *  the cycle whose fork-site decision is held). */
    Cycle clock() const { return clock_; }

    /** Begin executing @p task (it must be freshly spawned). */
    void
    assign(Task *task)
    {
        task_ = task;
        task->slaveId = id_;
        task->pc = task->startPc;
        budget_ = 0.0;
        stall_ = 0;
    }

    /** Drop the current task (squash or commit bookkeeping). */
    void
    release()
    {
        task_ = nullptr;
        pending_ = false;
    }

    /**
     * Simulate cycles [clock(), @p until): exactly what that many
     * single-cycle steps would do, charging idle, pause and stall
     * cycles in bulk and running each stretch of execution as one
     * engine slice (budgeted by slaveIpc, honoring arch-read stalls
     * and fork-site pauses). A task that completes is released on the
     * spot and stamped with Task::readyAt.
     *
     * With @p hold (the head task's slave, which runs before the
     * master) the call returns as soon as the task completes or has
     * to wait for the master's end info, and a task that reaches a
     * fork-site PC with its end still unknown stops there with the
     * pause decision held: the master may reveal the end at an
     * earlier cycle. The machine then either settles the hold as a
     * pause (settlePause) or lets the next advance() finish the
     * decision with the end info that has arrived.
     *
     * @return instructions executed (for stats)
     */
    uint64_t
    advance(Cycle until, bool hold = false)
    {
        if (task_)
            return advanceTask(until, hold);
        idleUntil(until);   // the common case, inline
        return 0;
    }

    /** One cycle (unit tests). */
    uint64_t tick() { return advance(clock_ + 1); }

    /** A held fork-site decision: the task waits at a fork site and
     *  the end info it needs may still arrive before that cycle. */
    bool pending() const { return pending_; }

    /** The master revealed nothing before the held cycle: the task
     *  paused there, and that cycle is complete. */
    void
    settlePause()
    {
        pending_ = false;
        ++clock_;
    }

    /** Fault-injection surface: freeze this core for @p n extra
     *  cycles, as a stalled or flaky core would (timing-only; the
     *  verify/commit unit never learns the difference). */
    void injectStall(Cycle n) { stall_ += n; }

    /** Flash-invalidate the speculative L1 (squash/serialize). */
    void
    invalidateL1()
    {
        if (l1_)
            l1_->invalidateAll();
    }

    /** The private L1 (null when disabled). */
    const Cache *l1() const { return l1_.get(); }

    /** Cycles this slave spent stalled on arch reads (stats). */
    uint64_t archStallCycles() const { return arch_stall_cycles_; }
    /** Cycles spent paused waiting for an end condition (stats). */
    uint64_t pauseCycles() const { return pause_cycles_; }
    /** Cycles spent idle with no task (stats). */
    uint64_t idleCycles() const { return idle_cycles_; }

    /** Busy cycles (held a task at their start) since the last call:
     *  the slave's per-cycle fault opportunities. */
    uint64_t
    takeBusyCycles()
    {
        uint64_t busy = clock_ - idle_cycles_;
        uint64_t n = busy - busy_taken_;
        busy_taken_ = busy;
        return n;
    }

  private:
    /** What one engine slice of the task did. */
    struct Slice
    {
        uint64_t attempts = 0;   ///< budget charged (incl. aborted)
        uint64_t retired = 0;
        bool ended = false;      ///< stopped by an event, not budget
    };

    /** advance() with a task on the slave. */
    uint64_t advanceTask(Cycle until, bool hold);

    /** Charge the cycles up to @p until as idle. */
    void
    idleUntil(Cycle until)
    {
        if (clock_ < until) {
            idle_cycles_ += until - clock_;
            clock_ = until;
        }
    }

    /** Run the task for at most @p max_attempts attempted steps. */
    Slice runTask(Task &t, uint64_t max_attempts, bool hold);

    /** Execute from the start of cycle clock_ through @p until, up to
     *  the first event (stall, pause, end of task). */
    uint64_t runActive(Cycle until, bool hold);

    /** Finish a held cycle now that the end info has arrived. */
    uint64_t resumeHeld();

    /** Re-check pause/end conditions when new end info arrives. */
    void refreshEndCondition();

    /**
     * Per-step obligations of task execution, expressed as an engine
     * hook (exec/backend.hh) so the slice below runs on any tier that
     * honors CapPerStepHook. Ordering mirrors the historical inline
     * loop exactly: MMIO aborts discard the step, halt ends the task
     * with the pc pinned, then arch-read stalls, end-condition
     * arrivals, fork-site pauses and the runaway cap — the last three
     * on the *post-step* pc, and all of them after the instruction
     * retires. Every verdict that stops the slice marks it ended.
     */
    struct SlaveHook
    {
        SlaveCore &s;
        Task &t;
        TaskContext &ctx;
        bool hold;
        /** Attempted steps (retired + MMIO-discarded); budget is
         *  charged per attempt, as the historical loop did. */
        uint64_t attempts = 0;
        bool ended = false;

        bool
        preStep(uint32_t, const Instruction &)
        {
            ctx.beginStep();
            return true;
        }

        StepVerdict
        stop(StepVerdict v)
        {
            ended = true;
            return v;
        }

        StepVerdict
        postStep(uint32_t, StepResult &res)
        {
            ++attempts;
            if (ctx.mmioTouched) {
                // Device access: the step was suppressed. The task
                // ends *before* the access; the machine serializes it.
                t.end = TaskEnd::MmioStop;
                return stop(StepVerdict::Discard);
            }
            ++t.instCount;
            if (res.status == StepStatus::Halted) {
                t.end = TaskEnd::Halted;
                return StepVerdict::Continue;  // engine pins pc, stops
            }
            StepVerdict v = StepVerdict::Continue;
            if (ctx.archReadsLastStep) {
                s.stall_ += static_cast<Cycle>(ctx.archReadsLastStep) *
                            s.cfg_.archReadLatency;
                v = stop(StepVerdict::Stop);
            }
            // Arrival checks: end condition and fork-site pauses.
            // These end the step outright; the runaway cap is only
            // consulted when neither fired (historical break order).
            if (t.endKnown) {
                if (res.nextPc == t.endPc) {
                    ++t.visits;
                    if (t.visits >= t.endVisits) {
                        t.end = TaskEnd::ReachedEnd;
                        return stop(StepVerdict::Stop);
                    }
                }
            } else if (!t.runToHalt &&
                       s.fork_site_pcs_.contains(res.nextPc)) {
                // Under hold, the rest of this decision (resumeHeld)
                // waits until the machine knows whether the end info
                // arrived before this cycle.
                t.pausedAtForkSite = true;
                s.pending_ = hold;
                s.held_stall_ = v == StepVerdict::Stop;
                return stop(StepVerdict::Stop);
            }
            if (t.instCount >= s.cfg_.maxTaskInsts) {
                t.end = TaskEnd::Overrun;
                return stop(StepVerdict::Stop);
            }
            return v;
        }
    };

    int id_;
    const ArchState &arch_;
    const MsspConfig &cfg_;
    const ForkSiteSet &fork_site_pcs_;
    DecodeCache &decode_;   ///< shared cache of the original image

    Task *task_ = nullptr;
    std::unique_ptr<Cache> l1_;
    double budget_ = 0.0;
    Cycle stall_ = 0;
    Cycle clock_ = 0;
    bool pending_ = false;
    /** The held step also read through to architected state, which
     *  ends its slice whatever the decision (even at zero latency). */
    bool held_stall_ = false;

    /** Execution tier for task slices. Slaves carry per-step
     *  obligations (the hook above), so blockjit resolves to
     *  threaded here (resolveHookedBackend). */
    BackendKind backend_;

    uint64_t arch_stall_cycles_ = 0;
    uint64_t pause_cycles_ = 0;
    uint64_t idle_cycles_ = 0;
    uint64_t busy_taken_ = 0;   ///< busy cycles takeBusyCycles() saw
};

inline void
SlaveCore::refreshEndCondition()
{
    Task &t = *task_;
    if (!t.pausedAtForkSite)
        return;
    if (t.runToHalt) {
        t.pausedAtForkSite = false;
        return;
    }
    if (!t.endKnown)
        return;   // still waiting for the master to fork
    t.pausedAtForkSite = false;
    if (t.pc == t.endPc) {
        ++t.visits;
        if (t.visits >= t.endVisits)
            t.end = TaskEnd::ReachedEnd;
    }
}

inline SlaveCore::Slice
SlaveCore::runTask(Task &t, uint64_t max_attempts, bool hold)
{
    TaskContext ctx(t, arch_, l1_.get());
    SlaveHook hook{*this, t, ctx, hold};
    // One engine slice, budgeted in *attempted* steps: MMIO-discarded
    // and faulting attempts consume budget without retiring, exactly
    // as the historical per-step loop charged them (and each of them
    // ends the slice, so attempts never exceed the budget).
    EngineResult er = runOnBackend(backend_, decode_, t.pc, max_attempts,
                                   ctx, nullptr, hook);
    t.pc = er.pc;
    bool faulted = er.status == StepStatus::Illegal;
    if (faulted)
        t.end = TaskEnd::Faulted;
    return {hook.attempts + (faulted ? 1 : 0), er.retired,
            hook.ended || er.status != StepStatus::Ok};
}

inline uint64_t
SlaveCore::runActive(Cycle until, bool hold)
{
    double after_all = budget_;
    uint64_t offered =
        drainCycles(after_all, cfg_.slaveIpc, until - clock_);
    Slice s = runTask(*task_, offered, hold);
    if (!s.ended) {
        budget_ = after_all;
        clock_ = until;
    } else {
        Cycle cycles = cyclesToAttempt(budget_, cfg_.slaveIpc,
                                       s.attempts);
        // A held decision leaves its cycle open.
        clock_ += pending_ ? cycles - 1 : cycles;
    }
    return s.retired;
}

inline uint64_t
SlaveCore::resumeHeld()
{
    Task &t = *task_;
    pending_ = false;
    t.pausedAtForkSite = false;
    // The rest of SlaveHook::postStep's decision, with the end info
    // that arrived before this cycle.
    if (t.endKnown && t.pc == t.endPc && ++t.visits >= t.endVisits)
        t.end = TaskEnd::ReachedEnd;
    else if (t.instCount >= cfg_.maxTaskInsts)
        t.end = TaskEnd::Overrun;
    uint64_t retired = 0;
    if (!t.done() && !held_stall_) {
        // The step did not stop the slice: spend the rest of the
        // cycle's budget.
        Slice s = runTask(t, static_cast<uint64_t>(budget_), false);
        budget_ -= static_cast<double>(s.attempts);
        retired = s.retired;
    }
    ++clock_;
    return retired;
}

inline uint64_t
SlaveCore::advanceTask(Cycle until, bool hold)
{
    uint64_t retired = 0;
    while (task_ && clock_ < until) {
        Task &t = *task_;
        if (pending_) {
            if (!t.endKnown && !t.runToHalt)
                return retired;   // the master has not decided yet
            retired += resumeHeld();
        } else if (stall_ > 0) {
            Cycle n = std::min<Cycle>(stall_, until - clock_);
            stall_ -= n;
            arch_stall_cycles_ += n;
            clock_ += n;
            continue;
        } else if (t.pausedAtForkSite && !t.endKnown && !t.runToHalt) {
            // Still waiting for the master to reveal the end
            // condition. Without hold it cannot change inside this
            // call; under hold the master has not run yet.
            if (hold)
                return retired;
            pause_cycles_ += until - clock_;
            clock_ = until;
            return retired;
        } else {
            refreshEndCondition();
            if (t.done())
                ++clock_;   // reached its end on arrival of the info
            else
                retired += runActive(until, hold);
        }
        if (t.done()) {
            // Free the slave as soon as its task is complete: the
            // task's live-in/live-out data now lives with the
            // verify/commit unit (the window), exactly as in the paper.
            t.readyAt = clock_;
            task_ = nullptr;
            if (hold)
                return retired;
        }
    }
    if (!task_)
        idleUntil(until);
    return retired;
}

} // namespace mssp

#endif // MSSP_MSSP_SLAVE_HH
