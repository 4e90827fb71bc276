#include "mssp/machine.hh"

#include <algorithm>

#include "exec/blockjit.hh"
#include "exec/executor.hh"
#include "fault/fault.hh"
#include "mssp/budget.hh"
#include "sim/logging.hh"
#include "sim/supervisor.hh"

namespace mssp
{

const char *
toString(StopReason r)
{
    switch (r) {
      case StopReason::Halted:            return "halted";
      case StopReason::Faulted:           return "faulted";
      case StopReason::TimedOut:          return "timed-out";
      case StopReason::WatchdogExhausted: return "watchdog-exhausted";
    }
    return "?";
}

namespace
{

/** Non-speculative execution context: directly on architected state. */
class SeqArchContext final : public ExecContext
{
  public:
    SeqArchContext(ArchState &arch, MmioDevice &device,
                   OutputStream &outputs)
        : arch_(arch), device_(device), outputs_(outputs)
    {}

    uint32_t readReg(unsigned r) override { return arch_.readReg(r); }
    void
    writeReg(unsigned r, uint32_t v) override
    {
        arch_.writeReg(r, v);
    }
    uint32_t
    readMem(uint32_t a) override
    {
        if (isMmio(a))
            return device_.read(a);
        return arch_.readMem(a);
    }
    void
    writeMem(uint32_t a, uint32_t v) override
    {
        if (isMmio(a)) {
            device_.write(a, v, outputs_);
            return;
        }
        arch_.writeMem(a, v);
    }
    uint32_t fetch(uint32_t pc) override { return arch_.readMem(pc); }
    void
    output(uint16_t port, uint32_t value) override
    {
        outputs_.push_back({port, value});
    }

  private:
    ArchState &arch_;
    MmioDevice &device_;
    OutputStream &outputs_;
};

} // anonymous namespace

MsspMachine::MsspMachine(const Program &orig,
                         const DistilledProgram &dist,
                         const MsspConfig &cfg)
    : cfg_(cfg), orig_(orig), dist_(dist), arch_(),
      master_(dist_, arch_), fork_site_pcs_(dist_.taskMap)
{
    arch_.loadProgram(orig_);
    master_.setForkInterval(cfg_.forkInterval);
    master_.setBackend(cfg_.execBackend);
    slaves_.reserve(cfg_.numSlaves);
    for (unsigned i = 0; i < cfg_.numSlaves; ++i) {
        slaves_.emplace_back(static_cast<int>(i), arch_, cfg_,
                             fork_site_pcs_, orig_decode_);
    }
    mode_ = Mode::Restarting;
    restart_at_ = 0;
}

void
MsspMachine::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    master_faults_.clear();
    slave_faults_.clear();
    if (!injector_)
        return;
    // Slave opportunities count from the attach on.
    for (auto &slave : slaves_)
        slave.takeBusyCycles();
    if (dist_code_addrs_.empty()) {
        // ImagePatch target list: words of the master's private
        // I-space (distilled code), never the original image.
        for (const auto &[addr, word] : dist_.prog.image()) {
            (void)word;
            if (addr >= DistilledCodeBase)
                dist_code_addrs_.push_back(addr);
        }
    }
    // The armed per-cycle streams, in the order their fires apply
    // (fault.hh). PC and image faults need distilled code to aim at;
    // without it their streams are never consulted, nor charged.
    for (FaultType t : SlaveCycleFaults) {
        if (injector_->plan(t).rate > 0.0)
            slave_faults_.push_back(t);
    }
    for (FaultType t : MasterCycleFaults) {
        if (injector_->plan(t).rate > 0.0 &&
            (t == FaultType::MasterRegFlip || !dist_code_addrs_.empty()))
            master_faults_.push_back(t);
    }
}

void
MsspMachine::engageMaster()
{
    last_commit_cycle_ = now_;
    if (seq_insts_remaining_ == 0 && force_seq_insts_ == 0 &&
        master_.restart(arch_.pc())) {
        mode_ = Mode::Spec;
        master_budget_ = 0.0;
        master_insts_at_last_fork_ = 0;
    } else {
        mode_ = Mode::Seq;
        seq_budget_ = 0.0;
    }
}

void
MsspMachine::noteEngageFailure()
{
    ++engage_failures_;
    if (engage_failures_ > cfg_.maxEngageFailures) {
        // Speculation keeps failing here: back off to sequential
        // execution for a while (exponential, decayed by commits).
        seq_backoff_ = std::min(
            std::max(seq_backoff_ * 2, cfg_.seqBackoffInsts),
            cfg_.maxSeqBackoffInsts);
        seq_insts_remaining_ = seq_backoff_;
        engage_failures_ = 0;
        ++ctrs_.seqBackoffEvents;
    }
}

void
MsspMachine::noteMasterDead()
{
    ++ctrs_.masterDeadRestarts;
    noteEngageFailure();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
}

void
MsspMachine::squash(TaskOutcome reason)
{
    ++ctrs_.squashEvents;
    switch (reason) {
      case TaskOutcome::SquashedLiveIn:
        ++ctrs_.tasksSquashedLiveIn;
        break;
      case TaskOutcome::SquashedWrongPc:
        ++ctrs_.tasksSquashedWrongPc;
        break;
      case TaskOutcome::SquashedOverrun:
        ++ctrs_.tasksSquashedOverrun;
        break;
      case TaskOutcome::SquashedSpurious:
        ++ctrs_.tasksSquashedSpurious;
        break;
      default:
        break;
    }
    // Attribute the squash to the static fork site whose task headed
    // the window (ForkSiteStat; a watchdog squash of an empty window
    // charges no site).
    if (!window_.empty()) {
        ForkSiteStat &s = site_stats_[window_.front()->startPc];
        switch (reason) {
          case TaskOutcome::SquashedLiveIn:
            ++s.squashedLiveIn;
            break;
          case TaskOutcome::SquashedWrongPc:
            ++s.squashedWrongPc;
            break;
          default:
            ++s.squashedOther;
            break;
        }
    }
    if (window_.size() > 1)
        ctrs_.tasksSquashedCascade += window_.size() - 1;

    for (auto &slave : slaves_) {
        slave.release();
        slave.invalidateL1();   // speculative lines are discarded
    }
    for (auto &task : window_) {
        ctrs_.wastedSlaveInsts += task->instCount;
        recycleTask(std::move(task));
    }
    window_.clear();
    arrived_.clear();
    spawn_queue_.clear();
    master_.stop();

    noteEngageFailure();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
}

void
MsspMachine::serializeSpeculation()
{
    for (auto &slave : slaves_) {
        slave.release();
        slave.invalidateL1();
    }
    for (auto &task : window_) {
        ctrs_.wastedSlaveInsts += task->instCount;
        recycleTask(std::move(task));
    }
    window_.clear();
    arrived_.clear();
    spawn_queue_.clear();
    master_.stop();
    mode_ = Mode::Restarting;
    restart_at_ = now_ + cfg_.squashPenalty;
    last_commit_cycle_ = now_;
    // The device access itself must execute sequentially before the
    // master may be re-engaged (it could sit exactly at a fork site).
    force_seq_insts_ = 1;
    // Note: deliberately no engage-failure accounting — this is
    // planned serialization, not misspeculation.
}

void
MsspMachine::commitFront()
{
    Task &t = *window_.front();
    ++site_stats_[t.startPc].committed;
    if (commit_hook_)
        commit_hook_(t, arch_);
    arch_.apply(t.liveOut);
    bool stays_at_pc = t.end == TaskEnd::Halted ||
                       t.end == TaskEnd::MmioStop;
    arch_.setPc(stays_at_pc ? t.pc : t.endPc);
    arch_.addInstret(t.instCount);
    outputs_.insert(outputs_.end(), t.outputs.begin(),
                    t.outputs.end());

    ++ctrs_.tasksCommitted;
    task_size_dist_.sample(static_cast<double>(t.instCount));
    livein_dist_.sample(static_cast<double>(t.liveIn.size()));
    ctrs_.archReads += t.archReads;
    if (t.end == TaskEnd::Halted)
        halted_ = true;

    recycleTask(std::move(window_.front()));
    window_.pop_front();
    commit_busy_until_ = now_ + cfg_.commitLatency;
    last_commit_cycle_ = now_;
    engage_failures_ = 0;
    consecutive_watchdog_ = 0;
    if (seq_backoff_ > 0) {
        // Speculation is working again: decay. Clamp to 0 below the
        // initial backoff so a recovered machine really is backoff-free
        // (re-engagement via max(2x, seqBackoffInsts) used to pin any
        // once-engaged backoff at the floor forever).
        seq_backoff_ /= 2;
        if (seq_backoff_ < cfg_.seqBackoffInsts)
            seq_backoff_ = 0;
        ++ctrs_.seqBackoffDecays;
    }
    master_.sweepDeltaAgainstArch(cfg_.checkpointSweepCells);
}

Cycle
MsspMachine::commitCycle() const
{
    return std::max<Cycle>(window_.front()->readyAt, commit_busy_until_);
}

void
MsspMachine::tickCommit()
{
    Task &t = *window_.front();

    auto squash_with_hook = [&](TaskOutcome reason) {
        if (squash_hook_)
            squash_hook_(t, reason);
        squash(reason);
    };

    if (injector_ && injector_->fire(FaultType::SpuriousSquash)) {
        // Glitched verification hardware: squash a head task that may
        // well have verified. Costs performance, never correctness —
        // squashed work leaves architected state untouched.
        squash_with_hook(TaskOutcome::SquashedSpurious);
        return;
    }

    switch (t.end) {
      case TaskEnd::ReachedEnd:
      case TaskEnd::Halted:
      case TaskEnd::MmioStop: {
        if (t.startPc != arch_.pc()) {
            squash_with_hook(TaskOutcome::SquashedWrongPc);
            return;
        }
        ctrs_.liveInCellsChecked += t.liveIn.size();
        uint64_t mismatches = arch_.countMismatches(t.liveIn);
        if (mismatches) {
            ctrs_.liveInCellsMismatched += mismatches;
            squash_with_hook(TaskOutcome::SquashedLiveIn);
            return;
        }
        bool mmio = t.end == TaskEnd::MmioStop;
        commitFront();
        if (mmio) {
            // The committed prefix brought the architected PC to the
            // device access; execute it (and what follows) in
            // sequential mode — speculation is precluded on
            // non-idempotent state.
            ++ctrs_.mmioSerializations;
            serializeSpeculation();
        }
        return;
      }
      case TaskEnd::Faulted: {
        // A fault with verified inputs is a genuine program fault.
        if (t.startPc == arch_.pc() && arch_.matches(t.liveIn)) {
            faulted_ = true;
            return;
        }
        squash_with_hook(TaskOutcome::SquashedLiveIn);
        return;
      }
      case TaskEnd::Overrun:
        squash_with_hook(TaskOutcome::SquashedOverrun);
        return;
      case TaskEnd::None:
        return;
    }
}

std::unique_ptr<Task>
MsspMachine::allocTask()
{
    if (task_pool_.empty()) {
        auto task = std::make_unique<Task>();
        // Typical tasks record dozens of cells; skip the early
        // grow-probe-reinsert churn in the flat maps.
        task->liveIn.reserve(64);
        task->liveOut.reserve(64);
        return task;
    }
    std::unique_ptr<Task> task = std::move(task_pool_.back());
    task_pool_.pop_back();
    task->reset();
    return task;
}

void
MsspMachine::recycleTask(std::unique_ptr<Task> task)
{
    // Stale contents are harmless: allocTask() resets on reuse (so
    // references held through commit/squash teardown stay readable).
    task_pool_.push_back(std::move(task));
}

void
MsspMachine::tickSpawnDelivery()
{
    while (!arrived_.empty()) {
        auto idle = std::find_if(slaves_.begin(), slaves_.end(),
                                 [this](const SlaveCore &s) {
                                     return s.idleAt(now_);
                                 });
        if (idle == slaves_.end())
            return;
        Task *t = arrived_.front();
        arrived_.pop_front();
        idle->assign(t);
    }
}

bool
MsspMachine::masterDraws() const
{
    return mode_ == Mode::Spec && master_.running();
}

void
MsspMachine::injectFaults()
{
    // A slave's opportunity is a cycle at whose start it holds a task
    // (one ahead of the machine saw this cycle already).
    for (auto &slave : slaves_) {
        if (slave_faults_.empty())
            break;
        if (!slave.task() || slave.clock() != now_)
            continue;
        const auto id = static_cast<unsigned>(slave.id());
        for (FaultType t : slave_faults_) {
            if (!injector_->fireDue(t, id))
                continue;
            if (t == FaultType::SlaveStall) {
                slave.injectStall(injector_->plan(t).stallCycles);
                continue;
            }
            // SlaveKill: the core died mid-task. Its task stays
            // incomplete in the window (no slave will ever pick it up
            // again), so the commit unit stalls on it until the
            // watchdog squash recovers — exactly a hung core's failure
            // mode. The killed cycle is the kill stream's opportunity,
            // but no busy cycle of the slave, and ends its draws.
            MSSP_ASSERT(t == FaultType::SlaveKill);
            slave.release();
            injector_->charge(t, id, 1);
            break;
        }
    }
    if (!masterDraws())
        return;
    for (FaultType t : master_faults_) {
        if (!injector_->fireDue(t, 0))
            continue;
        Rng &rng = injector_->draws(t, 0);
        switch (t) {
          case FaultType::MasterRegFlip: {
            const FaultPlan &p = injector_->plan(t);
            unsigned r =
                p.target > 0 && p.target < static_cast<int>(NumRegs)
                    ? static_cast<unsigned>(p.target)
                    : 1 + static_cast<unsigned>(rng.below(NumRegs - 1));
            master_.corruptReg(r, 1u << (rng.next() & 31));
            break;
          }
          case FaultType::MasterPcCorrupt:
            master_.corruptPc(
                dist_code_addrs_[rng.below(dist_code_addrs_.size())]);
            break;
          case FaultType::ImagePatch: {
            // Patch a word of the master's private I-space at runtime
            // and invalidate its predecode page. The original image is
            // never touched: slaves and the Seq fallback stay correct
            // by construction.
            uint32_t addr =
                dist_code_addrs_[rng.below(dist_code_addrs_.size())];
            dist_.prog.setWord(addr, static_cast<uint32_t>(rng.next()));
            master_.invalidateDecode(addr);
            break;
          }
          default:
            panic("injectFaults: %s is no master fault", toString(t));
        }
    }
}

Cycle
MsspMachine::nextFaultCycle(Cycle end)
{
    auto bound = [&](Cycle from, uint64_t left) {
        if (from < end && left < end - from)
            end = from + left;
    };
    for (FaultType t : slave_faults_) {
        for (auto &slave : slaves_) {
            if (slave.task()) {
                bound(slave.clock(),
                      injector_->untilFire(
                          t, static_cast<unsigned>(slave.id())));
            }
        }
    }
    if (masterDraws()) {
        for (FaultType t : master_faults_)
            bound(now_, injector_->untilFire(t, 0));
    }
    return end;
}

void
MsspMachine::chargeFaults(Cycle master_cycles)
{
    for (auto &slave : slaves_) {
        uint64_t busy = slave.takeBusyCycles();
        if (busy == 0)
            continue;
        for (FaultType t : slave_faults_)
            injector_->charge(t, static_cast<unsigned>(slave.id()), busy);
    }
    if (master_cycles > 0) {
        for (FaultType t : master_faults_)
            injector_->charge(t, 0, master_cycles);
    }
}

SlaveCore *
MsspMachine::headSlave()
{
    if (window_.empty())
        return nullptr;
    Task *t = window_.front().get();
    if (t->done() || t->slaveId < 0)
        return nullptr;
    SlaveCore &s = slaves_[static_cast<size_t>(t->slaveId)];
    return s.task() == t ? &s : nullptr;
}

bool
MsspMachine::pipelineEmpty() const
{
    return window_.empty() && spawn_queue_.empty() && arrived_.empty();
}

inline Cycle
MsspMachine::quantumEnd(uint64_t max_cycles, bool supervised)
{
    // An arrived task that found no idle slave retries next cycle.
    if (cycle_stepped_ || !arrived_.empty())
        return now_ + 1;
    Cycle end = max_cycles;
    if (supervised)
        end = std::min<Cycle>(end, (now_ | 1023) + 1);
    if (!spawn_queue_.empty())
        end = std::min(end, spawn_queue_.front().due);
    if (mode_ == Mode::Restarting) {
        // A restart due now (zero squash penalty) is seen next cycle.
        end = std::min(end, std::max<Cycle>(restart_at_, now_ + 1));
    }
    if (mode_ == Mode::Spec) {
        // The watchdog fires at the end of the first cycle past
        // watchdogCycles, so that cycle is the quantum's last.
        end = std::min<Cycle>(end, last_commit_cycle_ +
                                       cfg_.watchdogCycles + 2);
    }
    if (!window_.empty() && window_.front()->done()) {
        // This cycle's commit (if any) is done: at most one per cycle.
        end = std::min(end, std::max<Cycle>(commitCycle(), now_ + 1));
    }
    if (injector_) {
        // The next per-cycle fault fire (those due now are applied).
        end = nextFaultCycle(end);
    }
    return end;
}

void
MsspMachine::runQuantum(Cycle end)
{
    MSSP_ASSERT(end > now_);
    const bool spec = mode_ == Mode::Spec;

    // 1. The head task's slave: its completion fixes the next commit.
    //    (A one-cycle quantum cannot end sooner, and a decision held
    //    in its only cycle settles as a pause, so there the head is
    //    just one of the slaves.)
    SlaveCore *head = end > now_ + 1 ? headSlave() : nullptr;
    if (head) {
        ctrs_.slaveInsts += head->advance(end, /*hold=*/true);
        if (window_.front()->done())
            end = std::min(end, commitCycle());
    }

    // 2. The master (no effect other cores can see yet) or the
    //    sequential fallback, up to its next interaction.
    MasterWork work;
    if (spec)
        end = advanceMaster(end, &work);
    else if (mode_ == Mode::Seq)
        end = advanceSeq(end);

    // 3. Every slave through the quantum. A decision the head held at
    //    a cycle inside the quantum is a pause: the master reveals
    //    nothing before the quantum's last cycle.
    if (head && head->pending() && head->clock() < end)
        head->settlePause();
    for (auto &slave : slaves_)
        ctrs_.slaveInsts += slave.advance(end);

    // 4. The master's interaction in the last cycle, then that
    //    cycle's end-of-cycle checks.
    now_ = end - 1;
    if (spec) {
        if (work.halted) {
            if (Task *prev = youngest(); prev && !prev->endKnown)
                prev->runToHalt = true;
        }
        if (work.finishCycle)
            spendMasterBudget();
        ctrs_.masterForkInsts = master_.forkInsts();
        if (!master_.running() && pipelineEmpty()) {
            // Dead master (halted/faulted/runaway-killed), empty
            // pipeline: nothing can ever commit, so restart now
            // instead of sitting out the watchdog. Counts as an
            // engage failure — a master that dies right after
            // every restart must escalate into Seq backoff, not
            // spin restart/die forever.
            noteMasterDead();
        } else {
            checkWatchdog();
        }
    }
    now_ = end;
}

Cycle
MsspMachine::advanceMaster(Cycle end, MasterWork *work)
{
    const Cycle start = now_;
    if (!master_.running())
        return pipelineEmpty() ? start + 1 : end;
    const uint64_t since_fork =
        master_.instsSinceRestart() - master_insts_at_last_fork_;
    if (cfg_.masterRunawayInsts > 0 && master_.running() &&
        since_fork > cfg_.masterRunawayInsts) {
        // The master is burning instructions without forking (e.g. a
        // corrupted PC landed it in an infinite non-fork loop). The
        // watchdog cannot see this while older tasks keep committing,
        // so kill the master here; once the window drains, the
        // master-dead path restarts it.
        master_.stop();
        ++ctrs_.masterRunawayKills;
        return start + 1;
    }

    const double ipc = cfg_.masterIpc;
    if (window_.size() >= cfg_.maxInFlightTasks &&
        master_.nextForkWouldSpawn()) {
        // Stalled in front of a spawning FORK on a full window, until
        // a commit, which is beyond this quantum.
        stallMaster(start, end);
        return end;
    }

    // One slice for the whole quantum. It stops in front of the next
    // spawning FORK, and once the master crosses the runaway
    // threshold (checked at the start of the following cycle).
    double after_all = master_budget_;
    const uint64_t offered = drainCycles(after_all, ipc, end - start);
    uint64_t cap = offered;
    if (cfg_.masterRunawayInsts > 0) {
        cap = std::min<uint64_t>(
            cap, cfg_.masterRunawayInsts + 1 - since_fork);
    }
    uint64_t executed = 0;
    MasterStep st = master_.runSlice(cap, &executed);
    ctrs_.masterInsts += executed;

    // The quantum ends after the cycle of the attempt that stopped
    // the master; master_budget_ becomes what is left of that cycle.
    if (st == MasterStep::Halted) {
        work->halted = true;
        return start + cyclesToAttempt(master_budget_, ipc, executed);
    }
    if (st == MasterStep::Faulted) {
        // The faulting attempt is the one after the last retired.
        return start + cyclesToAttempt(master_budget_, ipc, executed + 1);
    }
    if (executed == offered) {
        master_budget_ = after_all;
        return end;
    }
    if (executed == cap) {
        // Crossed the runaway threshold: spend the rest of this cycle
        // after the slaves have run; the kill comes next cycle.
        work->finishCycle = true;
        return start + cyclesToAttempt(master_budget_, ipc, executed);
    }

    // In front of a FORK that spawns (or faults), in the cycle of the
    // next attempt; the attempt itself is not made yet.
    Cycle cycles = cyclesToAttempt(master_budget_, ipc, executed + 1);
    master_budget_ += 1.0;
    if (window_.size() < cfg_.maxInFlightTasks ||
        !master_.nextForkWouldSpawn()) {
        work->finishCycle = true;
        return start + cycles;
    }
    // Full window: the master stalls from this cycle on.
    ++ctrs_.masterStallWindowFull;
    master_budget_ = 0.0;
    stallMaster(start + cycles, end);
    return end;
}

void
MsspMachine::stallMaster(Cycle from, Cycle end)
{
    // The stall repeats in every cycle the master's budget comes
    // around (every cycle at masterIpc >= 1).
    for (Cycle c = from; c < end; ++c) {
        master_budget_ += cfg_.masterIpc;
        if (master_budget_ >= 1.0) {
            ++ctrs_.masterStallWindowFull;
            master_budget_ = 0.0;
        }
    }
}

void
MsspMachine::spendMasterBudget()
{
    while (master_budget_ >= 1.0 && master_.running()) {
        if (!master_.atFork()) {
            auto avail = static_cast<uint64_t>(master_budget_);
            uint64_t executed = 0;
            MasterStep st = master_.runSlice(avail, &executed);
            master_budget_ -= static_cast<double>(executed);
            ctrs_.masterInsts += executed;
            if (st == MasterStep::Halted) {
                if (Task *prev = youngest(); prev && !prev->endKnown)
                    prev->runToHalt = true;
                return;
            }
            if (st == MasterStep::Faulted)
                return;
            continue;  // in front of a spawning FORK, or budget drained
        }
        // Cheap capacity test first: the fork-site peek only matters
        // when the window is actually full.
        if (window_.size() >= cfg_.maxInFlightTasks &&
            master_.nextForkWouldSpawn()) {
            ++ctrs_.masterStallWindowFull;
            master_budget_ = 0.0;
            return;
        }
        master_budget_ -= 1.0;

        MasterCore::ForkInfo &fi = fork_info_;
        MasterStep st = master_.step(&fi);
        if (st != MasterStep::Faulted)
            ++ctrs_.masterInsts;

        switch (st) {
          case MasterStep::WantsFork: {
            master_insts_at_last_fork_ = master_.instsSinceRestart();
            if (Task *prev = youngest(); prev && !prev->endKnown) {
                prev->endKnown = true;
                prev->endPc = fi.origPc;
                prev->endVisits = fi.endVisitsForPrev;
            }
            std::unique_ptr<Task> task = allocTask();
            task->id = next_task_id_++;
            task->startPc = fi.origPc;
            // Swap, not copy: the recycled task's cleared checkpoint
            // hands its diff storage to the next snapshot.
            std::swap(task->checkpoint, fi.checkpoint);
            if (injector_)
                injector_->corruptCheckpoint(task->checkpoint);
            checkpoint_dist_.sample(
                static_cast<double>(task->checkpoint.size()));
            Task *raw = task.get();
            window_.push_back(std::move(task));
            ++ctrs_.tasksForked;
            ++site_stats_[fi.origPc].forked;
            if (injector_ && injector_->dropSpawn()) {
                // Lost on the interconnect: the task sits in the
                // window forever undelivered; the watchdog squash
                // recovers it.
                break;
            }
            Cycle transit = cfg_.forkLatency;
            if (injector_)
                transit += injector_->spawnDelay();
            spawn_queue_.push_back({now_ + transit, raw});
            break;
          }
          case MasterStep::Halted: {
            if (Task *prev = youngest(); prev && !prev->endKnown)
                prev->runToHalt = true;
            return;
          }
          case MasterStep::Faulted:
            // The distilled program went off the rails; in-flight
            // tasks may still commit, and the watchdog recovers the
            // rest. Correctness is unaffected.
            return;
          case MasterStep::Executed:
            break;
        }
    }
}

Cycle
MsspMachine::advanceSeq(Cycle end)
{
    const Cycle start = now_;
    SeqArchContext ctx(arch_, device_, outputs_);

    // Per-step obligations (instret, backoff countdowns, the
    // re-engage check) ride the engine hook, so sequential fallback
    // runs on the configured tier too (hooked: blockjit resolves to
    // threaded).
    struct SeqHook
    {
        MsspMachine &m;
        bool engage = false;

        bool preStep(uint32_t, const Instruction &) { return true; }

        StepVerdict postStep(uint32_t, StepResult &res)
        {
            m.arch_.addInstret(1);
            ++m.ctrs_.seqModeInsts;
            if (res.status == StepStatus::Halted)
                return StepVerdict::Stop;
            if (m.seq_insts_remaining_ > 0)
                --m.seq_insts_remaining_;
            if (m.force_seq_insts_ > 0)
                --m.force_seq_insts_;
            if (m.seq_insts_remaining_ == 0 &&
                m.force_seq_insts_ == 0 &&
                m.dist_.entryMap.count(res.nextPc)) {
                engage = true;
                return StepVerdict::Stop;
            }
            return StepVerdict::Continue;
        }
    };

    // One slice for the whole quantum; it stops early only at a halt,
    // a fault or a chance to re-engage the master.
    const double ipc = cfg_.slaveIpc;
    double after_all = seq_budget_;
    const uint64_t offered = drainCycles(after_all, ipc, end - start);
    SeqHook hook{*this};
    EngineResult er =
        runOnBackend(resolveHookedBackend(cfg_.execBackend), orig_decode_,
                     arch_.pc(), offered, ctx, nullptr, hook);
    arch_.setPc(er.pc);
    const bool illegal = er.status == StepStatus::Illegal;
    if (!illegal && er.status != StepStatus::Halted && !hook.engage) {
        seq_budget_ = after_all;
        ctrs_.seqModeCycles += end - start;
        return end;
    }
    // The budget counts attempts: a faulting one consumed a slot.
    Cycle cycles = cyclesToAttempt(seq_budget_, ipc,
                                   er.retired + (illegal ? 1 : 0));
    ctrs_.seqModeCycles += cycles;
    now_ = start + cycles - 1;
    if (illegal)
        faulted_ = true;
    else if (er.status == StepStatus::Halted)
        halted_ = true;
    else
        engageMaster();
    return start + cycles;
}

void
MsspMachine::checkWatchdog()
{
    if (mode_ != Mode::Spec)
        return;
    if (now_ - last_commit_cycle_ > cfg_.watchdogCycles) {
        ++ctrs_.watchdogSquashes;
        ++consecutive_watchdog_;
        bool escalate =
            consecutive_watchdog_ > cfg_.watchdogEscalateAfter;
        squash(TaskOutcome::SquashedOverrun);
        if (escalate && seq_insts_remaining_ == 0) {
            // This many firings without one commit in between means
            // re-trying speculation is burning watchdogCycles per
            // attempt; force the sequential fallback now. (Skipped
            // when squash()'s own engage-failure accounting already
            // scheduled a backoff — no double-doubling.)
            ++ctrs_.watchdogEscalations;
            seq_backoff_ = std::min(
                std::max(seq_backoff_ * 2, cfg_.seqBackoffInsts),
                cfg_.maxSeqBackoffInsts);
            seq_insts_remaining_ = seq_backoff_;
        }
    }
}

MsspResult
MsspMachine::run(uint64_t max_cycles)
{
    // Job supervision (sim/supervisor.hh): polled every 1024 cycles
    // at the top of the loop — a consistent point (every poll cycle is
    // a quantum boundary), so a budget trip throws with all
    // speculative and architected state intact (the machine can be
    // inspected or resumed). Unsupervised runs pay one null test per
    // quantum.
    Supervision *sup = currentSupervision();
    uint64_t sup_exec = 0;
    uint64_t sup_commit = 0;
    if (sup) {
        sup_exec = ctrs_.masterInsts + ctrs_.slaveInsts +
                   ctrs_.seqModeInsts;
        sup_commit = arch_.instret();
    }
    // Each iteration does what happens at the top of cycle now_, then
    // advances every core to the horizon in one quantum (runQuantum).
    // The per-cycle schedule is the horizon-1 case of the same loop.
    while (now_ < max_cycles && !halted_ && !faulted_) {
        if (sup && (now_ & 1023) == 0) {
            sup->checkOrThrow();
            uint64_t exec = ctrs_.masterInsts + ctrs_.slaveInsts +
                            ctrs_.seqModeInsts;
            uint64_t commit = arch_.instret();
            sup->consume(exec - sup_exec, commit - sup_commit);
            sup_exec = exec;
            sup_commit = commit;
        }
        // Fork delivery (in transit for forkLatency cycles; FIFO by
        // construction since the latency is fixed).
        while (!spawn_queue_.empty() && spawn_queue_.front().due <= now_) {
            arrived_.push_back(spawn_queue_.front().task);
            spawn_queue_.pop_front();
        }
        if (mode_ == Mode::Restarting && now_ >= restart_at_)
            engageMaster();
        // At most one commit per cycle; the common cases (empty
        // window, head task still running) cost a branch.
        if (!window_.empty() && window_.front()->done() &&
            now_ >= commitCycle()) {
            tickCommit();
            if (halted_ || faulted_)
                break;
        }
        if (!arrived_.empty())
            tickSpawnDelivery();
        if (!injector_) {
            runQuantum(quantumEnd(max_cycles, sup != nullptr));
            continue;
        }
        // Per-cycle faults due now apply at the start of the quantum;
        // its opportunities are charged to the streams at its end.
        injectFaults();
        const Cycle start = now_;
        const bool master_draws = masterDraws();
        runQuantum(quantumEnd(max_cycles, sup != nullptr));
        chargeFaults(master_draws ? now_ - start : 0);
    }

    // Lifetime totals of the slaves: assigned, not added, so a run
    // resumed after a cycle limit or a budget trip counts them once.
    ctrs_.l1Hits = ctrs_.l1Misses = 0;
    ctrs_.slaveArchStallCycles = ctrs_.slavePauseCycles = 0;
    ctrs_.slaveIdleCycles = 0;
    for (const auto &slave : slaves_) {
        if (const Cache *l1 = slave.l1()) {
            ctrs_.l1Hits += l1->hits();
            ctrs_.l1Misses += l1->misses();
        }
        ctrs_.slaveArchStallCycles += slave.archStallCycles();
        ctrs_.slavePauseCycles += slave.pauseCycles();
        ctrs_.slaveIdleCycles += slave.idleCycles();
    }

    MsspResult result;
    result.halted = halted_;
    result.faulted = faulted_;
    result.timedOut = !halted_ && !faulted_;
    if (halted_) {
        result.stopReason = StopReason::Halted;
    } else if (faulted_) {
        result.stopReason = StopReason::Faulted;
    } else if (consecutive_watchdog_ > cfg_.watchdogEscalateAfter) {
        // Ran out the clock mid watchdog storm: the cycle budget, not
        // the recovery machinery, was exhausted.
        result.stopReason = StopReason::WatchdogExhausted;
    } else {
        result.stopReason = StopReason::TimedOut;
    }
    result.cycles = now_;
    result.committedInsts = arch_.instret();
    result.outputs = outputs_;
    result.siteStats = site_stats_;
    return result;
}

double
MsspMachine::meanTaskSize() const
{
    return task_size_dist_.mean();
}

void
MsspMachine::dumpStats(std::ostream &os) const
{
    const MsspCounters &c = ctrs_;
    auto row = [&](const char *name, uint64_t v, const char *desc) {
        os << strfmt("mssp.%-28s %12llu  # %s\n", name,
                     static_cast<unsigned long long>(v), desc);
    };
    row("tasksForked", c.tasksForked, "tasks spawned by the master");
    row("tasksCommitted", c.tasksCommitted, "tasks committed");
    row("tasksSquashedLiveIn", c.tasksSquashedLiveIn,
        "head squashes: live-in mismatch");
    row("tasksSquashedWrongPc", c.tasksSquashedWrongPc,
        "head squashes: start-PC mismatch");
    row("tasksSquashedOverrun", c.tasksSquashedOverrun,
        "head squashes: runaway task");
    row("tasksSquashedCascade", c.tasksSquashedCascade,
        "younger tasks discarded on squash");
    row("squashEvents", c.squashEvents, "squash events");
    row("watchdogSquashes", c.watchdogSquashes,
        "squashes forced by the watchdog");
    row("masterInsts", c.masterInsts,
        "distilled instructions executed");
    row("masterForkInsts", c.masterForkInsts,
        "FORKs the master executed, spawning or not");
    row("slaveInsts", c.slaveInsts,
        "original instructions executed on slaves");
    row("wastedSlaveInsts", c.wastedSlaveInsts,
        "slave instructions discarded by squashes");
    row("seqModeInsts", c.seqModeInsts,
        "instructions executed in sequential fallback");
    row("seqModeCycles", c.seqModeCycles,
        "cycles spent in sequential fallback");
    row("masterStallWindowFull", c.masterStallWindowFull,
        "cycles the master stalled on a full task window");
    row("liveInCellsChecked", c.liveInCellsChecked,
        "live-in cells verified at commit");
    row("liveInCellsMismatched", c.liveInCellsMismatched,
        "live-in cells that mismatched");
    row("archReads", c.archReads,
        "slave reads satisfied from architected state");
    row("seqBackoffEvents", c.seqBackoffEvents,
        "sequential-backoff episodes");
    row("seqBackoffDecays", c.seqBackoffDecays,
        "commits that decayed an active backoff");
    row("tasksSquashedSpurious", c.tasksSquashedSpurious,
        "head squashes: injected spurious squash");
    row("watchdogEscalations", c.watchdogEscalations,
        "watchdog firings escalated to Seq mode");
    row("masterRunawayKills", c.masterRunawayKills,
        "masters stopped by the runaway kill-switch");
    row("masterDeadRestarts", c.masterDeadRestarts,
        "fast restarts of a dead master");
    row("mmioSerializations", c.mmioSerializations,
        "device accesses serialized non-speculatively");
    row("l1Hits", c.l1Hits, "slave L1 hits on read-throughs");
    row("l1Misses", c.l1Misses, "slave L1 misses on read-throughs");
    if (injector_)
        injector_->dump(os);
    stats_root_.dump(os);
}

RecoveryReport
MsspMachine::recoveryReport() const
{
    RecoveryReport r;
    r.squashEvents = ctrs_.squashEvents;
    r.watchdogSquashes = ctrs_.watchdogSquashes;
    r.watchdogEscalations = ctrs_.watchdogEscalations;
    r.masterRunawayKills = ctrs_.masterRunawayKills;
    r.masterDeadRestarts = ctrs_.masterDeadRestarts;
    r.spuriousSquashes = ctrs_.tasksSquashedSpurious;
    r.seqBackoffEvents = ctrs_.seqBackoffEvents;
    r.seqBackoffDecays = ctrs_.seqBackoffDecays;
    r.currentSeqBackoff = seq_backoff_;
    r.seqModeInsts = ctrs_.seqModeInsts;
    r.faultsInjected =
        injector_ ? injector_->counters().total() : 0;
    return r;
}

std::string
RecoveryReport::toString() const
{
    std::string s;
    auto row = [&](const char *name, uint64_t v) {
        s += strfmt("  %-22s %llu\n", name,
                    static_cast<unsigned long long>(v));
    };
    row("squashEvents", squashEvents);
    row("watchdogSquashes", watchdogSquashes);
    row("watchdogEscalations", watchdogEscalations);
    row("masterRunawayKills", masterRunawayKills);
    row("masterDeadRestarts", masterDeadRestarts);
    row("spuriousSquashes", spuriousSquashes);
    row("seqBackoffEvents", seqBackoffEvents);
    row("seqBackoffDecays", seqBackoffDecays);
    row("currentSeqBackoff", currentSeqBackoff);
    row("seqModeInsts", seqModeInsts);
    row("faultsInjected", faultsInjected);
    return s;
}

} // namespace mssp
