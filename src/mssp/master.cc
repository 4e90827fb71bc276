#include "mssp/master.hh"

#include "exec/blockjit.hh"
#include "sim/logging.hh"

namespace mssp
{

MasterStep
MasterCore::runSlice(uint64_t max_steps, uint64_t *executed)
{
    MSSP_ASSERT(running());
    *executed = 0;
    for (;;) {
        SliceHook hook{*this};
        EngineResult er = runOnBackend(backend_, decode_, pc_,
                                       max_steps - *executed, *this,
                                       nullptr, hook);
        pc_ = er.pc;
        total_insts_ += er.retired;
        insts_since_restart_ += er.retired;
        *executed += er.retired;
        if (hook.translationFault || er.status == StepStatus::Illegal) {
            faulted_ = true;
            return MasterStep::Faulted;
        }
        if (er.status == StepStatus::Halted) {
            halted_ = true;
            return MasterStep::Halted;
        }
        // The engine stops in front of every FORK (the hook stays a
        // single compare, so the tier inlines the instruction
        // semantics); run through the ones that do not spawn.
        if (*executed == max_steps || !passFork(decode_.at(pc_)))
            return MasterStep::Executed;  // budget out, or spawn ahead
        pc_ += 1;
        ++total_insts_;
        ++insts_since_restart_;
        ++*executed;
    }
}

bool
MasterCore::passFork(const Instruction &inst)
{
    auto idx = static_cast<uint32_t>(inst.imm);
    if (first_fork_pending_ || idx >= dist_.taskMap.size())
        return false;
    uint32_t orig_pc = dist_.taskMap[idx];
    uint32_t *arrivals = findSiteArrivals(orig_pc);
    if ((arrivals ? *arrivals : 0) + 1 >= requiredArrivals(idx))
        return false;
    if (arrivals)
        ++*arrivals;
    else
        site_arrivals_.push_back({orig_pc, 1});
    ++fork_insts_;
    return true;
}

bool
MasterCore::restart(uint32_t orig_pc)
{
    uint32_t dist_pc = dist_.distilledPcFor(orig_pc);
    if (dist_pc == UINT32_MAX)
        return false;
    pc_ = dist_pc;
    for (unsigned r = 0; r < NumRegs; ++r)
        regs_[r] = arch_.readReg(r);
    delta_.clear();
    since_base_.clear();
    base_.reset();
    dirty_regs_ = 0;
    site_arrivals_.clear();
    insts_since_restart_ = 0;
    running_ = true;
    halted_ = false;
    faulted_ = false;
    first_fork_pending_ = true;
    return true;
}

bool
MasterCore::nextForkWouldSpawn()
{
    if (!running())
        return false;
    const Instruction &inst = decode_.at(pc_);
    if (inst.op != Opcode::Fork)
        return false;
    if (first_fork_pending_)
        return true;
    auto idx = static_cast<uint32_t>(inst.imm);
    if (idx >= dist_.taskMap.size())
        return false;   // corrupt fork: step() will fault
    uint32_t orig_pc = dist_.taskMap[idx];
    uint32_t required = requiredArrivals(idx);
    return siteArrivals(orig_pc) + 1 >= required;
}

uint32_t
MasterCore::requiredArrivals(uint32_t task_map_index) const
{
    uint32_t site_interval =
        task_map_index < dist_.taskIntervals.size()
            ? dist_.taskIntervals[task_map_index]
            : 1;
    if (site_interval == 0)
        site_interval = 1;
    return site_interval * fork_interval_;
}

MasterStep
MasterCore::stepFork(const Instruction &inst, ForkInfo *fork_out)
{
    auto idx = static_cast<uint32_t>(inst.imm);
    if (idx >= dist_.taskMap.size()) {
        // Corrupt distilled program; the master just faults.
        faulted_ = true;
        return MasterStep::Faulted;
    }
    ++total_insts_;
    ++insts_since_restart_;
    pc_ += 1;
    if (passFork(inst))
        return MasterStep::Executed;

    // This arrival spawns the next task.
    ++fork_insts_;
    uint32_t orig_pc = dist_.taskMap[idx];
    MSSP_ASSERT(fork_out != nullptr);
    fork_out->origPc = orig_pc;
    fork_out->endVisitsForPrev = siteArrivals(orig_pc) + 1;
    snapshotCheckpoint(fork_out->checkpoint);
    site_arrivals_.clear();
    first_fork_pending_ = false;
    return MasterStep::WantsFork;
}

bool
MasterCore::translateJalr(StepResult &res)
{
    // Indirect jumps may target *original* code addresses (a return
    // address seeded from architected state after a restart, or
    // reloaded from a committed stack slot): translate through the
    // distiller's address map, as a dynamic binary translator would.
    auto it = dist_.addrMap.find(res.nextPc);
    if (it == dist_.addrMap.end())
        return false;
    res.nextPc = it->second;
    return true;
}

namespace
{

// Re-base once the cells written since the base exceed 1/RebaseShare
// of the delta (and RebaseMinCells, so a small delta is never copied
// whole at every spawn). Each spawn then copies at most about
// delta/RebaseShare cells plus the dirty registers, and a re-base
// copies the whole delta once every many spawns.
constexpr size_t RebaseShare = 16;
constexpr size_t RebaseMinCells = 32;

} // anonymous namespace

void
MasterCore::snapshotCheckpoint(Checkpoint &out)
{
    if (since_base_.size() > RebaseMinCells &&
        since_base_.size() * RebaseShare > delta_.size()) {
        base_ = std::make_shared<const StateDelta>(delta_);
        since_base_.clear();
        cells_copied_ += delta_.size();
    }
    StateDelta &diff =
        out.rebuild(base_, regs_, dirty_regs_, deltaSize());
    for (const auto &[cell, value] : since_base_)
        diff.set(cell, value);
    cells_copied_ += since_base_.size() +
        static_cast<size_t>(__builtin_popcount(dirty_regs_));
}

void
MasterCore::sweepDeltaAgainstArch(size_t max_cells)
{
    if (deltaSize() <= max_cells)
        return;
    // Registers: clearing the dirty bit is sound because regs_ keeps
    // the value, which equals architected state by construction.
    uint32_t dirty = dirty_regs_;
    while (dirty) {
        unsigned r = static_cast<unsigned>(__builtin_ctz(dirty));
        dirty &= dirty - 1;
        if (arch_.readReg(r) == regs_[r])
            dirty_regs_ &= ~(1u << r);
    }
    std::vector<CellId> drop;
    for (const auto &[cell, value] : delta_) {
        if (arch_.readCell(cell) == value)
            drop.push_back(cell);
    }
    if (drop.empty())
        return;
    for (CellId cell : drop)
        delta_.erase(cell);
    // The base still holds the dropped cells: start over without one.
    base_.reset();
    since_base_ = delta_;
}

} // namespace mssp
