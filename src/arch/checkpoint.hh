/**
 * @file
 * Master checkpoints as tasks see them.
 *
 * A checkpoint is the master's write-delta at a spawning FORK: the
 * cells where its speculative state differs from architected state
 * (PAPER.md §2). The master's delta holds hundreds of cells while only
 * a few change between two spawns, so a checkpoint is stored as an
 * immutable base shared by every task forked since the master last
 * re-based, plus this spawn's own small diff: the memory cells the
 * master wrote since that base, and its dirty registers (a register
 * file and a mask, so they copy as one block and look up without a
 * probe). Lookups read the diff, then the base; the flat state they
 * describe is base ← diff, which flatten() materializes for the fault
 * injector and for tests.
 */

#ifndef MSSP_ARCH_CHECKPOINT_HH
#define MSSP_ARCH_CHECKPOINT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "arch/state_delta.hh"

namespace mssp
{

/** A shared base plus a per-spawn diff (see file comment). */
class Checkpoint
{
  public:
    Checkpoint() = default;

    /** A checkpoint holding exactly @p flat (no diff). */
    explicit Checkpoint(StateDelta flat)
    {
        size_ = flat.size();
        if (!flat.empty())
            base_ = std::make_shared<const StateDelta>(std::move(flat));
    }

    /** @return the predicted value of @p cell, if any. */
    std::optional<uint32_t>
    get(CellId cell) const
    {
        // Register cells are their index (kind bits zero).
        if (cell < NumRegs && (reg_mask_ >> cell & 1))
            return regs_[cell];
        if (auto v = diff_.get(cell))
            return v;
        if (base_)
            return base_->get(cell);
        return std::nullopt;
    }

    /** Bindings of the flat state (base ← diff). */
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Materialize the flat state base ← diff. */
    StateDelta
    flatten() const
    {
        StateDelta flat = base_ ? *base_ : StateDelta{};
        flat.superimpose(diff_);
        for (unsigned r = 0; r < NumRegs; ++r) {
            if (reg_mask_ >> r & 1)
                flat.set(makeRegCell(r), regs_[r]);
        }
        return flat;
    }

    /** Drop every binding (the diff keeps its capacity for reuse). */
    void
    clear()
    {
        base_.reset();
        diff_.clear();
        reg_mask_ = 0;
        size_ = 0;
    }

    /**
     * Start a snapshot over @p base whose diff holds the registers of
     * @p regs selected by @p reg_mask and no memory cells yet, for a
     * producer that fills the memory diff through the returned
     * reference next and knows the flat size @p size of base ← diff
     * up front (the master does: it is its deltaSize()).
     */
    StateDelta &
    rebuild(std::shared_ptr<const StateDelta> base,
            const std::array<uint32_t, NumRegs> &regs, uint32_t reg_mask,
            size_t size)
    {
        base_ = std::move(base);
        diff_.clear();
        regs_ = regs;
        reg_mask_ = reg_mask;
        size_ = size;
        return diff_;
    }

    const std::shared_ptr<const StateDelta> &base() const { return base_; }

  private:
    std::shared_ptr<const StateDelta> base_;   ///< shared, may be null
    StateDelta diff_;    ///< memory cells over base_, owned here
    std::array<uint32_t, NumRegs> regs_{};   ///< valid under reg_mask_
    uint32_t reg_mask_ = 0;   ///< bit r: register r is in the diff
    size_t size_ = 0;    ///< bindings of the flat state
};

} // namespace mssp

#endif // MSSP_ARCH_CHECKPOINT_HH
