/**
 * @file
 * Abstract interpretation of μRISC programs.
 *
 * Three composable domains over the shared dataflow solver
 * (DESIGN.md §5.2):
 *
 *  - Constants: a register provably holds one value (a degenerate
 *    interval). Constant-constant transfers delegate to evalAlu(),
 *    so the abstract semantics can never disagree with the executor.
 *  - Intervals: signed [lo, hi] ranges with widening at repeatedly
 *    visited nodes (the solver's refineMeet hook), which is what
 *    makes loop-carried induction variables converge.
 *  - Store interference: every reachable store's abstract address
 *    range, queried to decide whether a memory word the distiller
 *    baked into the image can ever be overwritten (the alias
 *    question behind value speculation and silent-store elision).
 *
 * The program-level fixpoint runs twice: round one treats every load
 * as unknown and yields a sound store summary; round two uses that
 * summary to refine loads from provably never-written addresses to
 * the image value. Since the round-one summary over-approximates the
 * final one, the refinement is sound.
 *
 * The entry state leaves every register unknown (r0 excepted), so
 * block in-states over-approximate every sequentially reachable
 * state at that point — in particular every architected state a
 * master restart can occur in, which is what the semantic
 * translation validator (verifier.hh) needs.
 */

#ifndef MSSP_ANALYSIS_ABSINT_HH
#define MSSP_ANALYSIS_ABSINT_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cfg/cfg.hh"

namespace mssp::analysis
{

/** Three-valued truth for abstract branch decisions. */
enum class TriState : uint8_t
{
    False,
    True,
    Unknown,
};

/** Negation that keeps Unknown. */
constexpr TriState
triNot(TriState t)
{
    switch (t) {
      case TriState::False: return TriState::True;
      case TriState::True: return TriState::False;
      case TriState::Unknown: break;
    }
    return TriState::Unknown;
}

/**
 * One abstract 32-bit value: a signed interval [lo, hi] over the
 * int32 range, kept in int64 so arithmetic cannot wrap before the
 * overflow check. lo > hi encodes bottom (no concrete value);
 * constants are degenerate intervals.
 */
struct AbsVal
{
    static constexpr int64_t kMin = INT32_MIN;
    static constexpr int64_t kMax = INT32_MAX;

    int64_t lo = kMin;
    int64_t hi = kMax;

    bool operator==(const AbsVal &) const = default;

    static AbsVal top() { return {}; }
    static AbsVal bottom() { return {0, -1}; }

    static AbsVal
    constant(uint32_t v)
    {
        auto s = static_cast<int64_t>(static_cast<int32_t>(v));
        return {s, s};
    }

    /** [lo, hi], clamped to the int32 range. */
    static AbsVal
    range(int64_t lo, int64_t hi)
    {
        if (lo > hi)
            return bottom();
        if (lo < kMin || hi > kMax)
            return top();
        return {lo, hi};
    }

    bool isBottom() const { return lo > hi; }
    bool isTop() const { return lo == kMin && hi == kMax; }
    bool isConst() const { return lo == hi; }

    /** The constant, as the executor's uint32 representation. */
    uint32_t cval() const { return static_cast<uint32_t>(lo); }

    bool
    contains(uint32_t v) const
    {
        auto s = static_cast<int64_t>(static_cast<int32_t>(v));
        return lo <= s && s <= hi;
    }

    /** Least upper bound. */
    AbsVal
    join(const AbsVal &o) const
    {
        if (isBottom())
            return o;
        if (o.isBottom())
            return *this;
        return {std::min(lo, o.lo), std::max(hi, o.hi)};
    }

    /** Standard interval widening: bounds still moving after the
     *  widening delay jump straight to the int32 extreme. */
    AbsVal
    widen(const AbsVal &next) const
    {
        if (isBottom())
            return next;
        if (next.isBottom())
            return *this;
        return {next.lo < lo ? kMin : lo, next.hi > hi ? kMax : hi};
    }

    /** "[12, 40]" / "0x2a" / "unknown" / "none". */
    std::string toString() const;
};

/** Abstract machine state: one interval per register, plus a
 *  reachability bit (an unreachable state is the join identity). */
struct AbsState
{
    bool reachable = false;
    std::array<AbsVal, NumRegs> regs{};

    bool operator==(const AbsState &) const = default;

    /** Reachable state with every register unknown (r0 = 0). */
    static AbsState
    entry()
    {
        AbsState st;
        st.reachable = true;
        for (AbsVal &v : st.regs)
            v = AbsVal::top();
        st.regs[0] = AbsVal::constant(0);
        return st;
    }

    const AbsVal &
    reg(unsigned r) const
    {
        return regs[r];
    }

    void
    setReg(unsigned r, const AbsVal &v)
    {
        if (r != 0)
            regs[r] = v;
    }
};

/** One reachable store site with its abstract address and value. */
struct StoreSite
{
    uint32_t pc = 0;
    AbsVal addr;
    AbsVal value;
};

/** The store-interference domain: may any store write @p addr? */
struct StoreSummary
{
    std::vector<StoreSite> sites;

    /** Store that may write @p addr (excluding @p ignore_pc), or
     *  null when the address is provably never written. */
    const StoreSite *
    interferer(uint32_t addr, uint32_t ignore_pc = UINT32_MAX) const
    {
        for (const StoreSite &s : sites) {
            if (s.pc != ignore_pc && s.addr.contains(addr))
                return &s;
        }
        return nullptr;
    }

    bool
    mayWrite(uint32_t addr, uint32_t ignore_pc = UINT32_MAX) const
    {
        return interferer(addr, ignore_pc) != nullptr;
    }
};

/** Everything absint can say about one original program. */
struct AbsintResult
{
    /** In-state at each block leader (bottom when unreachable). */
    std::map<uint32_t, AbsState> blockIn;

    StoreSummary stores;

    /** Abstract outcome of each conditional branch, keyed by the
     *  branch PC (the block's last instruction). */
    std::map<uint32_t, TriState> branchDecision;

    /** Block leaders reachable from the entry when every *decided*
     *  branch edge is pruned (proven-unreachable = not in here). */
    std::set<uint32_t> reachable;

    unsigned sweepsRound1 = 0;
    unsigned sweepsRound2 = 0;
};

/**
 * Abstractly execute one instruction's register effects on @p st.
 * Control flow is ignored (the caller owns it); loads are refined
 * through @p stores and @p image when both are non-null.
 */
void absStep(uint32_t pc, const Instruction &inst, AbsState &st,
             const Program *image, const StoreSummary *stores);

/** Abstract branch outcome from its two operand values. */
TriState absBranch(Opcode op, const AbsVal &a, const AbsVal &b);

/** Abstract address of a load/store: rs1 + sign-extended imm. */
AbsVal absMemAddr(const AbsState &st, const Instruction &inst);

/** The block containing @p pc (not just leading at it), or null. */
const BasicBlock *containingBlock(const Cfg &cfg, uint32_t pc);

/**
 * Two-round global fixpoint over @p cfg (see file comment).
 * @p prog supplies the initial memory image for load refinement.
 *
 * @p rootBoundary optionally seeds specific roots (keyed by block
 * pc) with a tighter boundary state than the default all-unknown
 * AbsState::entry(). The speculation-safety analysis uses this to
 * bound master restart points by the sequential original program's
 * in-state at the corresponding pc (loadfacts.hh); callers own the
 * soundness argument for any state they seed.
 */
AbsintResult
analyzeProgram(const Program &prog, const Cfg &cfg,
               const std::map<uint32_t, AbsState> *rootBoundary =
                   nullptr);

/**
 * Abstract state just *before* the instruction at @p pc: the
 * containing block's in-state pushed forward through the block.
 * Returns an unreachable state when @p pc is in no block.
 */
AbsState stateBefore(const AbsintResult &res, const Cfg &cfg,
                     const Program &prog, uint32_t pc);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_ABSINT_HH
