/**
 * @file
 * Flow-sensitive store-set / alias analysis over μRISC images.
 *
 * Built on the absint interval domain (analysis/absint.hh): every
 * reachable load and store is resolved to an abstract address
 * interval by pushing the block in-states through the block, giving
 * per-site may-sets (the interval) and must-sets (a degenerate
 * interval). On top of the address sets the analysis computes a
 * *fork-region* membership mask per access: a forward dataflow that
 * tracks which FORK instruction started the region an instruction
 * executes in, so clients can ask whether a load and a store can ever
 * share a dynamic inter-fork span. The speculation-safety classifier
 * (analysis/loadfacts.hh) is the primary consumer: a load with no
 * aliasing store at all is provably invariant; one whose aliasing
 * stores all live in *other* regions is invariant between fork
 * boundaries (DESIGN.md §5.3).
 *
 * Region soundness: every dynamic instruction is labelled by the fork
 * site that most recently executed (bit 0 = no fork yet, bit i+1 =
 * fork site i; indices past the mask width saturate into a shared
 * overflow bit). The static mask of an instruction joins the labels
 * of every abstract path reaching it, so two accesses whose masks are
 * disjoint can never execute in the same dynamic region. Blocks that
 * are discovery roots without any CFG predecessor (indirect-jump
 * landing pads: call continuations, restart points) conservatively
 * start in *every* region.
 */

#ifndef MSSP_ANALYSIS_ALIAS_HH
#define MSSP_ANALYSIS_ALIAS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/absint.hh"

namespace mssp::analysis
{

/** Fork-region membership mask: bit 0 = the pre-fork entry region,
 *  bit i+1 = the region started by fork site i, top bit = overflow
 *  (fork indices too large to track individually). */
using RegionMask = uint64_t;

constexpr RegionMask RegionEntry = 1ull << 0;
constexpr RegionMask RegionOverflow = 1ull << 63;
constexpr RegionMask RegionAll = ~0ull;

/** The region bit of fork site @p index (saturating). */
constexpr RegionMask
regionBitOf(uint32_t index)
{
    return index + 1 >= 63 ? RegionOverflow : 1ull << (index + 1);
}

/** True when two accesses can execute in the same dynamic region. */
constexpr bool
regionsIntersect(RegionMask a, RegionMask b)
{
    return (a & b) != 0;
}

/** One reachable memory access with its abstract address sets. */
struct MemAccess
{
    uint32_t pc = 0;
    bool isStore = false;
    /** May-set: every address the access can touch. A degenerate
     *  (constant) interval is also the must-set. */
    AbsVal addr;
    /** Stored value (stores only). */
    AbsVal value;
    /** Leader of the containing basic block. */
    uint32_t block = 0;
    /** Fork regions this access can execute in. */
    RegionMask regions = RegionEntry;

    /** True when the address is exactly known (must-access). */
    bool isMust() const { return addr.isConst(); }

    /** May this access touch @p a? */
    bool mayTouch(uint32_t a) const { return addr.contains(a); }

    /** May this access overlap @p other's address set? */
    bool
    overlaps(const AbsVal &other) const
    {
        if (addr.isBottom() || other.isBottom())
            return false;
        return addr.lo <= other.hi && other.lo <= addr.hi;
    }
};

/** Joined write effect of one fork region. */
struct RegionWriteSummary
{
    /** Join of every member store's address interval (bottom when the
     *  region stores nothing). */
    AbsVal span = AbsVal::bottom();
    size_t storeCount = 0;
    std::vector<uint32_t> storePcs;
};

/** Everything the alias analysis can say about one program. */
struct AliasResult
{
    /** All reachable loads / stores, ascending by PC. */
    std::vector<MemAccess> loads;
    std::vector<MemAccess> stores;

    /** forkPcs[i] = PC of the FORK instruction naming task-map index
     *  i (region bit i+1); UINT32_MAX when not in the analyzed code. */
    std::vector<uint32_t> forkPcs;

    /** True when fork indices saturated into the overflow bit. */
    bool regionOverflow = false;

    /** Region-mask in-state per block leader (diagnostics). */
    std::map<uint32_t, RegionMask> blockRegions;

    /** Memory-dependence summary per region bit (index = bit). */
    std::map<unsigned, RegionWriteSummary> regionWrites;

    /**
     * First store whose may-set contains the constant address @p a
     * (excluding @p ignore_pc), or null when no store can write it.
     */
    const MemAccess *
    interferingStore(uint32_t a, uint32_t ignore_pc = UINT32_MAX) const
    {
        for (const MemAccess &s : stores) {
            if (s.pc != ignore_pc && s.mayTouch(a))
                return &s;
        }
        return nullptr;
    }

    /** All stores whose may-set contains @p a. */
    std::vector<const MemAccess *>
    interferingStores(uint32_t a) const
    {
        std::vector<const MemAccess *> out;
        for (const MemAccess &s : stores) {
            if (s.mayTouch(a))
                out.push_back(&s);
        }
        return out;
    }
};

/**
 * Run the alias analysis over @p prog restricted to @p cfg, reusing
 * an existing abstract-interpretation result @p ai for address
 * resolution (the caller already paid for the fixpoint).
 */
AliasResult analyzeAliases(const Program &prog, const Cfg &cfg,
                           const AbsintResult &ai);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_ALIAS_HH
