/**
 * @file
 * Deterministic, seeded fault injection for the MSSP machine.
 *
 * The paper's central robustness claim is that the distilled program
 * is *only a performance hint*: arbitrary corruption of the master,
 * its checkpoints, or the task-delivery fabric must be caught by the
 * verify/commit unit, with the sequential fallback guaranteeing
 * forward progress. This layer makes that claim executable. A
 * FaultInjector holds a set of FaultPlans (type x rate x seed x
 * target); the MsspMachine consults it at well-defined hook points
 * (fork, spawn delivery, commit, and the start of every cycle in
 * which the master or a slave can be hit) and applies exactly the
 * corruption the injector grants. All randomness flows through
 * sim/rng.hh, so a (plan, workload, config) triple replays
 * bit-identically.
 *
 * Two kinds of draw keep that replay exact under quantum scheduling
 * (DESIGN.md §6.4, §8). Per-event types (checkpoint-corrupt,
 * livein-flip, spawn-delay, spawn-drop, spurious-squash) draw from
 * the injector's seed stream at forks, deliveries and commits, which
 * happen in the same order under any schedule. Per-cycle types
 * (master-reg-flip, master-pc, image-patch on the master; slave-stall
 * and slave-kill on each slave) draw from one stream per (type, core)
 * that knows how many opportunities pass before it next fires, so the
 * machine can run every core up to the next fire in one quantum and
 * charge the opportunities afterwards.
 *
 * Every hook in the machine is guarded by a single null-pointer check
 * (no injector attached => no work, no virtual dispatch), so the
 * injection layer is zero-cost on the fault-free hot path — see
 * BM_MsspMachine A/B in EXPERIMENTS.md.
 *
 * The fault menu deliberately stays inside the paper's protected
 * surface: predictions (checkpoints, master state, distilled image)
 * and plumbing (delivery, slave liveness, commit pacing). Slave
 * *results* are never corrupted — the machine trusts task execution,
 * exactly as the paper's hardware does; the verify/commit unit
 * protects against wrong predictions, not broken ALUs.
 */

#ifndef MSSP_FAULT_FAULT_HH
#define MSSP_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "arch/checkpoint.hh"
#include "arch/state_delta.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace mssp
{

/** One injectable fault class (DESIGN.md §6 maps each to the paper
 *  claim it stresses). */
enum class FaultType : uint8_t
{
    None = 0,
    CheckpointCorrupt,   ///< insert/drop a cell in the fork checkpoint
    LiveInFlip,          ///< flip one bit of a predicted live-in value
    MasterRegFlip,       ///< flip one bit of a master register mid-run
    MasterPcCorrupt,     ///< redirect the master PC to a random word
    SpawnDelay,          ///< delay a task delivery by extra cycles
    SpawnDrop,           ///< drop a task delivery entirely
    SlaveStall,          ///< freeze a busy slave for stallCycles
    SlaveKill,           ///< kill a slave's task mid-flight
    SpuriousSquash,      ///< squash a head task that would verify
    ImagePatch,          ///< overwrite a distilled-image word at runtime
};

constexpr size_t NumFaultTypes = 11;   // including None

/** Kebab-case name ("checkpoint-corrupt", ...). */
const char *toString(FaultType t);

/** Parse a kebab-case name; FaultType::None when unknown. */
FaultType faultTypeFromString(const std::string &name);

/** The ten real fault types, in enum order. */
const std::vector<FaultType> &allFaultTypes();

/** The per-cycle types drawn on each busy slave, in the order their
 *  fires apply within a cycle (a kill ends the slave's cycle). */
constexpr std::array<FaultType, 2> SlaveCycleFaults{FaultType::SlaveKill,
                                                    FaultType::SlaveStall};

/** The per-cycle types drawn on the master, in the order their fires
 *  apply within a cycle. */
constexpr std::array<FaultType, 3> MasterCycleFaults{
    FaultType::MasterRegFlip, FaultType::MasterPcCorrupt,
    FaultType::ImagePatch};

/** True for the per-cycle types drawn on each busy slave. */
constexpr bool
isSlaveCycleFault(FaultType t)
{
    for (FaultType s : SlaveCycleFaults) {
        if (s == t)
            return true;
    }
    return false;
}

/** FaultInjector::untilFire() of a stream that will never fire. */
constexpr uint64_t NeverFires = UINT64_MAX;

/** One armed fault: what to inject, how often, from which seed. */
struct FaultPlan
{
    FaultType type = FaultType::None;
    /** Bernoulli probability per opportunity. The opportunity grain
     *  is per fork (checkpoint/live-in/spawn faults), per commit
     *  attempt (spurious squash), per cycle in which the master runs
     *  in Spec mode (master faults, image patch), or per cycle at
     *  whose start a slave holds a task (stall/kill, one stream per
     *  slave). */
    double rate = 0.0;
    uint64_t seed = 1;
    /** Restrict to one target (slave id for slave faults, register
     *  for reg flips); -1 = any, chosen at random per injection. */
    int target = -1;
    Cycle delayCycles = 512;    ///< SpawnDelay: extra transit time
    Cycle stallCycles = 256;    ///< SlaveStall: freeze length
    uint64_t maxInjections = 0; ///< stop after this many (0 = unbounded)

    std::string toString() const;
};

/** Per-type injection counts (proof that a fault actually fired). */
struct FaultCounters
{
    std::array<uint64_t, NumFaultTypes> injected{};

    uint64_t
    count(FaultType t) const
    {
        return injected[static_cast<size_t>(t)];
    }

    uint64_t total() const;
};

/**
 * The injector the machine consults. Decision + corruption content
 * are both drawn here so a plan replays deterministically; the
 * machine only supplies the state to corrupt.
 */
class FaultInjector
{
  public:
    FaultInjector(uint64_t seed, std::vector<FaultPlan> plans);

    /** Single-plan convenience (seeded from the plan's own seed). */
    explicit FaultInjector(const FaultPlan &plan)
        : FaultInjector(plan.seed, {plan})
    {}

    /** True when any plan of type @p t is armed and under budget. */
    bool
    armed(FaultType t) const
    {
        const FaultPlan &p = plans_[static_cast<size_t>(t)];
        if (p.rate <= 0.0)
            return false;
        return p.maxInjections == 0 ||
               counters_.count(t) < p.maxInjections;
    }

    /**
     * Bernoulli draw from the seed stream for one opportunity of the
     * per-event type @p t. Counts the injection — callers must apply
     * the granted corruption.
     */
    bool
    fire(FaultType t)
    {
        if (!armed(t))
            return false;
        if (!rng_.chance(plans_[static_cast<size_t>(t)].rate))
            return false;
        ++counters_.injected[static_cast<size_t>(t)];
        return true;
    }

    // -- Fork hook --------------------------------------------------------

    /**
     * Checkpoint faults (CheckpointCorrupt + LiveInFlip) for a task
     * being forked with checkpoint @p ckpt. When one fires, @p ckpt is
     * replaced by a corrupted flat copy; the flat state is only built
     * then, never on a fork where nothing fires.
     *
     * @retval true when @p ckpt was corrupted.
     */
    bool corruptCheckpoint(Checkpoint &ckpt);

    // -- Spawn-delivery hook ----------------------------------------------

    /** SpawnDrop draw for one delivery. */
    bool dropSpawn() { return fire(FaultType::SpawnDrop); }

    /** SpawnDelay draw: extra transit cycles (0 = on time). */
    Cycle
    spawnDelay()
    {
        if (!fire(FaultType::SpawnDelay))
            return 0;
        return plans_[static_cast<size_t>(FaultType::SpawnDelay)]
            .delayCycles;
    }

    // -- Per-cycle streams ------------------------------------------------
    // One stream per (per-cycle type, core). The core index is per
    // type: a MasterCycleFaults type has the one stream 0, and a
    // SlaveCycleFaults type one stream per slave id (which starts at
    // 0 too). Stream (t, core) is seeded with
    // Rng::mix(seed, t << 32 | core) and draws the same per-opportunity
    // Bernoulli as fire(), but ahead of time: it knows how many
    // opportunities pass before it next fires, so the machine can skip
    // them and charge them afterwards. The corruption content of a
    // fire is drawn from the same stream (draws()).

    /**
     * Opportunities that pass before the stream (@p t, @p core) fires:
     * 0 when it fires at the next one. NeverFires when it never will
     * (type unarmed or capped, or a slave other than the plan's
     * target). A lower bound when the stream has not drawn that far.
     */
    uint64_t
    untilFire(FaultType t, unsigned core)
    {
        if (!armed(t) || !targets(t, core))
            return NeverFires;
        return stream(t, core).left;
    }

    /**
     * Fire the stream (@p t, @p core) if it is due at this opportunity
     * (untilFire() == 0): counts the injection and returns true. The
     * firing opportunity is charged with the rest (charge()).
     */
    bool fireDue(FaultType t, unsigned core);

    /**
     * Charge @p n opportunities of @p core to the stream (@p t,
     * @p core). They must not pass a due fire: the machine ends its
     * quanta at the next fire (MSSP_ASSERTed).
     */
    void charge(FaultType t, unsigned core, uint64_t n);

    /** The stream's generator, for the corruption content of a fire. */
    Rng &draws(FaultType t, unsigned core) { return stream(t, core).rng; }

    /** The plan armed for @p t (zero-rate default when absent). */
    const FaultPlan &
    plan(FaultType t) const
    {
        return plans_[static_cast<size_t>(t)];
    }

    const FaultCounters &counters() const { return counters_; }

    /** One line per armed type with its injection count. */
    void dump(std::ostream &os) const;

  private:
    /** A per-cycle stream: @c left opportunities pass, then the next
     *  one fires (@c fires) or the stream draws further ahead. */
    struct Stream
    {
        Rng rng;
        uint64_t left = 0;
        bool fires = false;
    };

    /** Slave streams fire only on the plan's target slave (if any). */
    bool
    targets(FaultType t, unsigned core) const
    {
        const FaultPlan &p = plans_[static_cast<size_t>(t)];
        return !isSlaveCycleFault(t) || p.target < 0 ||
               static_cast<unsigned>(p.target) == core;
    }

    /** Stream (@p t, @p core), created on first use. */
    Stream &stream(FaultType t, unsigned core);

    /** Draw ahead until the stream fires or a block of opportunities
     *  passes without a fire (bounding the work of tiny rates). */
    void drawAhead(Stream &s, double rate);

    uint32_t word() { return static_cast<uint32_t>(rng_.next()); }
    uint32_t bit32() { return 1u << (rng_.next() & 31); }

    /** One plan slot per type (the last plan of a type wins). */
    std::array<FaultPlan, NumFaultTypes> plans_;
    FaultCounters counters_;
    uint64_t seed_;
    /** The seed stream: every per-event draw. */
    Rng rng_;
    /** Per-cycle streams, indexed [type][core]. */
    std::array<std::vector<Stream>, NumFaultTypes> streams_;
};

} // namespace mssp

#endif // MSSP_FAULT_FAULT_HH
