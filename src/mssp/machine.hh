/**
 * @file
 * The MSSP machine: master + slaves + verify/commit unit + recovery.
 *
 * Execution alternates between two modes, mirroring the paper's
 * dual-mode design:
 *
 *  - Spec: the master runs the distilled program and forks tasks;
 *    slaves execute them; the commit unit verifies and commits them in
 *    order. A verification failure squashes all speculative state
 *    (architected state is untouched) and restarts the master from the
 *    architected PC.
 *  - Seq: when the master cannot be (re)engaged — the architected PC
 *    is not a restart point, or speculation keeps failing — the
 *    machine executes the original program directly against
 *    architected state, re-engaging the master at the next fork-site
 *    PC it passes. This guarantees forward progress regardless of what
 *    the distilled program does.
 *
 * The first task the master forks after any (re)start begins exactly
 * at the architected PC with an empty checkpoint, so its live-ins are
 * read straight from architected state and it always verifies: that
 * task *is* the paper's non-speculative recovery task.
 */

#ifndef MSSP_MSSP_MACHINE_HH
#define MSSP_MSSP_MACHINE_HH

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "arch/arch_state.hh"
#include "asm/program.hh"
#include "distill/distiller.hh"
#include "exec/context.hh"
#include "exec/decode_cache.hh"
#include "mssp/config.hh"
#include "mssp/fork_sites.hh"
#include "mssp/master.hh"
#include "mssp/slave.hh"
#include "mssp/task.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace mssp
{

class FaultInjector;

/** Why a run ended (one authoritative reason, not three bools). */
enum class StopReason : uint8_t
{
    Halted,              ///< program ran to completion
    Faulted,             ///< program genuinely faulted
    TimedOut,            ///< hit the cycle limit while making progress
    WatchdogExhausted,   ///< hit the cycle limit mid watchdog storm
};

/** "halted" / "faulted" / "timed-out" / "watchdog-exhausted". */
const char *toString(StopReason r);

/**
 * Per-fork-site engage/squash attribution. Keyed by the *original*
 * fork-site PC (the task's startPc); squashes charge the site whose
 * task headed the window when verification failed. mssp-run prints
 * the table. Against the run's MsspCounters it obeys:
 *
 *  - Σ forked == tasksForked and Σ committed == tasksCommitted;
 *  - Σ squashedLiveIn == tasksSquashedLiveIn and
 *    Σ squashedWrongPc == tasksSquashedWrongPc (both are only
 *    raised by verifying a head task, so a window always exists);
 *  - Σ squashedOther <= tasksSquashedOverrun + tasksSquashedSpurious
 *    and Σ squashed() <= squashEvents: a watchdog squash with an
 *    empty window charges no site;
 *  - per site, committed + squashed() <= forked: each forked task
 *    leaves the window head at most once, committed or squashed.
 */
struct ForkSiteStat
{
    uint64_t forked = 0;          ///< tasks spawned at this site
    uint64_t committed = 0;       ///< tasks verified and committed
    uint64_t squashedLiveIn = 0;  ///< live-in mismatches
    uint64_t squashedWrongPc = 0; ///< start-PC mismatches
    uint64_t squashedOther = 0;   ///< overrun / spurious / watchdog

    uint64_t
    squashed() const
    {
        return squashedLiveIn + squashedWrongPc + squashedOther;
    }

    /** Squash fraction of verification attempts (0 when none). */
    double
    squashRate() const
    {
        uint64_t attempts = committed + squashed();
        return attempts ? static_cast<double>(squashed()) /
                              static_cast<double>(attempts)
                        : 0.0;
    }
    bool operator==(const ForkSiteStat &) const = default;
};

/** Result of an MSSP run. */
struct MsspResult
{
    bool halted = false;     ///< program ran to completion
    bool faulted = false;    ///< program genuinely faulted
    bool timedOut = false;   ///< hit the cycle limit
    StopReason stopReason = StopReason::TimedOut;
    uint64_t cycles = 0;
    uint64_t committedInsts = 0;
    OutputStream outputs;
    /** Original fork-site PC -> engage/squash attribution. */
    std::map<uint32_t, ForkSiteStat> siteStats;
};

/** Aggregated machine statistics (also exposed as a stats::Group). */
struct MsspCounters
{
    uint64_t tasksForked = 0;
    uint64_t tasksCommitted = 0;
    uint64_t tasksSquashedLiveIn = 0;
    uint64_t tasksSquashedWrongPc = 0;
    uint64_t tasksSquashedOverrun = 0;
    uint64_t tasksSquashedCascade = 0;
    uint64_t squashEvents = 0;
    uint64_t watchdogSquashes = 0;
    uint64_t masterInsts = 0;
    uint64_t slaveInsts = 0;         ///< executed, incl. wasted
    uint64_t wastedSlaveInsts = 0;   ///< from squashed tasks
    uint64_t seqModeInsts = 0;
    uint64_t seqModeCycles = 0;
    uint64_t masterStallWindowFull = 0;
    uint64_t liveInCellsChecked = 0;
    uint64_t liveInCellsMismatched = 0;
    uint64_t archReads = 0;
    uint64_t seqBackoffEvents = 0;
    /** Commits that decayed an active sequential backoff. */
    uint64_t seqBackoffDecays = 0;
    /** Verifying head tasks squashed by fault injection. */
    uint64_t tasksSquashedSpurious = 0;
    /** Watchdog firings that escalated straight to Seq mode. */
    uint64_t watchdogEscalations = 0;
    /** Masters stopped by the runaway kill-switch. */
    uint64_t masterRunawayKills = 0;
    /** Fast restarts of a dead master with an empty pipeline (no
     *  watchdog wait). */
    uint64_t masterDeadRestarts = 0;
    /** Tasks that stopped at a device access and were serialized. */
    uint64_t mmioSerializations = 0;
    /** Slave L1 filter statistics (0 when the L1 is disabled). */
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    /** Aggregate slave cycle breakdown (sums over all slaves). */
    uint64_t slaveArchStallCycles = 0;
    uint64_t slavePauseCycles = 0;
    uint64_t slaveIdleCycles = 0;
};

/**
 * The recovery story of one run in one structure: how often each
 * defense fired and where the machine's backoff state ended up.
 * Campaigns embed this per run; dumpStats prints the same numbers.
 */
struct RecoveryReport
{
    uint64_t squashEvents = 0;
    uint64_t watchdogSquashes = 0;
    uint64_t watchdogEscalations = 0;
    uint64_t masterRunawayKills = 0;
    uint64_t masterDeadRestarts = 0;
    uint64_t spuriousSquashes = 0;
    uint64_t seqBackoffEvents = 0;
    uint64_t seqBackoffDecays = 0;
    uint64_t currentSeqBackoff = 0;   ///< 0 = fully recovered
    uint64_t seqModeInsts = 0;
    uint64_t faultsInjected = 0;      ///< 0 when no injector attached

    /** Multi-line human-readable rendering. */
    std::string toString() const;
};

/** The full MSSP chip-multiprocessor model. */
class MsspMachine
{
  public:
    /**
     * @param orig the original program (loaded into architected state)
     * @param dist its distilled companion
     * @param cfg  machine configuration
     */
    MsspMachine(const Program &orig, const DistilledProgram &dist,
                const MsspConfig &cfg);

    /**
     * Run until the program halts/faults or @p max_cycles elapse.
     *
     * When a Supervision is installed on the calling thread
     * (sim/supervisor.hh), the loop polls it every 1024 cycles and
     * throws StatusError on a budget trip or cancellation — always
     * between cycles, so the machine stays consistent and resumable.
     * Executed work is charged as master + slave + seq-mode
     * instructions; retired work as architected instret.
     */
    MsspResult run(uint64_t max_cycles);

    const ArchState &arch() const { return arch_; }
    const MsspConfig &config() const { return cfg_; }
    /** Current simulation time (valid inside hooks). */
    Cycle now() const { return now_; }
    const MsspCounters &counters() const { return ctrs_; }
    const OutputStream &outputs() const { return outputs_; }

    /** Mean committed task size in instructions. */
    double meanTaskSize() const;

    /** Dump a gem5-style statistics table. */
    void dumpStats(std::ostream &os) const;

    /** Recovery/backoff counters in one structure (see above). */
    RecoveryReport recoveryReport() const;

    /**
     * Attach a fault injector (nullptr detaches). Non-owning; the
     * injector must outlive the run. Every consultation site is
     * guarded by this single pointer check, so a detached machine
     * pays one predictable branch per hook — see the BM_MsspMachine
     * A/B in EXPERIMENTS.md.
     */
    void setFaultInjector(FaultInjector *injector);

    /** Current sequential-backoff length (tests/diagnostics). */
    uint64_t currentSeqBackoff() const { return seq_backoff_; }

    /** Committed-task observer hook (used by the task-safety tests):
     *  called with each task right before its live-outs commit. */
    using CommitHook = std::function<void(const Task &,
                                          const ArchState &)>;
    void setCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

    /** Head-squash observer hook (diagnostics and tests): called with
     *  the offending task and the squash reason. */
    using SquashHook = std::function<void(const Task &, TaskOutcome)>;
    void setSquashHook(SquashHook hook) { squash_hook_ = std::move(hook); }

  private:
    enum class Mode : uint8_t { Spec, Seq, Restarting };

    void tickCommit();
    void tickSpawnDelivery();
    void tickSlaves();
    void tickMaster();
    void tickSeq();
    void checkWatchdog();

    void squash(TaskOutcome reason);
    void engageMaster();
    void commitFront();
    /** Count a failed engagement; escalate to Seq backoff past the
     *  limit (shared by squash() and the master-dead fast path). */
    void noteEngageFailure();
    /** Master dead (faulted/killed/halted-without-final-task) with an
     *  empty pipeline: restart now instead of waiting for the
     *  watchdog to notice the silence. */
    void noteMasterDead();
    /** Fault hooks (only reached with an injector attached). */
    void injectMasterFaults();
    void injectSlaveFaults();
    /** Get a fresh (or recycled) task shell. */
    std::unique_ptr<Task> allocTask();
    /** Return a retired task shell to the pool. */
    void recycleTask(std::unique_ptr<Task> task);
    /** Drop speculative state to serialize a device access; unlike
     *  squash(), this is planned work, not a failure. */
    void serializeSpeculation();

    /** The youngest (most recently forked) in-flight task. */
    Task *youngest() { return window_.empty() ? nullptr
                                              : window_.back().get(); }

    // -- Construction-ordered members (arch before master!) -------------
    MsspConfig cfg_;
    Program orig_;
    DistilledProgram dist_;
    ArchState arch_;
    MmioDevice device_;
    MasterCore master_;
    /** Predecode cache of the original image, shared by all slaves
     *  and the sequential fallback (code is immutable). */
    DecodeCache orig_decode_{orig_};
    ForkSiteSet fork_site_pcs_;
    /** Slaves live by value: tickSlaves walks them every cycle. */
    std::vector<SlaveCore> slaves_;

    std::deque<std::unique_ptr<Task>> window_;   ///< fork order
    std::deque<Task *> arrived_;   ///< spawned, awaiting a slave

    /** An in-flight fork: the task reaches a slave at cycle @c due. */
    struct PendingSpawn
    {
        Cycle due;
        Task *task;
    };
    /** Forked tasks in transit (FIFO: fork order, fixed latency).
     *  Replaces a generic event queue on the once-per-fork path.
     *  Injected SpawnDelay faults can make a head entry due later
     *  than its successors; delivery then head-of-line blocks, like
     *  a congested interconnect would. */
    std::deque<PendingSpawn> spawn_queue_;

    /** Retired Task shells for reuse (their maps keep capacity). */
    std::vector<std::unique_ptr<Task>> task_pool_;

    Mode mode_ = Mode::Restarting;
    Cycle restart_at_ = 0;
    Cycle now_ = 0;
    Cycle commit_busy_until_ = 0;
    Cycle last_commit_cycle_ = 0;
    unsigned engage_failures_ = 0;
    /** Watchdog firings since the last commit (escalation trigger). */
    unsigned consecutive_watchdog_ = 0;
    /** Master inst count at its last spawned fork (runaway switch). */
    uint64_t master_insts_at_last_fork_ = 0;
    /** Current sequential-backoff length (0 = no backoff active). */
    uint64_t seq_backoff_ = 0;
    /** Instructions left to execute sequentially before the machine
     *  may try to re-engage the master. */
    uint64_t seq_insts_remaining_ = 0;
    /** Minimum sequential steps after a device serialization (ensures
     *  the device access itself executes even when it sits exactly at
     *  a fork site). */
    uint64_t force_seq_insts_ = 0;

    double master_budget_ = 0.0;
    double seq_budget_ = 0.0;

    bool halted_ = false;
    bool faulted_ = false;
    uint64_t next_task_id_ = 1;

    OutputStream outputs_;
    MsspCounters ctrs_;
    /** Per-fork-site engage/squash attribution (MsspResult). */
    std::map<uint32_t, ForkSiteStat> site_stats_;
    CommitHook commit_hook_;
    SquashHook squash_hook_;
    /** Fault injector (null = no hooks fire; see setFaultInjector). */
    FaultInjector *injector_ = nullptr;
    /** Patchable distilled-code addresses (built on injector attach;
     *  ImagePatch targets). */
    std::vector<uint32_t> dist_code_addrs_;

    // Statistics (mirrors of ctrs_ for table dumping).
    mutable stats::Group stats_root_{"mssp"};
    stats::Distribution task_size_dist_{&stats_root_, "taskSize",
        "committed task size (insts)", 0, 2000, 20};
    stats::Distribution checkpoint_dist_{&stats_root_, "checkpointCells",
        "checkpoint size at fork (cells)", 0, 4096, 16};
    stats::Distribution livein_dist_{&stats_root_, "liveInCells",
        "live-in set size at commit (cells)", 0, 512, 16};
};

} // namespace mssp

#endif // MSSP_MSSP_MACHINE_HH
