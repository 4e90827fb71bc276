/**
 * @file
 * Lockstep gate for the MSSP machine's quantum scheduler.
 *
 * MsspMachine::run advances every core to its next interaction in one
 * quantum; the cycle-stepped schedule (MsspMachine::setCycleStepped)
 * is the same loop with every horizon pinned to one cycle, and is the
 * reference. The two must agree exactly: the MsspResult (site stats
 * and stop reason included), every MsspCounters field, the recovery
 * report, the dumpStats text, and the sequence of commit and squash
 * hook calls together with the cycle (now()) of each call.
 *
 * Inputs: the 12 analogues at scales 0.05 and 1.0, seeded random
 * programs (with and without device accesses), an MMIO loop, corrupted
 * distilled images (master faults, runaway kills, watchdog storms), a
 * sweep of machine configurations, and runs cut into pieces by small
 * cycle limits and resumed (which must also match the uncut run).
 *
 * With a FaultInjector attached the per-cycle fault streams bound the
 * quanta; the gate then also compares the injector's FaultCounters
 * (and its dumpStats rows). Injected inputs: every fault type at both
 * campaign intensities under campaignConfig() on the 12 analogues at
 * 0.05, random programs under random mixes of fault types, and slave
 * plans with a target and plans with a maxInjections cap.
 *
 * Runs 25 random seeds by default; the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_scheduler_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "mssp/machine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/micro.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

#include "helpers.hh"

namespace mssp
{
namespace
{

unsigned
fuzzIters()
{
    const char *env = std::getenv("MSSP_FUZZ_ITERS");
    if (env && *env) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 25;
}

/** One commit or squash hook call. */
struct HookCall
{
    char kind;        ///< 'C' commit, 'S' squash
    uint64_t taskId;
    uint32_t startPc;
    uint64_t instCount;
    int detail;       ///< TaskEnd (commit) or TaskOutcome (squash)
    Cycle now;

    bool operator==(const HookCall &) const = default;
};

/** Everything a run makes observable. */
struct Observed
{
    std::vector<MsspResult> results;   ///< one per run() call
    MsspCounters counters;
    RecoveryReport recovery;
    FaultCounters faults;
    std::string stats;
    std::vector<HookCall> hooks;
};

/** Fault plans to attach (none = no injector) and the injector seed. */
struct Faults
{
    std::vector<FaultPlan> plans;
    uint64_t seed = 1;
};

Observed
observe(const Program &orig, const DistilledProgram &dist,
        const MsspConfig &cfg, bool stepped,
        const std::vector<uint64_t> &limits, const Faults &faults)
{
    Observed o;
    MsspMachine m(orig, dist, cfg);
    m.setCycleStepped(stepped);
    std::unique_ptr<FaultInjector> injector;
    if (!faults.plans.empty()) {
        injector =
            std::make_unique<FaultInjector>(faults.seed, faults.plans);
        m.setFaultInjector(injector.get());
    }
    m.setCommitHook([&](const Task &t, const ArchState &) {
        o.hooks.push_back({'C', t.id, t.startPc, t.instCount,
                           static_cast<int>(t.end), m.now()});
    });
    m.setSquashHook([&](const Task &t, TaskOutcome why) {
        o.hooks.push_back({'S', t.id, t.startPc, t.instCount,
                           static_cast<int>(why), m.now()});
    });
    for (uint64_t limit : limits)
        o.results.push_back(m.run(limit));
    o.counters = m.counters();
    o.recovery = m.recoveryReport();
    if (injector)
        o.faults = injector->counters();
    std::ostringstream os;
    m.dumpStats(os);
    o.stats = os.str();
    return o;
}

/** Require identical results of one run() call. */
void
expectSameResult(const MsspResult &a, const MsspResult &b)
{
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.faulted, b.faulted);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.stopReason, b.stopReason);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_TRUE(a.siteStats == b.siteStats) << "siteStats differ";
}

/** Require identical final observations (@p what names the pair). */
void
expectSameObservation(const Observed &ref, const Observed &got,
                      const char *what)
{
    SCOPED_TRACE(what);
    expectSameResult(ref.results.back(), got.results.back());
    EXPECT_TRUE(ref.counters == got.counters) << "counters differ";
    EXPECT_TRUE(ref.recovery == got.recovery)
        << "recovery differs:\n" << ref.recovery.toString() << "vs\n"
        << got.recovery.toString();
    EXPECT_EQ(ref.faults.injected, got.faults.injected);
    EXPECT_EQ(ref.stats, got.stats);
    EXPECT_EQ(ref.hooks.size(), got.hooks.size());
    for (size_t i = 0; i < ref.hooks.size() && i < got.hooks.size();
         ++i) {
        if (!(ref.hooks[i] == got.hooks[i])) {
            ADD_FAILURE() << "hook call " << i << " differs: "
                          << ref.hooks[i].kind << " task "
                          << ref.hooks[i].taskId << " @"
                          << ref.hooks[i].now << " vs "
                          << got.hooks[i].kind << " task "
                          << got.hooks[i].taskId << " @"
                          << got.hooks[i].now;
            break;
        }
    }
}

/**
 * Run both schedules and require identical observations. @p limits
 * are successive run() cycle limits (a run resumes where the last
 * stopped). @return the quantum run's observation.
 */
Observed
expectLockstep(const Program &orig, const DistilledProgram &dist,
               const MsspConfig &cfg,
               const std::vector<uint64_t> &limits = {50000000ull},
               const Faults &faults = {})
{
    Observed ref = observe(orig, dist, cfg, true, limits, faults);
    Observed got = observe(orig, dist, cfg, false, limits, faults);
    EXPECT_EQ(ref.results.size(), got.results.size());
    for (size_t i = 0; i < ref.results.size() && i < got.results.size();
         ++i) {
        SCOPED_TRACE(strfmt("run() call %zu", i));
        expectSameResult(ref.results[i], got.results[i]);
    }
    expectSameObservation(ref, got, "cycle-stepped vs quantum");
    return got;
}

/**
 * Cut a run into pieces at @p limits and require, under both
 * schedules, the observation of one uncut call (MsspCounters
 * included: slave totals must not be counted once per call).
 */
void
expectResumeMatchesUncut(const Program &orig, const DistilledProgram &dist,
                         const MsspConfig &cfg,
                         const std::vector<uint64_t> &limits,
                         const Faults &faults = {})
{
    Observed cut = expectLockstep(orig, dist, cfg, limits, faults);
    EXPECT_TRUE(cut.results.front().timedOut);
    EXPECT_TRUE(cut.results.back().halted);
    for (bool stepped : {true, false}) {
        Observed whole = observe(orig, dist, cfg, stepped,
                                 {limits.back()}, faults);
        Observed pieces = observe(orig, dist, cfg, stepped, limits,
                                  faults);
        expectSameObservation(whole, pieces,
                              stepped ? "cut vs uncut, cycle-stepped"
                                      : "cut vs uncut, quantum");
    }
}

/** One fault plan at a campaign intensity (as mssp-faultcamp arms). */
FaultPlan
campaignPlan(FaultType t, double intensity, uint64_t seed)
{
    FaultPlan p;
    p.type = t;
    p.rate = std::min(1.0, faultBaseRate(t) * intensity);
    p.seed = seed;
    return p;
}

TEST(SchedulerFuzz, AnaloguesAtBothScales)
{
    setQuiet(true);
    for (double scale : {0.05, 1.0}) {
        for (const Workload &wl : specAnalogues(scale)) {
            SCOPED_TRACE(strfmt("%s @ %.2f", wl.name.c_str(), scale));
            PreparedWorkload w = prepare(wl.refSource, wl.trainSource,
                                         DistillerOptions::paperPreset());
            Observed o = expectLockstep(w.orig, w.dist, MsspConfig{});
            EXPECT_TRUE(o.results.back().halted);
            EXPECT_GT(o.counters.tasksCommitted, 0u);
        }
    }
}

TEST(SchedulerFuzz, RandomPrograms)
{
    setQuiet(true);
    for (uint64_t seed = 1; seed <= fuzzIters(); ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());
        expectLockstep(w.orig, w.dist, MsspConfig{}, {10000000ull});
    }
}

TEST(SchedulerFuzz, MmioPrograms)
{
    setQuiet(true);
    RandomProgramOptions opts;
    opts.allowMmio = true;
    uint64_t serializations = 0;
    for (uint64_t seed = 1; seed <= fuzzIters(); ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed, opts));
        PreparedWorkload w = prepare(prog, prog);
        Observed o =
            expectLockstep(w.orig, w.dist, MsspConfig{}, {10000000ull});
        serializations += o.counters.mmioSerializations;
    }
    // The device loop of test_mmio: every fourth iteration reads the
    // counter and writes a device register.
    std::string src = strfmt(
        "    li s0, 64\n"
        "    li s1, 0\n"
        "    lui s2, 0xffff\n"
        "loop:\n"
        "    add s1, s1, s0\n"
        "    andi t0, s0, 3\n"
        "    bnez t0, nodev\n"
        "    lw t1, 0(s2)\n"
        "    add s1, s1, t1\n"
        "    sw s1, 8(s2)\n"
        "nodev:\n"
        "    addi s0, s0, -1\n"
        "    bnez s0, loop\n"
        "    out s1, 1\n"
        "    halt\n");
    PreparedWorkload w = prepare(src, src);
    Observed o = expectLockstep(w.orig, w.dist, MsspConfig{});
    EXPECT_TRUE(o.results.back().halted);
    serializations += o.counters.mmioSerializations;
    EXPECT_GT(serializations, 0u) << "no device access was serialized";
}

TEST(SchedulerFuzz, CorruptedMasters)
{
    // Garbage distilled images: the master faults, loops without
    // forking (runaway kills) and forks nonsense, so the watchdog and
    // the dead-master restart fire; output still matches SEQ.
    setQuiet(true);
    MsspConfig cfg;
    cfg.watchdogCycles = 3000;
    cfg.maxTaskInsts = 3000;
    cfg.masterRunawayInsts = 2000;
    MsspCounters sum;
    std::vector<Workload> wls = specAnalogues(0.05);
    for (uint64_t seed = 1; seed <= std::max(fuzzIters() / 2, 4u);
         ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        const Workload &wl = wls[seed % wls.size()];
        PreparedWorkload w = prepare(wl.refSource, wl.trainSource);
        Rng rng(seed);
        DistilledProgram corrupt = w.dist;
        std::vector<uint32_t> addrs;
        for (const auto &[addr, word] : corrupt.prog.image()) {
            (void)word;
            if (addr >= DistilledCodeBase)
                addrs.push_back(addr);
        }
        for (int i = 0; i < 6; ++i) {
            corrupt.prog.setWord(addrs[rng.below(addrs.size())],
                                 static_cast<uint32_t>(rng.next()));
        }
        Observed o = expectLockstep(w.orig, corrupt, cfg);
        test::expectEquivalent(w.orig, o.results.back());
        sum.squashEvents += o.counters.squashEvents;
        sum.masterDeadRestarts += o.counters.masterDeadRestarts;
    }
    EXPECT_GT(sum.squashEvents, 0u);
    EXPECT_GT(sum.masterDeadRestarts, 0u);
}

struct SweepPoint
{
    const char *name;
    MsspConfig cfg;
};

std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> pts;
    auto add = [&](const char *name, auto tweak) {
        MsspConfig c;
        tweak(c);
        pts.push_back({name, c});
    };
    add("fast_master_slow_slaves", [](MsspConfig &c) {
        c.masterIpc = 4.0;
        c.slaveIpc = 0.5;
    });
    add("slow_master_fast_slaves", [](MsspConfig &c) {
        c.masterIpc = 0.25;
        c.slaveIpc = 2.0;
    });
    add("fractional_ipc", [](MsspConfig &c) {
        c.masterIpc = 0.7;
        c.slaveIpc = 1.3;
    });
    add("wide_issue", [](MsspConfig &c) {
        c.masterIpc = 2.0;
        c.slaveIpc = 3.0;
    });
    add("fork_interval_3", [](MsspConfig &c) { c.forkInterval = 3; });
    add("one_slave", [](MsspConfig &c) {
        c.numSlaves = 1;
        c.maxInFlightTasks = 2;
    });
    add("sixteen_slaves", [](MsspConfig &c) {
        c.numSlaves = 16;
        c.maxInFlightTasks = 32;
    });
    add("zero_latency", [](MsspConfig &c) {
        c.forkLatency = 0;
        c.commitLatency = 0;
        c.squashPenalty = 0;
        c.archReadLatency = 0;
    });
    add("high_latency", [](MsspConfig &c) {
        c.forkLatency = 200;
        c.commitLatency = 150;
        c.squashPenalty = 500;
        c.archReadLatency = 40;
    });
    add("l1_off", [](MsspConfig &c) {
        c.useSlaveL1 = false;
        c.archReadLatency = 10;
    });
    add("tiny_watchdog", [](MsspConfig &c) {
        c.watchdogCycles = 64;
        c.maxTaskInsts = 64;
        c.masterRunawayInsts = 500;
    });
    return pts;
}

TEST(SchedulerFuzz, ConfigSweep)
{
    setQuiet(true);
    std::vector<std::pair<std::string, PreparedWorkload>> progs;
    progs.emplace_back("biased_sum",
                       prepare(test::biasedSumSource(250, 71),
                               test::biasedSumSource(150, 72),
                               DistillerOptions::paperPreset()));
    Workload qs = microQsort(80);
    progs.emplace_back("qsort",
                       prepare(qs.refSource, qs.trainSource,
                               DistillerOptions::paperPreset()));
    for (const char *name : {"gcc", "mcf", "vortex"}) {
        Workload wl = workloadByName(name, 0.05);
        progs.emplace_back(name,
                           prepare(wl.refSource, wl.trainSource,
                                   DistillerOptions::paperPreset()));
    }
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Program prog = assemble(randomProgramSource(seed));
        progs.emplace_back(strfmt("random_%llu",
                                  static_cast<unsigned long long>(seed)),
                           prepare(prog, prog,
                                   DistillerOptions::paperPreset()));
    }
    for (const SweepPoint &pt : sweepPoints()) {
        for (const auto &[name, w] : progs) {
            SCOPED_TRACE(strfmt("%s on %s", pt.name, name.c_str()));
            Observed o = expectLockstep(w.orig, w.dist, pt.cfg);
            test::expectEquivalent(w.orig, o.results.back());
        }
    }
}

/** Cycle limits that cut a run mid-flight, then one to finish it. */
std::vector<uint64_t>
cutLimits(uint64_t first)
{
    std::vector<uint64_t> limits;
    for (uint64_t c = first; c < 400000; c = c * 3 / 2 + 13)
        limits.push_back(c);
    limits.push_back(50000000ull);
    return limits;
}

TEST(SchedulerFuzz, ResumedRunsAgree)
{
    // Cycle limits cut runs mid-flight (mid-task, mid-stall, mid
    // sequential fallback); resuming must continue both schedules
    // identically, and end where one uncut call ends.
    setQuiet(true);
    Workload wl = workloadByName("parser", 0.05);
    PreparedWorkload w = prepare(wl.refSource, wl.trainSource,
                                 DistillerOptions::paperPreset());
    expectResumeMatchesUncut(w.orig, w.dist, MsspConfig{},
                             cutLimits(777));
    // An injected campaign cell, cut between fault fires.
    Faults faults{{campaignPlan(FaultType::SlaveStall, 10.0, 3),
                   campaignPlan(FaultType::MasterRegFlip, 10.0, 3)},
                  3};
    expectResumeMatchesUncut(w.orig, w.dist, campaignConfig(),
                             cutLimits(1000), faults);
}

TEST(SchedulerFuzz, InjectedAnalogues)
{
    // Every fault type at both campaign intensities on every
    // analogue: the suite's fault campaign, cell for cell.
    setQuiet(true);
    uint64_t cell = 0;
    FaultCounters fired;
    for (const Workload &wl : specAnalogues(0.05)) {
        PreparedWorkload w = prepare(wl.refSource, wl.trainSource);
        for (FaultType t : allFaultTypes()) {
            for (double intensity : {1.0, 10.0}) {
                SCOPED_TRACE(strfmt("%s / %s x%g", wl.name.c_str(),
                                    toString(t), intensity));
                uint64_t seed = Rng::mix(1, cell++);
                Observed o = expectLockstep(
                    w.orig, w.dist, campaignConfig(), {50000000ull},
                    {{campaignPlan(t, intensity, seed)}, seed});
                test::expectEquivalent(w.orig, o.results.back());
                fired.injected[static_cast<size_t>(t)] +=
                    o.faults.count(t);
            }
        }
    }
    for (FaultType t : allFaultTypes())
        EXPECT_GT(fired.count(t), 0u) << toString(t) << " never fired";
}

TEST(SchedulerFuzz, InjectedRandomPrograms)
{
    // Random programs under random mixes of fault types and
    // intensities: fires of several streams in one cycle, kills and
    // stalls of one slave, master faults during a stall.
    setQuiet(true);
    for (uint64_t seed = 1; seed <= fuzzIters(); ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());
        Rng rng(Rng::mix(seed, 99));
        Faults faults;
        faults.seed = seed;
        for (FaultType t : allFaultTypes()) {
            if (rng.below(3) == 0) {
                faults.plans.push_back(campaignPlan(
                    t, 1.0 + static_cast<double>(rng.below(30)), seed));
            }
        }
        if (faults.plans.empty()) {
            faults.plans.push_back(
                campaignPlan(FaultType::SlaveStall, 10.0, seed));
        }
        Observed o = expectLockstep(w.orig, w.dist, campaignConfig(),
                                    {10000000ull}, faults);
        test::expectEquivalent(w.orig, o.results.back());
    }
}

TEST(SchedulerFuzz, InjectedTargetsAndCaps)
{
    // Slave plans aimed at one slave, and plans whose stream stops at
    // a maxInjections cap mid-run.
    setQuiet(true);
    for (const char *name : {"gcc", "mcf", "twolf"}) {
        Workload wl = workloadByName(name, 0.05);
        PreparedWorkload w = prepare(wl.refSource, wl.trainSource);
        for (int target : {0, 1, 2}) {
            SCOPED_TRACE(strfmt("%s target %d", name, target));
            FaultPlan kill = campaignPlan(FaultType::SlaveKill, 10.0, 5);
            kill.target = target;
            FaultPlan stall =
                campaignPlan(FaultType::SlaveStall, 30.0, 5);
            stall.target = (target + 1) % 3;
            Observed o = expectLockstep(w.orig, w.dist, campaignConfig(),
                                        {50000000ull},
                                        {{kill, stall}, 5});
            test::expectEquivalent(w.orig, o.results.back());
            EXPECT_GT(o.faults.total(), 0u);
        }
        for (uint64_t cap : {1, 4}) {
            SCOPED_TRACE(strfmt("%s cap %llu", name,
                                static_cast<unsigned long long>(cap)));
            std::vector<FaultPlan> plans;
            for (FaultType t :
                 {FaultType::MasterRegFlip, FaultType::MasterPcCorrupt,
                  FaultType::ImagePatch, FaultType::SlaveStall,
                  FaultType::SlaveKill}) {
                FaultPlan p = campaignPlan(t, 10.0, 9);
                p.maxInjections = cap;
                plans.push_back(p);
            }
            Observed o = expectLockstep(w.orig, w.dist, campaignConfig(),
                                        {50000000ull}, {plans, 9});
            test::expectEquivalent(w.orig, o.results.back());
            for (const FaultPlan &p : plans)
                EXPECT_LE(o.faults.count(p.type), cap);
        }
    }
}

TEST(SchedulerFuzz, SlaveStreamsSeeOnlyBusyCycles)
{
    // A slave's fault opportunities are the cycles at whose start it
    // holds a task. On a one-slave machine those are the run's cycles
    // less the slave's idle ones, so a stall stream must have fired
    // exactly as often as the same stream, drawn on its own, fires
    // within that many opportunities.
    setQuiet(true);
    MsspConfig cfg = campaignConfig();
    cfg.numSlaves = 1;
    cfg.maxInFlightTasks = 2;
    uint64_t total = 0;
    for (const char *name : {"gzip", "parser", "vortex"}) {
        Workload wl = workloadByName(name, 0.05);
        PreparedWorkload w = prepare(wl.refSource, wl.trainSource);
        for (double intensity : {1.0, 10.0, 100.0}) {
            SCOPED_TRACE(strfmt("%s x%g", name, intensity));
            FaultPlan stall =
                campaignPlan(FaultType::SlaveStall, intensity, 13);
            Observed o = expectLockstep(w.orig, w.dist, cfg,
                                        {50000000ull}, {{stall}, 13});
            uint64_t busy =
                o.results.back().cycles - o.counters.slaveIdleCycles;
            FaultInjector alone(13, {stall});
            uint64_t fires = 0;
            for (uint64_t i = 0; i < busy;) {
                fires += alone.fireDue(stall.type, 0) ? 1 : 0;
                uint64_t step = std::max<uint64_t>(
                    1, std::min(alone.untilFire(stall.type, 0), busy - i));
                alone.charge(stall.type, 0, step);
                i += step;
            }
            EXPECT_EQ(o.faults.count(stall.type), fires);
            total += fires;
        }
    }
    EXPECT_GT(total, 0u);
}

} // anonymous namespace
} // namespace mssp
