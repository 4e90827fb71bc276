/**
 * @file
 * Fault-injection layer tests: every fault type fires and is survived
 * (output equivalence + forward progress + clean architected state),
 * injection is deterministic and capped, and campaigns reproduce
 * byte-identical reports. This is the executable form of the paper's
 * claim that the distilled program is only a performance hint.
 *
 * The per-cycle streams are also tested on their own: fire counts
 * follow the plan's Bernoulli rate, skipping ahead fires exactly where
 * stepping does, each (type, core) stream is its own deterministic
 * sequence, and target and maxInjections hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "helpers.hh"

using namespace mssp;
using namespace mssp::test;

namespace
{

/** Aggressive per-type rates (roughly campaign intensity 10). */
double
testRate(FaultType t)
{
    return std::min(1.0, faultBaseRate(t) * 10.0);
}

struct FaultRun
{
    MsspResult result;
    FaultCounters counters;
    RecoveryReport recovery;
    std::string stats;
};

/** Run the biased-sum workload with one fault plan armed. */
FaultRun
runWithPlan(const PreparedWorkload &w, const FaultPlan &plan,
            uint64_t max_cycles = 20000000ull)
{
    FaultInjector injector(plan.seed, {plan});
    MsspMachine machine(w.orig, w.dist, campaignConfig());
    machine.setFaultInjector(&injector);
    // Sharp invariant: every committed task's live-ins must match
    // architected state (verified from outside the machine).
    machine.setCommitHook([](const Task &t, const ArchState &arch) {
        ASSERT_EQ(arch.countMismatches(t.liveIn), 0u)
            << "commit with unverified live-ins";
    });
    FaultRun out;
    out.result = machine.run(max_cycles);
    out.counters = injector.counters();
    out.recovery = machine.recoveryReport();
    std::ostringstream os;
    machine.dumpStats(os);
    out.stats = os.str();
    return out;
}

class FaultInjectionTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new PreparedWorkload(
            prepare(biasedSumSource(3000, 1), biasedSumSource(3000, 2)));
        SeqMachine seq(workload_->orig);
        seq.run(100000000ull);
        ASSERT_TRUE(seq.halted());
        oracle_outputs_ = new OutputStream(seq.outputs());
        oracle_regs_ = new std::array<uint32_t, NumRegs>(
            seq.state().regs());
    }

    static void
    TearDownTestSuite()
    {
        delete workload_;
        delete oracle_outputs_;
        delete oracle_regs_;
    }

    /** The three campaign invariants. */
    static void
    expectInvariants(const FaultRun &run)
    {
        ASSERT_TRUE(run.result.halted)
            << "no forward progress (cycles=" << run.result.cycles
            << ")";
        EXPECT_EQ(run.result.stopReason, StopReason::Halted);
        EXPECT_EQ(run.result.outputs, *oracle_outputs_);
    }

    static PreparedWorkload *workload_;
    static OutputStream *oracle_outputs_;
    static std::array<uint32_t, NumRegs> *oracle_regs_;
};

PreparedWorkload *FaultInjectionTest::workload_ = nullptr;
OutputStream *FaultInjectionTest::oracle_outputs_ = nullptr;
std::array<uint32_t, NumRegs> *FaultInjectionTest::oracle_regs_ =
    nullptr;

} // anonymous namespace

TEST_F(FaultInjectionTest, EveryTypeFiresAndIsSurvived)
{
    for (FaultType type : allFaultTypes()) {
        SCOPED_TRACE(toString(type));
        FaultPlan plan;
        plan.type = type;
        plan.rate = testRate(type);
        plan.seed = 7;
        FaultRun run = runWithPlan(*workload_, plan);
        expectInvariants(run);
        EXPECT_GT(run.counters.count(type), 0u)
            << "fault type never injected";
        EXPECT_EQ(run.recovery.faultsInjected,
                  run.counters.total());
    }
}

TEST_F(FaultInjectionTest, SameSeedSameRun)
{
    FaultPlan plan;
    plan.type = FaultType::CheckpointCorrupt;
    plan.rate = 0.3;
    plan.seed = 42;
    FaultRun a = runWithPlan(*workload_, plan);
    FaultRun b = runWithPlan(*workload_, plan);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.outputs, b.result.outputs);
    EXPECT_EQ(a.counters.injected, b.counters.injected);
    EXPECT_EQ(a.recovery.squashEvents, b.recovery.squashEvents);

    plan.seed = 43;
    FaultRun c = runWithPlan(*workload_, plan);
    // Different seed, different injection pattern (cycles may or may
    // not coincide; the counters are the reliable discriminator).
    EXPECT_TRUE(a.counters.injected != c.counters.injected ||
                a.result.cycles != c.result.cycles);
}

TEST_F(FaultInjectionTest, ZeroRateMatchesNoInjector)
{
    MsspMachine clean(workload_->orig, workload_->dist,
                      campaignConfig());
    MsspResult clean_result = clean.run(20000000ull);

    FaultPlan plan;
    plan.type = FaultType::LiveInFlip;
    plan.rate = 0.0;
    FaultRun zero = runWithPlan(*workload_, plan);

    EXPECT_EQ(zero.counters.total(), 0u);
    // A zero-rate injector never draws, so timing is bit-identical
    // to the detached machine.
    EXPECT_EQ(zero.result.cycles, clean_result.cycles);
    EXPECT_EQ(zero.result.outputs, clean_result.outputs);
}

TEST_F(FaultInjectionTest, MaxInjectionsCapsTheCampaign)
{
    FaultPlan plan;
    plan.type = FaultType::SpuriousSquash;
    plan.rate = 1.0;   // every commit attempt...
    plan.maxInjections = 3;   // ...but only thrice
    plan.seed = 5;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_EQ(run.counters.count(FaultType::SpuriousSquash), 3u);
    EXPECT_EQ(run.recovery.spuriousSquashes, 3u);
}

TEST_F(FaultInjectionTest, DroppingEverySpawnStillCompletes)
{
    // The hardest livelock probe: every forked task is lost in
    // transit, so speculation can never commit anything. The watchdog
    // plus backoff escalation must push the machine into sequential
    // mode and the program must still finish, output-identical.
    FaultPlan plan;
    plan.type = FaultType::SpawnDrop;
    plan.rate = 1.0;
    plan.seed = 3;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_GT(run.recovery.watchdogSquashes, 0u);
    EXPECT_GT(run.recovery.seqBackoffEvents, 0u);
    EXPECT_GT(run.recovery.seqModeInsts, 0u);
}

TEST_F(FaultInjectionTest, SlaveTargetRestrictsInjection)
{
    // Kill only slave 0; the others keep executing. The run must
    // still complete (watchdog recovers the killed tasks).
    FaultPlan plan;
    plan.type = FaultType::SlaveKill;
    plan.rate = 0.01;
    plan.target = 0;
    plan.seed = 11;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_GT(run.counters.count(FaultType::SlaveKill), 0u);
}

TEST_F(FaultInjectionTest, StatsContainFaultAndRecoveryRows)
{
    FaultPlan plan;
    plan.type = FaultType::MasterRegFlip;
    plan.rate = 0.01;
    plan.seed = 9;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_NE(run.stats.find("fault.master-reg-flip"),
              std::string::npos);
    EXPECT_NE(run.stats.find("masterDeadRestarts"),
              std::string::npos);
    EXPECT_NE(run.stats.find("watchdogEscalations"),
              std::string::npos);
    EXPECT_FALSE(run.recovery.toString().empty());
}

TEST(FaultPlanTest, NamesRoundTrip)
{
    for (FaultType t : allFaultTypes()) {
        EXPECT_EQ(faultTypeFromString(toString(t)), t);
        EXPECT_GT(faultBaseRate(t), 0.0);
    }
    EXPECT_EQ(faultTypeFromString("no-such-fault"), FaultType::None);
    FaultPlan plan;
    plan.type = FaultType::SpawnDelay;
    plan.rate = 0.25;
    EXPECT_FALSE(plan.toString().empty());
}

TEST(FaultCampaignTest, SmokeSweepPassesAndReproduces)
{
    CampaignOptions opts;
    opts.workloads = {"gzip"};
    opts.types = {FaultType::CheckpointCorrupt, FaultType::SpawnDrop,
                  FaultType::SpuriousSquash};
    opts.intensities = {10.0};
    opts.scale = 0.02;
    opts.seed = 12345;
    CampaignReport a = runFaultCampaign(opts);
    EXPECT_EQ(a.runs.size(), 3u);
    EXPECT_EQ(a.failures(), 0u);
    EXPECT_TRUE(a.allTypesFired());
    for (const CampaignRun &r : a.runs) {
        EXPECT_TRUE(r.ok()) << r.workload << " / " << toString(r.type);
        EXPECT_GT(r.injections, 0u);
    }

    CampaignReport b = runFaultCampaign(opts);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_FALSE(a.summary().empty());
}

namespace
{

/** Opportunity indices at which stream (@p t, @p core) fires within
 *  @p n opportunities, visited one opportunity at a time. */
std::vector<uint64_t>
firesStepped(FaultInjector &inj, FaultType t, unsigned core, uint64_t n)
{
    std::vector<uint64_t> fires;
    for (uint64_t i = 0; i < n; ++i) {
        if (inj.fireDue(t, core))
            fires.push_back(i);
        inj.charge(t, core, 1);
    }
    return fires;
}

/** The same, skipping from fire to fire as the machine's quanta do. */
std::vector<uint64_t>
firesSkipped(FaultInjector &inj, FaultType t, unsigned core, uint64_t n)
{
    std::vector<uint64_t> fires;
    uint64_t i = 0;
    while (i < n) {
        if (inj.fireDue(t, core))
            fires.push_back(i);
        uint64_t left = inj.untilFire(t, core);
        uint64_t step = std::max<uint64_t>(1, std::min(left, n - i));
        inj.charge(t, core, step);
        i += step;
    }
    return fires;
}

FaultPlan
streamPlan(FaultType t, double rate, uint64_t seed = 1)
{
    FaultPlan p;
    p.type = t;
    p.rate = rate;
    p.seed = seed;
    return p;
}

const FaultType PerCycleTypes[] = {
    FaultType::MasterRegFlip, FaultType::MasterPcCorrupt,
    FaultType::ImagePatch, FaultType::SlaveStall, FaultType::SlaveKill,
};

} // anonymous namespace

TEST(FaultStreamTest, FireCountsFollowTheRate)
{
    // Binomial band: N opportunities at rate p fire N*p +- 5 sigma
    // times, for every per-cycle type at both campaign intensities.
    for (FaultType t : PerCycleTypes) {
        for (double intensity : {1.0, 10.0}) {
            double p = std::min(1.0, faultBaseRate(t) * intensity);
            SCOPED_TRACE(strfmt("%s p=%g", toString(t), p));
            const uint64_t n =
                static_cast<uint64_t>(std::ceil(2000.0 / p));
            FaultInjector inj(11, {streamPlan(t, p)});
            uint64_t fires = firesSkipped(inj, t, 0, n).size();
            double mean = static_cast<double>(n) * p;
            double sigma = std::sqrt(mean * (1.0 - p));
            EXPECT_NEAR(static_cast<double>(fires), mean, 5.0 * sigma);
            EXPECT_EQ(inj.counters().count(t), fires);
        }
    }
}

TEST(FaultStreamTest, SkippingAheadFiresWhereSteppingDoes)
{
    // Rates low enough that a stream draws ahead in several blocks
    // between fires, and 1.0 (a fire at every opportunity).
    for (double rate : {1.0, 0.3, 0.001, 0.00002}) {
        SCOPED_TRACE(strfmt("rate %g", rate));
        FaultInjector a(5, {streamPlan(FaultType::SlaveStall, rate)});
        FaultInjector b(5, {streamPlan(FaultType::SlaveStall, rate)});
        std::vector<uint64_t> stepped =
            firesStepped(a, FaultType::SlaveStall, 2, 400000);
        EXPECT_EQ(stepped,
                  firesSkipped(b, FaultType::SlaveStall, 2, 400000));
        EXPECT_FALSE(stepped.empty());
    }
}

TEST(FaultStreamTest, StreamsPerCoreAreDistinctAndDeterministic)
{
    const uint64_t n = 200000;
    FaultPlan plan = streamPlan(FaultType::SlaveKill, 0.005);
    FaultInjector a(21, {plan});
    FaultInjector b(21, {plan});
    std::vector<uint64_t> core0 = firesSkipped(a, plan.type, 0, n);
    std::vector<uint64_t> core1 = firesSkipped(a, plan.type, 1, n);
    EXPECT_NE(core0, core1);
    // Same seed: same sequences, whichever core is consulted first.
    EXPECT_EQ(firesSkipped(b, plan.type, 1, n), core1);
    EXPECT_EQ(firesSkipped(b, plan.type, 0, n), core0);
    // Another seed: another sequence.
    FaultInjector c(22, {plan});
    EXPECT_NE(firesSkipped(c, plan.type, 0, n), core0);
    // Another type on the same core and seed: another sequence.
    FaultInjector d(21, {streamPlan(FaultType::SlaveStall, 0.005)});
    EXPECT_NE(firesSkipped(d, FaultType::SlaveStall, 0, n), core0);
}

TEST(FaultStreamTest, TargetAndCapAreHonoured)
{
    FaultPlan kill = streamPlan(FaultType::SlaveKill, 0.5);
    kill.target = 2;
    FaultInjector inj(3, {kill});
    EXPECT_EQ(inj.untilFire(FaultType::SlaveKill, 1), NeverFires);
    EXPECT_TRUE(firesSkipped(inj, FaultType::SlaveKill, 1, 1000).empty());
    EXPECT_FALSE(firesSkipped(inj, FaultType::SlaveKill, 2, 1000).empty());

    FaultPlan flip = streamPlan(FaultType::MasterRegFlip, 0.5);
    flip.maxInjections = 3;
    FaultInjector capped(3, {flip});
    EXPECT_EQ(firesSkipped(capped, flip.type, 0, 1000).size(), 3u);
    EXPECT_EQ(capped.counters().count(flip.type), 3u);
    EXPECT_EQ(capped.untilFire(flip.type, 0), NeverFires);

    // The cap spans all cores of a type.
    FaultPlan stall = streamPlan(FaultType::SlaveStall, 0.5);
    stall.maxInjections = 5;
    FaultInjector shared(3, {stall});
    size_t fires = 0;
    for (unsigned core = 0; core < 4; ++core)
        fires += firesSkipped(shared, stall.type, core, 1000).size();
    EXPECT_EQ(fires, 5u);

    // Unarmed types never fire.
    EXPECT_EQ(shared.untilFire(FaultType::ImagePatch, 0), NeverFires);
    EXPECT_FALSE(shared.fireDue(FaultType::ImagePatch, 0));
}

TEST_F(FaultInjectionTest, PerEventDrawsDidNotMove)
{
    // Per-event types draw from the injector's seed stream at forks,
    // deliveries and commits, as before the per-cycle streams; this
    // cell's numbers were recorded before those streams existed.
    FaultPlan plan;
    plan.type = FaultType::SpawnDrop;
    plan.rate = std::min(1.0, faultBaseRate(plan.type) * 10.0);
    plan.seed = 17;
    FaultRun run = runWithPlan(*workload_, plan);
    expectInvariants(run);
    EXPECT_EQ(run.result.cycles, 143448u);
    FaultCounters want;
    want.injected[static_cast<size_t>(FaultType::SpawnDrop)] = 183;
    EXPECT_EQ(run.counters.injected, want.injected);
    RecoveryReport rec;
    rec.squashEvents = 44;
    rec.watchdogSquashes = 44;
    rec.faultsInjected = 183;
    EXPECT_TRUE(run.recovery == rec) << run.recovery.toString();
}
