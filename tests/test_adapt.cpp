/**
 * @file
 * Per-fork-site squash attribution (MsspResult::siteStats).
 *
 * Under test: the site table adds up to the machine's own counters
 * (the identities documented on ForkSiteStat in mssp/machine.hh), it
 * is a deterministic function of the run, and injected squashes are
 * charged to the fork site whose task headed the window — the site
 * the squash hook sees.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fault/fault.hh"
#include "helpers.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

PreparedWorkload
prepareWorkload(const std::string &name, double scale = 0.05)
{
    setQuiet(true);
    Workload wl = workloadByName(name, scale);
    return prepare(wl.refSource, wl.trainSource,
                   DistillerOptions::paperPreset());
}

/** The ForkSiteStat identities against the run's counters. */
void
expectSiteStatsAddUp(const DistilledProgram &dist, const MsspResult &r,
                     const MsspCounters &c)
{
    ForkSiteStat sum;
    uint64_t squashed = 0;
    for (const auto &[pc, s] : r.siteStats) {
        SCOPED_TRACE(strfmt("site 0x%x", pc));
        EXPECT_TRUE(dist.entryMap.count(pc))
            << "stats charged to a PC that is not a fork site";
        EXPECT_LE(s.committed + s.squashed(), s.forked);
        sum.forked += s.forked;
        sum.committed += s.committed;
        sum.squashedLiveIn += s.squashedLiveIn;
        sum.squashedWrongPc += s.squashedWrongPc;
        sum.squashedOther += s.squashedOther;
        squashed += s.squashed();
    }
    EXPECT_EQ(sum.forked, c.tasksForked);
    EXPECT_EQ(sum.committed, c.tasksCommitted);
    EXPECT_EQ(sum.squashedLiveIn, c.tasksSquashedLiveIn);
    EXPECT_EQ(sum.squashedWrongPc, c.tasksSquashedWrongPc);
    EXPECT_LE(sum.squashedOther,
              c.tasksSquashedOverrun + c.tasksSquashedSpurious);
    EXPECT_LE(squashed, c.squashEvents);
}

} // anonymous namespace

TEST(SiteStats, SumsMatchMachineCounters)
{
    // gcc at this scale squashes on live-in mismatches; mcf and
    // bzip2 commit nearly everything. Together they cover both.
    for (const char *name : {"gcc", "mcf", "bzip2"}) {
        SCOPED_TRACE(name);
        PreparedWorkload w = prepareWorkload(name);
        MsspMachine m(w.orig, w.dist, MsspConfig{});
        MsspResult r = m.run(400000000ull);
        test::expectEquivalent(w.orig, r);
        ASSERT_FALSE(r.siteStats.empty());
        EXPECT_GT(m.counters().tasksCommitted, 0u);
        expectSiteStatsAddUp(w.dist, r, m.counters());
    }
}

TEST(SiteStats, IdenticalRunsGiveIdenticalTables)
{
    PreparedWorkload w = prepareWorkload("gcc");
    MsspMachine a(w.orig, w.dist, MsspConfig{});
    MsspMachine b(w.orig, w.dist, MsspConfig{});
    MsspResult ra = a.run(400000000ull);
    MsspResult rb = b.run(400000000ull);
    EXPECT_EQ(ra.siteStats, rb.siteStats);
    EXPECT_GT(a.counters().squashEvents, 0u)
        << "gcc no longer squashes at this scale; the table under "
           "test has no squash columns";
}

TEST(SiteStats, InjectedSquashesChargeTheHeadTaskSite)
{
    // gzip's window mixes tasks from its two loop sites, so charging
    // any task but the head would move squashes between sites.
    PreparedWorkload w = prepareWorkload("gzip");
    FaultPlan plan;
    plan.type = FaultType::SpuriousSquash;
    plan.rate = 0.3;
    plan.seed = 7;
    FaultInjector injector(plan);
    MsspMachine m(w.orig, w.dist, MsspConfig{});
    m.setFaultInjector(&injector);

    // The hook sees the head task of every verification squash;
    // tally what it sees per site, in ForkSiteStat's columns.
    std::map<uint32_t, ForkSiteStat> seen;
    uint64_t spurious = 0;
    m.setSquashHook([&](const Task &t, TaskOutcome why) {
        ForkSiteStat &s = seen[t.startPc];
        if (why == TaskOutcome::SquashedLiveIn)
            ++s.squashedLiveIn;
        else if (why == TaskOutcome::SquashedWrongPc)
            ++s.squashedWrongPc;
        else
            ++s.squashedOther;
        spurious += why == TaskOutcome::SquashedSpurious;
    });
    MsspResult r = m.run(400000000ull);
    test::expectEquivalent(w.orig, r);
    expectSiteStatsAddUp(w.dist, r, m.counters());

    const MsspCounters &c = m.counters();
    ASSERT_GT(c.tasksSquashedSpurious, 0u) << "nothing was injected";
    EXPECT_EQ(spurious, c.tasksSquashedSpurious);
    for (const auto &[pc, h] : seen) {
        SCOPED_TRACE(strfmt("site 0x%x", pc));
        auto it = r.siteStats.find(pc);
        ASSERT_NE(it, r.siteStats.end());
        const ForkSiteStat &s = it->second;
        EXPECT_EQ(s.squashedLiveIn, h.squashedLiveIn);
        EXPECT_EQ(s.squashedWrongPc, h.squashedWrongPc);
        // Watchdog squashes bypass the hook but may also charge
        // squashedOther; they only ever add.
        EXPECT_GE(s.squashedOther, h.squashedOther);
        if (c.watchdogSquashes == 0) {
            EXPECT_EQ(s.squashedOther, h.squashedOther);
        }
    }
    // And no site was charged a squash the hook never saw.
    for (const auto &[pc, s] : r.siteStats) {
        if (c.watchdogSquashes == 0) {
            EXPECT_EQ(s.squashed(), seen[pc].squashed())
                << strfmt("site 0x%x", pc);
        }
    }
}

} // namespace mssp
