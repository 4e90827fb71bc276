/**
 * @file
 * Why passValueSpec is the one value-speculation mechanism
 * (DESIGN.md §5.3).
 *
 * passValueSpec bakes every address-invariant load the profile shows
 * running in a loop. What it leaves behind in a paper-preset image
 * can still carry a statically Proven value fact, and a second pass
 * could bake those without a profile. That pass would only pay if
 * such a load ran more than once per run: each bake saves the master
 * one load per execution. On every analogue, at the suite's scale
 * and at the paper's, a SEQ replay executes the leftover Proven
 * facts no more often in total than there are facts, so a static
 * bake would save about one master load per fact per run, and the
 * repository carries no such pass. A workload on which it would pay fails here, naming the
 * decision to revisit.
 */

#include <gtest/gtest.h>

#include "analysis/loadfacts.hh"
#include "eval/crossval.hh"
#include "helpers.hh"
#include "sim/logging.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

void
expectProvenFactsRunAtMostOnce(double scale)
{
    setQuiet(true);
    uint64_t observed = 0;
    for (const Workload &wl : specAnalogues(scale)) {
        SCOPED_TRACE(strfmt("%s at scale %g", wl.name.c_str(), scale));
        PreparedWorkload w = prepare(wl.refSource, wl.trainSource,
                                     DistillerOptions::paperPreset());
        analysis::LoadFacts facts =
            analysis::analyzeLoadFacts(w.orig, w.dist);
        size_t proven =
            analysis::specPlanReport(facts, w.dist).proven();
        LoadFactsDynamicResult dyn =
            validateLoadFactsDynamic(w.orig, w.dist, facts);
        EXPECT_EQ(dyn.provenMismatches, 0u) << dyn.firstViolation;
        EXPECT_LE(dyn.provenObservations, proven)
            << proven << " Proven value facts left in the paper-preset "
            << "image executed " << dyn.provenObservations
            << " times in one SEQ replay: baking them statically "
               "would now shorten the master's path. Revisit the "
               "one-mechanism decision in DESIGN.md §5.3.";
        observed += dyn.provenObservations;
    }
    // Non-vacuity: some Proven fact must be left over and executed,
    // or the bound above holds trivially.
    EXPECT_GT(observed, 0u);
}

} // anonymous namespace

TEST(OneValueSpecMechanism, LeftoverProvenFactsRunOnceAtSuiteScale)
{
    expectProvenFactsRunAtMostOnce(0.05);
}

TEST(OneValueSpecMechanism, LeftoverProvenFactsRunOnceAtPaperScale)
{
    expectProvenFactsRunAtMostOnce(1.0);
}

} // namespace mssp
