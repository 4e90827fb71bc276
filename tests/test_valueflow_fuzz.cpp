/**
 * @file
 * Fuzz gate for the Proven value facts: every random program family
 * seed is distilled at the paper preset, analyzed once, and every
 * Proven candidate's predicted value is checked against one bounded
 * SEQ replay of the merged image. A Proven prediction that a real
 * execution contradicts is a soundness bug in the value-flow solve,
 * never acceptable. Likely candidates only accumulate hit rates; they
 * are allowed to miss. tests/test_specsafe_fuzz.cpp gates the
 * ProvablyInvariant classes of the same analysis.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_valueflow_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/loadfacts.hh"
#include "core/pipeline.hh"
#include "eval/crossval.hh"
#include "helpers.hh"
#include "workloads/random_program.hh"

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

} // anonymous namespace

TEST(ValueFlowFuzz, ProvenPredictionsSurviveLockstepExecution)
{
    unsigned iters = fuzzIters();
    size_t total_candidates = 0;
    size_t total_proven = 0;
    uint64_t total_observations = 0;

    for (uint64_t seed = 1; seed <= iters; ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());

        analysis::LoadFacts facts =
            analysis::analyzeLoadFacts(w.orig, w.dist);
        analysis::SpecPlanReport plan =
            analysis::specPlanReport(facts, w.dist);
        total_candidates += plan.candidates.size();
        total_proven += plan.proven();

        // Differential check: no bounded replay of the merged image
        // may contradict a Proven predicted value (zero false
        // predictions, the fuzz gate's point).
        LoadFactsDynamicResult dyn =
            validateLoadFactsDynamic(w.orig, w.dist, facts);
        EXPECT_EQ(dyn.provenMismatches, 0u) << dyn.firstViolation;
        total_observations += dyn.provenObservations;
    }

    // The gate must not pass vacuously: over the seed range the
    // analysis does prove candidates and execution does exercise
    // them.
    EXPECT_GT(total_candidates, 0u);
    EXPECT_GT(total_proven, 0u);
    EXPECT_GT(total_observations, 0u);
}

} // namespace mssp
