/**
 * @file
 * Static-risk vs. dynamic-misspeculation cross-validation gate: over
 * every registry workload, a distillation whose edits are all Proven
 * must produce zero divergence squashes on the full MSSP machine
 * (src/eval/crossval.hh). This is the falsifiable end-to-end claim
 * of the abstract interpreter.
 */

#include <gtest/gtest.h>

#include "eval/crossval.hh"
#include "helpers.hh"

namespace mssp
{

TEST(CrossVal, StaticRiskConsistentWithDynamicSquashes)
{
    setQuiet(true);
    MsspConfig cfg;
    CrossValReport rep = crossValidate(0.15, cfg, 80000000ull);

    ASSERT_EQ(rep.rows.size(), 12u);
    size_t rows_with_proven = 0;
    for (const CrossValRow &r : rep.rows) {
        EXPECT_TRUE(r.ok) << r.name << " did not run to completion";
        EXPECT_EQ(r.semanticErrors, 0u) << r.name;
        EXPECT_EQ(r.proven + r.risky + r.unknown, r.edits) << r.name;
        // Every static load carries a class, and no ProvablyInvariant
        // load ever changed value during the SEQ replay — a nonzero
        // count falsifies the alias analysis and is a test failure,
        // not a warning.
        EXPECT_GT(r.specLoads, 0u) << r.name;
        EXPECT_EQ(r.specProvablyInvariant + r.specRegionInvariant +
                      r.specRisky,
                  r.specLoads)
            << r.name;
        EXPECT_EQ(r.provInvariantValueChanges, 0u)
            << r.name
            << ": a provably-invariant load changed value at runtime";
        // No Proven candidate ever read a value other than its
        // prediction during the SEQ replay — one mismatch falsifies
        // the value-flow analysis.
        EXPECT_EQ(r.planProvenMismatches, 0u)
            << r.name
            << ": a Proven plan candidate read an unpredicted value";
        EXPECT_EQ(r.planProven + r.planLikely, r.planCandidates)
            << r.name;
        rows_with_proven += r.planProven > 0 ? 1 : 0;
        EXPECT_TRUE(r.consistent)
            << r.name << ": all-proven workload squashed "
            << r.divergenceSquashes << " tasks on divergence";
    }
    // Non-vacuity: the planner proves candidates on most of the
    // registry, not just one lucky workload (gzip legitimately has
    // none — all its loads are risky).
    EXPECT_GE(rows_with_proven, 8u) << rep.toText();
    EXPECT_TRUE(rep.allConsistent()) << rep.toText();

    std::string text = rep.toText();
    EXPECT_NE(text.find("gzip"), std::string::npos);
    EXPECT_NE(text.find("consistent"), std::string::npos);
}

} // namespace mssp
