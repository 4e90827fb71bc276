/**
 * @file
 * Lockstep fuzz gate for paper-preset images of random programs.
 *
 * The paper preset turns on the two approximate memory passes,
 * silent-store elimination and load-value speculation
 * (passValueSpec), that the default options leave off, so no other
 * fuzz gate drives them over random programs. Every seed is profiled,
 * distilled with the preset and run on the full MSSP machine; the
 * committed architectural results (halt flag, outputs, retired
 * instruction count) must equal the SEQ oracle running the original
 * program. A baked value the machine fails to police shows up here as
 * an output or instret divergence.
 *
 * The image itself must be a pure function of its inputs
 * (byte-identical on re-distillation) and clean under the structural
 * and semantic validators.
 *
 * Runs 25 seeds by default (fast enough for ctest); the full gate is
 *   MSSP_FUZZ_ITERS=500 ./test_speculate_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "exec/seq_machine.hh"
#include "mssp/machine.hh"
#include "sim/logging.hh"
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

TEST(SpeculateFuzz, PaperPresetImagesCommitSeqIdenticalState)
{
    setQuiet(true);
    uint64_t value_speced = 0;
    for (uint64_t seed = 1; seed <= fuzzIters(); ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        SeqMachine oracle(prog);
        oracle.run(10000000ull);
        if (!oracle.halted())
            continue;   // fuzz family can fault; nothing to verify

        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());
        value_speced += w.dist.report.loadsValueSpeced;

        MsspMachine m(prog, w.dist, MsspConfig{});
        MsspResult r = m.run(10000000ull);
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.outputs, oracle.outputs());
        EXPECT_EQ(r.committedInsts, oracle.instCount());
    }
    // Non-vacuity: across the seed range passValueSpec must actually
    // bake something, or this gate tests nothing.
    EXPECT_GT(value_speced, 0u);
}

TEST(SpeculateFuzz, PaperPresetImagesAreDeterministicAndLintClean)
{
    setQuiet(true);
    for (uint64_t seed = 1; seed <= fuzzIters(); ++seed) {
        SCOPED_TRACE(strfmt("seed %llu",
                            static_cast<unsigned long long>(seed)));
        Program prog = assemble(randomProgramSource(seed));
        PreparedWorkload w =
            prepare(prog, prog, DistillerOptions::paperPreset());
        DistilledProgram again =
            distill(prog, w.profile, DistillerOptions::paperPreset());
        EXPECT_EQ(saveDistilled(w.dist), saveDistilled(again));

        analysis::LintReport rep = analysis::verifyDistilled(prog, w.dist);
        EXPECT_EQ(rep.errors(), 0u) << rep.toText();
        analysis::SemanticResult sem =
            analysis::verifyDistilledSemantic(prog, w.dist);
        EXPECT_EQ(sem.lint.errors(), 0u) << sem.lint.toText();
    }
}

} // namespace mssp
