/**
 * @file
 * Semantic translation-validation tests: honest distilled images
 * classify cleanly over every registry workload, and a seeded
 * corruption suite — flipped branch directions, corrupted fold
 * constants, stale value-spec words, fake dead-code and
 * unreachable-block claims, broken region metadata, non-silent store
 * elisions, and direct image patches — is flagged Risky or rejected
 * in every case.
 */

#include <gtest/gtest.h>

#include "analysis/absint.hh"
#include "analysis/verifier.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "helpers.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

using analysis::EditRisk;
using analysis::LintCheck;
using analysis::SemanticResult;
using analysis::Severity;
using analysis::verifyDistilledSemantic;

constexpr double kTestScale = 0.15;

size_t
countOf(const analysis::LintReport &rep, LintCheck check)
{
    size_t n = 0;
    for (const auto &f : rep.findings)
        n += f.check == check;
    return n;
}

size_t
errorsOf(const analysis::LintReport &rep, LintCheck check)
{
    size_t n = 0;
    for (const auto &f : rep.findings) {
        n += f.check == check && f.severity == Severity::Error;
    }
    return n;
}

/** The verdict for the edit at log position @p index. */
const analysis::EditVerdict &
verdictAt(const SemanticResult &sem, size_t index)
{
    for (const auto &v : sem.semantic.verdicts) {
        if (v.index == index)
            return v;
    }
    ADD_FAILURE() << "no verdict for edit " << index;
    static analysis::EditVerdict none;
    return none;
}

/** A prepared micro workload the corruption tests mutate. */
PreparedWorkload
preparedLoop()
{
    return prepare(test::biasedSumSource(96, 1),
                   test::biasedSumSource(96, 2),
                   DistillerOptions::paperPreset());
}

/** Build a fake edit with *correct* region/live-out metadata, so only
 *  the semantic claim under test is at fault. */
DistillEdit
fakeEdit(const Program &orig, DistillEdit::Pass pass, uint32_t pc,
         uint8_t reg, bool has_value, uint32_t value)
{
    Cfg cfg = Cfg::build(orig, orig.entry());
    auto live = computeLiveness(cfg);
    const BasicBlock *bb = analysis::containingBlock(cfg, pc);
    EXPECT_NE(bb, nullptr) << "fake edit pc outside all blocks";
    DistillEdit e;
    e.pass = pass;
    e.origPc = pc;
    e.reg = reg;
    e.hasValue = has_value;
    e.value = value;
    if (bb) {
        e.regionStart = bb->start;
        e.liveOut = live.at(bb->start).liveOut;
    }
    return e;
}

/** Source with a never-written constant-address load and a provably
 *  non-silent constant store, for the fake-edit corruption tests. */
std::string
constAddrSource()
{
    return "    la t0, data\n"
           "theload:\n"
           "    lw s1, 0(t0)\n"
           "    li t1, 9\n"
           "    la t2, cell\n"
           "thestore:\n"
           "    sw t1, 0(t2)\n"
           "    li s0, 0\n"
           "loop:\n"
           "    add t3, s0, s1\n"
           "    addi s0, s0, 1\n"
           "    li t4, 20\n"
           "    blt s0, t4, loop\n"
           "    out t3, 1\n"
           "    halt\n"
           ".org 0x8000\n"
           "data: .word 1234\n"
           "cell: .word 0\n";
}

/** Source whose entry block const-folds `add` into a live-out loadimm
 *  (the fold constant crosses a block boundary, so the region
 *  comparison sees it). */
std::string
foldableSource()
{
    return "    li t0, 10\n"
           "    li t1, 3\n"
           "    add t2, t0, t1\n"
           "    jal zero, next\n"
           "next:\n"
           "    out t2, 1\n"
           "    halt\n";
}

} // anonymous namespace

// -- Honest images classify cleanly -------------------------------------

class SemanticWorkloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SemanticWorkloads, EveryEditClassifiedNoErrors)
{
    // "random_N" names random program family seed N (trained on
    // itself); every other name is a registry workload.
    Workload w;
    if (GetParam().rfind("random_", 0) == 0) {
        w.refSource = randomProgramSource(
            std::stoull(GetParam().substr(7)));
        w.trainSource = w.refSource;
    } else {
        w = workloadByName(GetParam(), kTestScale);
    }
    PreparedWorkload p = prepare(w.refSource, w.trainSource,
                                 DistillerOptions::paperPreset());
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);

    // One verdict per recorded edit, each with a justification.
    ASSERT_EQ(sem.semantic.verdicts.size(),
              p.dist.report.edits.size());
    EXPECT_EQ(sem.semantic.proven() + sem.semantic.risky() +
                  sem.semantic.unknown(),
              sem.semantic.verdicts.size());
    for (const auto &v : sem.semantic.verdicts)
        EXPECT_FALSE(v.detail.empty()) << "edit " << v.index;

    // An honest distillation never trips an error-severity semantic
    // finding (risky approximate edits only warn — MSSP recovers).
    EXPECT_EQ(sem.lint.errors(), 0u) << sem.lint.toText();
}

// random_363: DCE and branch pruning empty a whole original block, so
// its addr-map entry points at the next block's code; the region
// comparison must not compare the two.
INSTANTIATE_TEST_SUITE_P(
    All, SemanticWorkloads,
    ::testing::Values("gzip", "vpr", "gcc", "mcf", "crafty", "parser",
                      "eon", "perlbmk", "gap", "vortex", "bzip2",
                      "twolf", "random_363"),
    [](const auto &info) { return info.param; });

TEST(Semantic, SurvivesObjfileRoundTrip)
{
    PreparedWorkload p = preparedLoop();
    DistilledProgram reloaded = loadDistilled(saveDistilled(p.dist));
    SemanticResult a = verifyDistilledSemantic(p.orig, p.dist);
    SemanticResult b = verifyDistilledSemantic(p.orig, reloaded);
    ASSERT_EQ(a.semantic.verdicts.size(), b.semantic.verdicts.size());
    for (size_t i = 0; i < a.semantic.verdicts.size(); ++i) {
        EXPECT_EQ(a.semantic.verdicts[i].risk,
                  b.semantic.verdicts[i].risk);
    }
    EXPECT_EQ(b.lint.errors(), 0u) << b.lint.toText();
}

TEST(Semantic, ProvenConstFoldAcrossBlocks)
{
    PreparedWorkload p = prepare(foldableSource(), foldableSource(),
                                 DistillerOptions::paperPreset());
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    EXPECT_EQ(sem.lint.errors(), 0u) << sem.lint.toText();

    bool found = false;
    for (const auto &v : sem.semantic.verdicts) {
        if (v.edit.pass == DistillEdit::Pass::ConstFold &&
            v.edit.reg == reg::T2) {
            found = true;
            EXPECT_EQ(v.risk, EditRisk::Proven) << v.detail;
            EXPECT_EQ(v.edit.value, 13u);
        }
    }
    EXPECT_TRUE(found) << "distiller recorded no const-fold of t2";
}

// -- Corruption class 1: flipped branch direction -----------------------

TEST(SemanticCorruption, FlippedBranchDirectionIsRejected)
{
    Workload w = workloadByName("gzip", kTestScale);
    PreparedWorkload p = prepare(w.refSource, w.trainSource,
                                 DistillerOptions::paperPreset());
    size_t idx = SIZE_MAX;
    for (size_t i = 0; i < p.dist.report.edits.size(); ++i) {
        const DistillEdit &e = p.dist.report.edits[i];
        if (e.pass == DistillEdit::Pass::BranchPrune ||
            (e.pass == DistillEdit::Pass::ConstFold && e.reg == 0)) {
            idx = i;
            break;
        }
    }
    ASSERT_NE(idx, SIZE_MAX) << "no branch edit to corrupt";

    p.dist.report.edits[idx].value ^= 1;
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    // The image transfers to the *original* direction's target, so
    // the flipped claim cannot survive the metadata cross-check.
    EXPECT_GT(sem.lint.errors(), 0u) << sem.lint.toText();
    EXPECT_GE(errorsOf(sem.lint, LintCheck::EditMetadata), 1u);
    EXPECT_NE(verdictAt(sem, idx).risk, EditRisk::Proven);
}

// -- Corruption class 2: corrupted fold constant ------------------------

TEST(SemanticCorruption, CorruptedConstFoldValueIsAnError)
{
    PreparedWorkload p = prepare(foldableSource(), foldableSource(),
                                 DistillerOptions::paperPreset());
    size_t idx = SIZE_MAX;
    for (size_t i = 0; i < p.dist.report.edits.size(); ++i) {
        const DistillEdit &e = p.dist.report.edits[i];
        if (e.pass == DistillEdit::Pass::ConstFold && e.reg != 0) {
            idx = i;
            break;
        }
    }
    ASSERT_NE(idx, SIZE_MAX) << "no register const-fold to corrupt";

    p.dist.report.edits[idx].value += 1;
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    const auto &v = verdictAt(sem, idx);
    EXPECT_EQ(v.risk, EditRisk::Risky) << v.detail;
    EXPECT_GE(errorsOf(sem.lint, LintCheck::SemanticConst), 1u)
        << sem.lint.toText();
}

// -- Corruption class 3: stale value-spec constant ----------------------

TEST(SemanticCorruption, StaleValueSpecConstantIsRisky)
{
    PreparedWorkload p =
        prepare(constAddrSource(), constAddrSource(),
                DistillerOptions::paperPreset());
    uint32_t pc = p.orig.symbols().at("theload");
    // Claim the load always yields 1235; the never-written image word
    // holds 1234, so the claim is provably stale.
    p.dist.report.edits.push_back(fakeEdit(
        p.orig, DistillEdit::Pass::ValueSpec, pc, reg::S1, true,
        1235));
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    const auto &v =
        verdictAt(sem, p.dist.report.edits.size() - 1);
    EXPECT_EQ(v.risk, EditRisk::Risky) << v.detail;
    EXPECT_NE(v.detail.find("stale"), std::string::npos) << v.detail;
    EXPECT_GE(countOf(sem.lint, LintCheck::SemanticLoad), 1u);
}

// -- Corruption class 4: fake dead-code claim ---------------------------

TEST(SemanticCorruption, FakeDceOfLiveRegisterIsAnError)
{
    PreparedWorkload p = preparedLoop();
    // loop+2 is `add s3, s3, t1`; s3 is demanded by the final `out`.
    uint32_t pc = p.orig.symbols().at("loop") + 2;
    p.dist.report.edits.push_back(fakeEdit(
        p.orig, DistillEdit::Pass::Dce, pc, reg::S3, false, 0));
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    const auto &v =
        verdictAt(sem, p.dist.report.edits.size() - 1);
    EXPECT_EQ(v.risk, EditRisk::Risky) << v.detail;
    EXPECT_GE(errorsOf(sem.lint, LintCheck::SemanticLiveOut), 1u)
        << sem.lint.toText();
}

// -- Corruption class 5: fake unreachable-block claim -------------------

TEST(SemanticCorruption, FakeUnreachableElimOfLiveBlockIsAnError)
{
    PreparedWorkload p = preparedLoop();
    uint32_t pc = p.orig.symbols().at("loop");
    p.dist.report.edits.push_back(
        fakeEdit(p.orig, DistillEdit::Pass::UnreachableElim, pc, 0,
                 false, 0));
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    const auto &v =
        verdictAt(sem, p.dist.report.edits.size() - 1);
    EXPECT_EQ(v.risk, EditRisk::Risky) << v.detail;
    // The finding carries a concrete counterexample path.
    EXPECT_NE(v.detail.find("reachable"), std::string::npos);
    EXPECT_GE(errorsOf(sem.lint, LintCheck::SemanticUnreachable), 1u)
        << sem.lint.toText();
}

// -- Corruption class 6: broken region metadata -------------------------

TEST(SemanticCorruption, WrongRegionStartIsAnError)
{
    PreparedWorkload p = preparedLoop();
    ASSERT_FALSE(p.dist.report.edits.empty());
    p.dist.report.edits[0].regionStart += 1;
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    EXPECT_GE(errorsOf(sem.lint, LintCheck::EditMetadata), 1u)
        << sem.lint.toText();
}

TEST(SemanticCorruption, WrongLiveOutMaskIsAnError)
{
    PreparedWorkload p = preparedLoop();
    ASSERT_FALSE(p.dist.report.edits.empty());
    p.dist.report.edits[0].liveOut ^= 1u << reg::S9;
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    EXPECT_GE(errorsOf(sem.lint, LintCheck::EditMetadata), 1u)
        << sem.lint.toText();
}

// -- Corruption class 7: fake silent-store claim ------------------------

TEST(SemanticCorruption, ProvablyNonSilentStoreElisionIsRisky)
{
    PreparedWorkload p =
        prepare(constAddrSource(), constAddrSource(),
                DistillerOptions::paperPreset());
    uint32_t pc = p.orig.symbols().at("thestore");
    // The store always writes 9 over an image word holding 0.
    p.dist.report.edits.push_back(
        fakeEdit(p.orig, DistillEdit::Pass::SilentStoreElim, pc, 0,
                 false, 0));
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    const auto &v =
        verdictAt(sem, p.dist.report.edits.size() - 1);
    EXPECT_EQ(v.risk, EditRisk::Risky) << v.detail;
    EXPECT_NE(v.detail.find("not silent"), std::string::npos)
        << v.detail;
    EXPECT_GE(countOf(sem.lint, LintCheck::SemanticStore), 1u);
}

// -- Corruption class 8: image patched behind the edit log --------------

TEST(SemanticCorruption, PatchedFoldConstantInImageIsAnError)
{
    PreparedWorkload p = prepare(foldableSource(), foldableSource(),
                                 DistillerOptions::paperPreset());
    // Locate the loadimm the proven t2 const-fold emitted and bake a
    // *different* constant into the distilled image, leaving the edit
    // log untouched — only the end-to-end region comparison can
    // catch this.
    uint32_t patched_pc = UINT32_MAX;
    for (const auto &[addr, word] : p.dist.prog.image()) {
        Instruction inst = decode(word);
        if (inst.op == Opcode::Addi && inst.rd == reg::T2 &&
            inst.rs1 == reg::Zero && inst.imm == 13) {
            patched_pc = addr;
            break;
        }
    }
    ASSERT_NE(patched_pc, UINT32_MAX)
        << "no loadimm for the folded constant in the image";
    p.dist.prog.setWord(
        patched_pc, encode(makeI(Opcode::Addi, reg::T2, reg::Zero,
                                 14)));

    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    EXPECT_GE(errorsOf(sem.lint, LintCheck::SemanticLiveOut), 1u)
        << sem.lint.toText();
}

// -- Reporting ----------------------------------------------------------

TEST(Semantic, JsonCarriesPerEditRisk)
{
    PreparedWorkload p = preparedLoop();
    SemanticResult sem = verifyDistilledSemantic(p.orig, p.dist);
    ASSERT_FALSE(sem.semantic.verdicts.empty());

    std::string json = sem.toJson();
    EXPECT_NE(json.find("\"edits\": ["), std::string::npos);
    EXPECT_NE(json.find("\"risk\": \""), std::string::npos);
    EXPECT_NE(json.find("\"findings\": ["), std::string::npos);

    std::string text = sem.semantic.toText();
    EXPECT_NE(text.find("proven"), std::string::npos);
    EXPECT_NE(text.find(strfmt("%zu edit(s)",
                               sem.semantic.verdicts.size())),
              std::string::npos);
}

} // namespace mssp
