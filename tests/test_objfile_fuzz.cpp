/**
 * @file
 * Seeded mutation fuzz gate for the untrusted-input parse paths
 * (asm/objfile.hh parseProgram/parseDistilled, asm/assembler.hh
 * parseAssembly).
 *
 * Starts from valid corpora — an assembled source file, a saved
 * Program object, a saved DistilledProgram object — and applies
 * seeded byte mutations (flips, overwrites, slice deletion and
 * duplication, truncation, insertion). Every mutant must produce a
 * structured outcome: either a parsed value or StatusCode::ParseError.
 * No crash, no unstructured exception escape, no unbounded
 * allocation (the fork-index cap is load-bearing here).
 *
 * Runs 300 seeds per corpus by default; the CI ASan leg and the
 * nightly deep gate raise it:
 *   MSSP_FUZZ_ITERS=5000 ./test_objfile_fuzz
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "helpers.hh"
#include "sim/rng.hh"

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
    return 300;
}

/** One seeded mutation of @p text (possibly several edits). */
std::string
mutate(const std::string &text, uint64_t seed)
{
    Rng rng(Rng::mix(0xf522ed, seed));
    std::string s = text;
    unsigned edits = 1 + rng.below(4);
    for (unsigned e = 0; e < edits && !s.empty(); ++e) {
        switch (rng.below(6)) {
          case 0: {   // flip one bit
            size_t i = rng.below(s.size());
            s[i] = static_cast<char>(s[i] ^ (1u << rng.below(8)));
            break;
          }
          case 1: {   // overwrite one byte with anything
            s[rng.below(s.size())] =
                static_cast<char>(rng.below(256));
            break;
          }
          case 2: {   // delete a slice
            size_t at = rng.below(s.size());
            size_t len = 1 + rng.below(64);
            s.erase(at, len);
            break;
          }
          case 3: {   // duplicate a slice (grows "fork 99999..."-like
                      // repetitions and doubled directives)
            size_t at = rng.below(s.size());
            size_t len = std::min<size_t>(1 + rng.below(64),
                                          s.size() - at);
            s.insert(at, s.substr(at, len));
            break;
          }
          case 4: {   // truncate
            s.resize(rng.below(s.size()));
            break;
          }
          default: {  // insert random bytes (incl. NUL and newlines)
            std::string junk;
            unsigned n = 1 + rng.below(16);
            for (unsigned i = 0; i < n; ++i)
                junk += static_cast<char>(rng.below(256));
            s.insert(rng.below(s.size() + 1), junk);
            break;
          }
        }
    }
    return s;
}

/** The shared corpus: one small prepared workload. */
struct Corpus
{
    std::string source;      ///< assembly text
    std::string object;      ///< saveProgram bytes
    std::string distilled;   ///< saveDistilled bytes
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus out;
        out.source = test::biasedSumSource(48, 11);
        PreparedWorkload w = prepare(out.source, out.source);
        out.object = saveProgram(w.orig);
        out.distilled = saveDistilled(w.dist);
        return out;
    }();
    return c;
}

TEST(ObjFileFuzz, ValidCorpusParses)
{
    EXPECT_TRUE(parseAssembly(corpus().source).ok());
    EXPECT_TRUE(parseProgram(corpus().object).ok());
    EXPECT_TRUE(parseDistilled(corpus().distilled).ok());
}

TEST(ObjFileFuzz, MutatedProgramObjectNeverEscapes)
{
    for (uint64_t seed = 0; seed < fuzzIters(); ++seed) {
        std::string mutant = mutate(corpus().object, seed);
        Result<Program> r = parseProgram(mutant);
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::ParseError)
                << "seed " << seed;
        }
    }
}

TEST(ObjFileFuzz, MutatedDistilledObjectNeverEscapes)
{
    for (uint64_t seed = 0; seed < fuzzIters(); ++seed) {
        std::string mutant = mutate(corpus().distilled, seed);
        Result<DistilledProgram> r = parseDistilled(mutant);
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::ParseError)
                << "seed " << seed;
        }
    }
}

TEST(ObjFileFuzz, MutatedAssemblyNeverEscapes)
{
    for (uint64_t seed = 0; seed < fuzzIters(); ++seed) {
        std::string mutant = mutate(corpus().source, seed);
        Result<Program> r = parseAssembly(mutant);
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::ParseError)
                << "seed " << seed;
        }
    }
}

TEST(ObjFileFuzz, HostileForkIndexIsBounded)
{
    // A handcrafted hostile header: without the cap this resize would
    // try to allocate tens of gigabytes of task map.
    std::string evil = "mssp-distilled v7\n"
                       "entry 0x1000\n"
                       "fork 4294967295 0x1000 1\n";
    Result<DistilledProgram> r = parseDistilled(evil);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::ParseError);
    EXPECT_NE(r.status().message().find("fork index"),
              std::string::npos);

    // At the cap itself the loader accepts (bounded, ~8 MiB worst
    // case) — the cap is a ceiling, not a tripwire.
    std::string edge = strfmt("mssp-distilled v7\n"
                              "entry 0x1000\n"
                              "fork %zu 0x1000 1\n",
                              kMaxForkIndex);
    EXPECT_TRUE(parseDistilled(edge).ok());
}

} // anonymous namespace
} // namespace mssp
