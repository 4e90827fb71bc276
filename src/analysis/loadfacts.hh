/**
 * @file
 * Load facts: one static analysis of every load in a distilled image.
 *
 * The paper's distiller may speculate anything, because the slaves
 * verify every task; static load facts are therefore a lint and
 * cross-validation aid, not part of the distilled program. They are
 * computed on demand — by mssp-lint, the suite and crossval — and
 * never persisted (DESIGN.md §5.3).
 *
 * analyzeLoadFacts() builds the set-up once: the original program's
 * CFG and interval abstract interpretation (analysis/absint.hh), the
 * merged image (original with the distilled code superimposed; they
 * share the data address space) with its CFG and abstract
 * interpretation, and the store sets with fork-region masks
 * (analysis/alias.hh). Over that one set-up it derives, per static
 * load of the distilled code:
 *
 *  - a safety class:
 *    - ProvablyInvariant: the address is exactly known, is not
 *      device space, and *no* store anywhere in the merged program
 *      may alias it — the load returns the image word on every
 *      execution;
 *    - RegionInvariant: aliasing stores exist, but no distilled
 *      store can execute in any fork region the load executes in —
 *      invariant between fork boundaries, not across them;
 *    - Risky: an aliasing distilled store shares a region with the
 *      load (the counterexample names the store and its interval),
 *      the address could not be pinned, or the load reads device
 *      space;
 *  - its fork-region mask;
 *  - optionally a value fact, from one memory-extended value-flow
 *    solve: the abstract state additionally carries one interval per
 *    tracked word (the constant, non-device addresses of invariant-
 *    class loads); exact-address stores update a tracked word
 *    strongly, overlapping ones join in weakly, decided branches are
 *    pruned. A Proven fact is one constant on every path to the load
 *    (or every aliasing store rewrites the image word); a Likely fact
 *    has a small non-singleton feasible set (image word joined with
 *    every aliasing store's constant) and names the demoting store.
 *
 * Both abstract interpretations run in two passes: the sequential
 * original program seeds register and tracked-memory state at every
 * master restart point, so facts survive the loops fork sites sit in.
 *
 * Two reports project the result: the speculation-safety report
 * (`mssp-lint --specsafe`, schema mssp-specsafe-v1) and the ranked
 * speculation plan (`mssp-lint --plan`, schema mssp-specplan-v1),
 * whose benefit ranking is a step over the facts. Both claims are
 * falsified dynamically by one SEQ replay of the merged image
 * (eval/crossval.hh validateLoadFactsDynamic).
 */

#ifndef MSSP_ANALYSIS_LOADFACTS_HH
#define MSSP_ANALYSIS_LOADFACTS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/alias.hh"
#include "analysis/verifier.hh"

namespace mssp::analysis
{

/** Speculation-safety class of one static load (file comment). */
enum class LoadSpecClass : uint8_t
{
    ProvablyInvariant,
    RegionInvariant,
    Risky,
};

/** Stable lower-case class name ("provably-invariant", ...). */
const char *loadSpecClassName(LoadSpecClass cls);

/**
 * Proof strength of a predicted load value. A Proven fact may
 * observe exactly one value on any execution of the merged image —
 * a dynamic counterexample fails the crossval gate outright; a
 * Likely fact has a small non-singleton feasible constant set.
 */
enum class ValueProof : uint8_t
{
    Proven,
    Likely,
};

/** Stable lower-case proof name ("proven" / "likely"). */
const char *valueProofName(ValueProof proof);

/** What one load reads, and how sure the analysis is of it. */
struct LoadValueFact
{
    ValueProof proof = ValueProof::Proven;
    /** Predicted value: the single feasible constant (Proven) or the
     *  initial image word (Likely). */
    uint32_t value = 0;
    /** Every constant the word can feasibly hold at the load,
     *  ascending; singleton exactly for Proven facts. */
    std::vector<uint32_t> feasible;
    /** Demoting store for Likely facts (UINT32_MAX otherwise). */
    uint32_t storePc = UINT32_MAX;
    /** Proof sketch: which rule fired and from what evidence. */
    std::string detail;
};

/** Everything the analysis says about one static load. */
struct LoadFact
{
    uint32_t pc = 0;               ///< distilled PC of the load
    LoadSpecClass cls = LoadSpecClass::Risky;
    AbsVal addr;                   ///< abstract address of the load
    /** Class proof sketch (invariant classes) or counterexample. */
    std::string detail;
    /** Counterexample store PC (UINT32_MAX when not applicable). */
    uint32_t storePc = UINT32_MAX;
    /** Counterexample store's address interval. */
    AbsVal storeAddr = AbsVal::bottom();
    /** Fork regions the load can execute in (every region when the
     *  control-flow discovery missed it). */
    RegionMask regions = RegionAll;
    /** Value fact, when the load has one. */
    std::optional<LoadValueFact> value;
};

/** The one analysis result for one image. */
struct LoadFacts
{
    /** Every static load of the distilled image, ascending by PC. */
    std::vector<LoadFact> loads;
    /** Loads eligible for a value fact (constant non-device address,
     *  invariant class); the loads with a fact are a subset. */
    size_t valueEligible = 0;
    /** Region-mask in-state per merged-image block leader. */
    std::map<uint32_t, RegionMask> blockRegions;
};

/** Feasible-set bound: loads with more reaching constants than this
 *  get no value fact (predicting 1-of-N is hopeless for large N). */
constexpr size_t kMaxFeasibleValues = 8;

/**
 * The original image with the distilled code superimposed: distilled
 * code words overlay @p orig (they live at DistilledCodeBase, far
 * from original code and data) and the entry moves to the distilled
 * entry. This is the address space the master executes in, and the
 * program the dynamic validation gate runs on SEQ.
 */
Program mergedImage(const Program &orig,
                    const DistilledProgram &dist);

/** Run the load-fact analysis over @p orig + @p dist. */
LoadFacts analyzeLoadFacts(const Program &orig,
                           const DistilledProgram &dist);

/** The speculation-safety projection of the facts. */
struct SpecSafeReport
{
    std::vector<LoadFact> loads;   ///< ascending by PC

    /** Always clean: no load metadata is persisted in an image, so
     *  there is nothing to validate. Kept because the JSON schema
     *  embeds a lint object. */
    LintReport lint;

    size_t provablyInvariant() const;
    size_t regionInvariant() const;
    size_t risky() const;

    /** One line per load plus a summary line. */
    std::string toText() const;

    /** Deterministic JSON document, schema mssp-specsafe-v1. With a
     *  non-empty @p workload the document names it. */
    std::string toJson(const std::string &workload = "") const;
};

/** One ranked speculation candidate: a load with a value fact. */
struct SpecPlanCandidate
{
    uint32_t pc = 0;       ///< distilled PC of the load
    uint32_t addr = 0;     ///< constant address it reads
    LoadSpecClass cls = LoadSpecClass::ProvablyInvariant;
    ValueProof proof = ValueProof::Proven;
    uint32_t value = 0;    ///< predicted value
    /** Feasible constant set, ascending (singleton for Proven). */
    std::vector<uint32_t> feasible;
    /** Demoting store for Likely candidates (UINT32_MAX otherwise). */
    uint32_t storePc = UINT32_MAX;
    /** Expected benefit in micro-units (higher = speculate first). */
    uint64_t benefitMicro = 0;
    std::string detail;    ///< the value fact's proof sketch
};

/** The speculation-plan projection of the facts. */
struct SpecPlanReport
{
    /** Candidates in rank order: benefit descending, PC ascending. */
    std::vector<SpecPlanCandidate> candidates;

    /** Loads eligible for a value fact (coverage denominator). */
    size_t loadsConsidered = 0;

    /** Always clean (see SpecSafeReport::lint). */
    LintReport lint;

    size_t proven() const;
    size_t likely() const;

    /** One line per candidate plus a summary line. */
    std::string toText() const;

    /** Deterministic JSON document, schema mssp-specplan-v1. With a
     *  non-empty @p workload the document names it. */
    std::string toJson(const std::string &workload = "") const;
};

/** Project @p facts onto the speculation-safety report. */
SpecSafeReport specSafeReport(const LoadFacts &facts);

/**
 * Rank the loads of @p facts that carry a value fact by expected
 * benefit (DESIGN.md §5.3 cost model). @p dist is the image the facts
 * describe; its distill report supplies the leverage and guard terms.
 */
SpecPlanReport specPlanReport(const LoadFacts &facts,
                              const DistilledProgram &dist);

/** analyzeLoadFacts() projected onto the safety report. */
SpecSafeReport analyzeSpecSafe(const Program &orig,
                               const DistilledProgram &dist);

/** analyzeLoadFacts() projected onto the ranked plan. */
SpecPlanReport analyzeSpecPlan(const Program &orig,
                               const DistilledProgram &dist);

} // namespace mssp::analysis

#endif // MSSP_ANALYSIS_LOADFACTS_HH
