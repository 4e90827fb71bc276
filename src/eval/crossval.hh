/**
 * @file
 * Static-risk vs. dynamic-misspeculation cross-validation.
 *
 * The semantic translation validator (analysis/verifier.hh) makes a
 * falsifiable claim per workload: if *every* distiller edit is
 * Proven, no task may ever squash on live-in divergence or a wrong
 * predicted PC. This harness runs each registry workload through the
 * full MSSP machine and correlates the static risk classes with the
 * dynamic divergence-squash counters — a Proven-only workload with
 * divergence squashes falsifies the abstract interpreter (that is
 * the cross-validation gate in tests/test_crossval.cpp).
 *
 * The load-fact analysis (analysis/loadfacts.hh) makes two more
 * falsifiable claims: a load classified ProvablyInvariant never
 * observes a changed value at runtime, and a Proven value fact
 * predicts the exact value its load reads, every time.
 * validateLoadFactsDynamic() checks both in one SEQ replay of the
 * merged image — any value change or Proven mismatch falsifies the
 * analysis and fails the gate; Likely facts only accumulate an
 * observed hit rate.
 */

#ifndef MSSP_EVAL_CROSSVAL_HH
#define MSSP_EVAL_CROSSVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/loadfacts.hh"
#include "mssp/config.hh"

namespace mssp
{

/** One workload's static risk profile vs. dynamic behaviour. */
struct CrossValRow
{
    std::string name;
    bool ok = false;            ///< run halted + output-equivalent

    size_t edits = 0;
    size_t proven = 0;
    size_t risky = 0;
    size_t unknown = 0;
    size_t semanticErrors = 0;  ///< error-severity semantic findings

    /** Squashes attributable to distillation divergence (live-in
     *  mismatch + wrong fork PC), not capacity effects. */
    uint64_t divergenceSquashes = 0;

    // Load-fact safety classes (analysis/loadfacts.hh)
    size_t specLoads = 0;
    size_t specProvablyInvariant = 0;
    size_t specRegionInvariant = 0;
    size_t specRisky = 0;
    /** Dynamic value changes observed at ProvablyInvariant loads.
     *  Any nonzero count falsifies the alias analysis. */
    uint64_t provInvariantValueChanges = 0;

    // The speculation plan ranked from the load facts' values
    size_t planCandidates = 0;
    size_t planProven = 0;
    size_t planLikely = 0;
    /** Observed values at Proven candidates that differed from the
     *  prediction. Any nonzero count falsifies the value-flow
     *  analysis. */
    uint64_t planProvenMismatches = 0;
    uint64_t planLikelyObservations = 0;
    uint64_t planLikelyHits = 0;  ///< observed == predicted

    /** The falsifiable claims: all-proven implies zero divergence
     *  squashes, ProvablyInvariant loads never change value, and
     *  Proven plan candidates always read the predicted value.
     *  (Risky/unknown edits do not *require* squashes — static
     *  analysis over-approximates; Likely candidates may miss.) */
    bool consistent = false;
};

/** What validateLoadFactsDynamic() observed. */
struct LoadFactsDynamicResult
{
    size_t invariantLoads = 0;      ///< ProvablyInvariant static loads
    uint64_t invariantObservations = 0;  ///< executions of those
    uint64_t valueChanges = 0;      ///< value differed from last time
    uint64_t provenObservations = 0;  ///< executions of Proven loads
    uint64_t provenMismatches = 0;  ///< misses at Proven value facts
    uint64_t likelyObservations = 0;
    uint64_t likelyHits = 0;        ///< observed == predicted
    std::string firstViolation;     ///< first change or mismatch
};

/**
 * Replay the merged image (original overlaid with the distilled
 * code, entry at the distilled entry) on the SEQ reference machine
 * for at most @p max_insts instructions and check @p facts against
 * every value a tracked load reads, per static PC: a ProvablyInvariant
 * load whose value changes between two executions is a counterexample
 * to the classification, a Proven value fact reading anything but its
 * prediction one to the value-flow solve. Likely facts accumulate
 * their hit rate.
 */
LoadFactsDynamicResult validateLoadFactsDynamic(
    const Program &orig, const DistilledProgram &dist,
    const analysis::LoadFacts &facts,
    uint64_t max_insts = 20000000ull);

/** Cross-validation over a workload set. */
struct CrossValReport
{
    std::vector<CrossValRow> rows;

    bool allConsistent() const;

    /** Aligned table, one row per workload. */
    std::string toText() const;
};

/**
 * Run the cross-validation over all registry workloads at @p scale
 * (1.0 = paper-size inputs), using the paper-preset distiller.
 * Workloads shard across @p jobs host threads (sim/parallel.hh);
 * rows always come back in registry order, so the report is
 * identical for any job count.
 */
CrossValReport crossValidate(double scale, const MsspConfig &cfg,
                             uint64_t max_cycles = 400000000ull,
                             unsigned jobs = 1);

} // namespace mssp

#endif // MSSP_EVAL_CROSSVAL_HH
