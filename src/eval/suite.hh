/**
 * @file
 * mssp-suite: the whole evaluation as one sharded job graph.
 *
 * One invocation runs, for every registry workload, the full chain
 * the repo's individual tools cover piecemeal:
 *
 *   distill   assemble + profile + distill (core/pipeline.hh)
 *   lint      structural verification (analysis/verifier.hh)
 *   semantic  translation validation of every distiller edit
 *   loadfacts one load-fact analysis (analysis/loadfacts.hh): safety
 *             classes, plan candidates, and one SEQ replay for the
 *             value-change and Proven-mismatch counts + hit rates
 *   run       full MSSP machine vs the sequential baseline
 *   crossval  static risk vs dynamic divergence-squash consistency,
 *             plus the ProvablyInvariant value-change and Proven
 *             prediction-mismatch gates
 *   campaign  the fault-injection sweep against the SEQ oracle
 *
 * The job graph has two sharded phases (sim/parallel.hh). Phase one
 * runs one job per workload: the pipeline stages above through
 * crossval, then seeds the campaign's SeqOracleCache from the
 * already-prepared pipeline. Phase two is the campaign cell sweep
 * (workload x fault type x intensity), sharded over the same pool
 * and reusing those oracles — no workload is ever prepared twice.
 *
 * Both phases run *supervised* (sim/supervisor.hh): every job gets a
 * per-attempt budget and N-strikes retry, and a job that exhausts its
 * attempts is quarantined — its structured Status lands in the report
 * and every healthy result still merges. Host chaos (fault/
 * hostchaos.hh) injects deterministic stalls/throws/cancels through
 * the same seam for the CI chaos job.
 *
 * The report is one deterministic JSON document (schema
 * mssp-suite-v7): per-run seeds derive from canonical job indices
 * and results merge in canonical order, so `--jobs N` output is
 * byte-identical to `--jobs 1` (wall-clock deadline trips excepted —
 * see JobBudget). CI runs the suite on every push with all 12
 * workloads and diffs a serial rerun against it (docs/CI.md).
 */

#ifndef MSSP_EVAL_SUITE_HH
#define MSSP_EVAL_SUITE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/experiment.hh"
#include "fault/campaign.hh"

namespace mssp
{

/** What to run (defaults reproduce the CI suite job). */
struct SuiteOptions
{
    /** Workload names; empty = all registry analogues. */
    std::vector<std::string> workloads;
    double scale = 0.05;     ///< workload scale (see specAnalogues)
    uint64_t seed = 1;       ///< campaign seed (per-run seeds derive)
    unsigned jobs = 1;       ///< host threads (CLIs default to hw)
    /** Campaign intensity multipliers (see CampaignOptions). */
    std::vector<double> intensities{1.0, 10.0};
    uint64_t campaignMaxCycles = 0;   ///< 0 = derive from oracle
    uint64_t runMaxCycles = 400000000ull;   ///< MSSP run cycle cap
    /** Supervision for both phases: retry shape, per-attempt job
     *  budget, and host-chaos plan (seed 0 = chaos off). */
    RetryPolicy retry{/*maxAttempts=*/3};
    JobBudget jobBudget;
    HostChaosPlan chaos;
};

/** Everything phase one measures for one workload. */
struct SuiteWorkloadResult
{
    std::string name;

    // lint (structural verification)
    size_t lintErrors = 0;
    size_t lintWarnings = 0;

    // semantic translation validation
    size_t edits = 0;
    size_t proven = 0;
    size_t risky = 0;
    size_t unknown = 0;
    size_t semanticErrors = 0;

    // load-fact safety classes (analysis/loadfacts.hh)
    size_t specLoads = 0;
    size_t specProvablyInvariant = 0;
    size_t specRegionInvariant = 0;
    size_t specRisky = 0;
    uint64_t specViolations = 0;  ///< PI loads that changed value

    // the speculation plan ranked from the load facts' values
    size_t planCandidates = 0;
    size_t planProven = 0;
    size_t planLikely = 0;
    uint64_t planProvenMismatches = 0;  ///< Proven misses (gate: 0)
    uint64_t planLikelyObservations = 0;
    uint64_t planLikelyHits = 0;

    // MSSP run vs baseline
    WorkloadRun run;

    // crossval: all-proven workloads must not squash on divergence
    uint64_t divergenceSquashes = 0;
    bool consistent = false;

    bool
    ok() const
    {
        return lintErrors == 0 && semanticErrors == 0 &&
               specViolations == 0 && planProvenMismatches == 0 &&
               run.ok && consistent;
    }
};

/** The whole evaluation. */
struct SuiteReport
{
    SuiteOptions options;            ///< as resolved (lists filled in)
    /** Healthy phase-one results only, canonical order (quarantined
     *  workloads are in evalQuarantine instead). */
    std::vector<SuiteWorkloadResult> workloads;
    /** Phase-one jobs that failed every attempt. */
    QuarantineReport evalQuarantine;
    CampaignReport campaign;

    /** Workloads failing any phase-one gate. */
    size_t evalFailures() const;

    /** Quarantined jobs across both phases. */
    size_t
    quarantinedTotal() const
    {
        return evalQuarantine.size() + campaign.quarantined();
    }

    /** True when every stage of every workload passed: lint and
     *  semantic clean, load facts unfalsified, run equivalent,
     *  crossval consistent, campaign invariants held, every fault
     *  type fired, and nothing was quarantined. */
    bool ok() const;

    /** Deterministic JSON document (schema mssp-suite-v7; embeds the
     *  campaign's mssp-faultcamp-v3 object under "campaign"). */
    std::string toJson() const;

    /** Human-readable result tables. */
    std::string summary() const;
};

/** Run the whole suite. @p log (optional) receives progress lines. */
SuiteReport runSuite(const SuiteOptions &opts,
                     std::ostream *log = nullptr);

} // namespace mssp

#endif // MSSP_EVAL_SUITE_HH
