/**
 * @file
 * Random structured-program generator.
 *
 * Produces terminating-by-construction μRISC programs with nested
 * counted loops, array loads/stores, a read-only per-phase parameter
 * table (fixed-address loads no store can touch), biased rare
 * branches, helper calls and periodic OUT checksums. Used by the
 * fuzz/property tests (SEQ-vs-MSSP equivalence over program
 * families), the speculation-safety fuzz gate and the adversarial
 * refinement suite.
 */

#ifndef MSSP_WORKLOADS_RANDOM_PROGRAM_HH
#define MSSP_WORKLOADS_RANDOM_PROGRAM_HH

#include <cstdint>
#include <string>

namespace mssp
{

/** Generator tuning. */
struct RandomProgramOptions
{
    unsigned minPhases = 2;
    unsigned maxPhases = 4;
    unsigned minIters = 16;
    unsigned maxIters = 120;
    unsigned minBodyOps = 3;
    unsigned maxBodyOps = 10;
    unsigned dataWords = 128;      ///< power of two
    bool allowCalls = true;
    bool allowStores = true;
    bool allowRareBranches = true;
    /** Give every phase a read-only parameter word loaded at a fixed
     *  address each iteration. No store can reach the table, so the
     *  loads are value-invariant by construction — the non-vacuity
     *  anchor for the load-fact fuzz gate (loadfacts.hh). */
    bool paramTable = true;
    /** Sprinkle non-idempotent device reads/writes into phase bodies
     *  (exercises the MMIO serialization path). */
    bool allowMmio = false;
};

/**
 * Generate a deterministic random program for @p seed.
 * The same seed always yields the same source.
 */
std::string randomProgramSource(uint64_t seed,
                                const RandomProgramOptions &opts = {});

} // namespace mssp

#endif // MSSP_WORKLOADS_RANDOM_PROGRAM_HH
