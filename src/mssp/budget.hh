/**
 * @file
 * Per-cycle issue budgets, replayed in bulk.
 *
 * Every MSSP core issues at a configured rate (`masterIpc`,
 * `slaveIpc`) through a budget b: each cycle adds the rate, and the
 * core may attempt floor(b) instructions, each costing one. The
 * quantum scheduler (MsspMachine::run, DESIGN.md §8) runs one engine
 * slice across many cycles, so it needs that arithmetic in bulk: how
 * many attempts n cycles offer, and in which cycle a given attempt
 * falls.
 *
 * Both helpers replay the per-cycle additions one by one (or in closed
 * form when rate and budget are whole numbers, where every step is
 * exact), so the budget they leave is bit-identical to n separate
 * cycles. Subtracting whole attempts from a non-negative budget is
 * exact in binary floating point, so grouping those subtractions
 * differently cannot change the result.
 */

#ifndef MSSP_MSSP_BUDGET_HH
#define MSSP_MSSP_BUDGET_HH

#include <cmath>
#include <cstdint>

#include "sim/event_queue.hh"

namespace mssp
{

/** True when rate and budget are whole numbers (the closed forms). */
inline bool
wholeBudget(double b, double ipc)
{
    return ipc == std::floor(ipc) && b == std::floor(b);
}

/** floor(b) for a budget b >= 0 (a signed conversion is one
 *  instruction; budgets stay far below 2^63). */
inline uint64_t
wholeAttempts(double b)
{
    return static_cast<uint64_t>(static_cast<int64_t>(b));
}

/**
 * Attempts offered by @p n cycles to a core that spends its whole
 * budget every cycle; @p b becomes the budget after those cycles.
 */
inline uint64_t
drainCycles(double &b, double ipc, Cycle n)
{
    if (n > 1 && wholeBudget(b, ipc)) {
        // The first cycle offers b + ipc, every later one ipc, and
        // nothing is left over.
        uint64_t offered = wholeAttempts(b) + n * wholeAttempts(ipc);
        b = 0.0;
        return offered;
    }
    uint64_t offered = 0;
    for (Cycle i = 0; i < n; ++i) {
        b += ipc;
        uint64_t whole = wholeAttempts(b);
        offered += whole;
        b -= static_cast<double>(static_cast<int64_t>(whole));
    }
    return offered;
}

/** cyclesToAttempt past its first cycle (@p k attempts still to go,
 *  @p b the budget left at the end of that cycle). */
Cycle cyclesToLaterAttempt(double &b, double ipc, uint64_t k);

/**
 * Cycles a core that spends its whole budget needs to make its
 * @p k-th attempt (k >= 1), counting the cycle of that attempt; @p b
 * becomes the budget left right after it.
 */
inline Cycle
cyclesToAttempt(double &b, double ipc, uint64_t k)
{
    b += ipc;
    uint64_t whole = wholeAttempts(b);
    if (k <= whole) {
        b -= static_cast<double>(static_cast<int64_t>(k));
        return 1;
    }
    b -= static_cast<double>(static_cast<int64_t>(whole));
    return 1 + cyclesToLaterAttempt(b, ipc, k - whole);
}

} // namespace mssp

#endif // MSSP_MSSP_BUDGET_HH
