#include "mssp/budget.hh"

namespace mssp
{

Cycle
cyclesToLaterAttempt(double &b, double ipc, uint64_t k)
{
    if (wholeBudget(b, ipc)) {
        // Every later cycle offers exactly ipc (>= 1: attempt k was
        // offered eventually).
        uint64_t rate = wholeAttempts(ipc);
        Cycle later = (k + rate - 1) / rate;
        b = static_cast<double>(static_cast<int64_t>(later * rate - k));
        return later;
    }
    for (Cycle cycles = 1;; ++cycles) {
        b += ipc;
        uint64_t whole = wholeAttempts(b);
        if (k <= whole) {
            b -= static_cast<double>(static_cast<int64_t>(k));
            return cycles;
        }
        k -= whole;
        b -= static_cast<double>(static_cast<int64_t>(whole));
    }
}

} // namespace mssp
