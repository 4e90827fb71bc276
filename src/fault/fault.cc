#include "fault/fault.hh"

#include <algorithm>

#include "arch/cell.hh"
#include "sim/logging.hh"

namespace mssp
{

const char *
toString(FaultType t)
{
    switch (t) {
      case FaultType::None:              return "none";
      case FaultType::CheckpointCorrupt: return "checkpoint-corrupt";
      case FaultType::LiveInFlip:        return "livein-flip";
      case FaultType::MasterRegFlip:     return "master-reg-flip";
      case FaultType::MasterPcCorrupt:   return "master-pc";
      case FaultType::SpawnDelay:        return "spawn-delay";
      case FaultType::SpawnDrop:         return "spawn-drop";
      case FaultType::SlaveStall:        return "slave-stall";
      case FaultType::SlaveKill:         return "slave-kill";
      case FaultType::SpuriousSquash:    return "spurious-squash";
      case FaultType::ImagePatch:        return "image-patch";
    }
    return "?";
}

FaultType
faultTypeFromString(const std::string &name)
{
    for (FaultType t : allFaultTypes()) {
        if (name == toString(t))
            return t;
    }
    return FaultType::None;
}

const std::vector<FaultType> &
allFaultTypes()
{
    static const std::vector<FaultType> types = {
        FaultType::CheckpointCorrupt, FaultType::LiveInFlip,
        FaultType::MasterRegFlip,     FaultType::MasterPcCorrupt,
        FaultType::SpawnDelay,        FaultType::SpawnDrop,
        FaultType::SlaveStall,        FaultType::SlaveKill,
        FaultType::SpuriousSquash,    FaultType::ImagePatch,
    };
    return types;
}

std::string
FaultPlan::toString() const
{
    return strfmt("%s rate=%g seed=%llu target=%d",
                  mssp::toString(type), rate,
                  static_cast<unsigned long long>(seed), target);
}

uint64_t
FaultCounters::total() const
{
    uint64_t n = 0;
    for (uint64_t v : injected)
        n += v;
    return n;
}

FaultInjector::FaultInjector(uint64_t seed, std::vector<FaultPlan> plans)
    : seed_(seed), rng_(seed)
{
    for (const FaultPlan &p : plans) {
        if (p.type == FaultType::None)
            continue;
        plans_[static_cast<size_t>(p.type)] = p;
    }
}

bool
FaultInjector::corruptCheckpoint(Checkpoint &ckpt)
{
    // Draw both checkpoint fault classes up front; bail cheaply when
    // neither fires. LiveInFlip needs an existing binding to flip, so
    // its draw is gated on a non-empty checkpoint (an injection that
    // could not corrupt anything must not count as fired).
    bool corrupt = fire(FaultType::CheckpointCorrupt);
    bool flip = !ckpt.empty() && fire(FaultType::LiveInFlip);
    if (!corrupt && !flip)
        return false;

    StateDelta bad = ckpt.flatten();
    if (corrupt) {
        // 50/50: insert a bogus prediction, or drop a real one. A
        // dropped cell degrades to an architected read-through (the
        // prediction is *missing*, not wrong); an inserted cell is a
        // wrong prediction the verify unit must catch if consumed.
        if (bad.empty() || (rng_.next() & 1)) {
            CellId cell = (rng_.next() & 1)
                ? makeRegCell(1 + static_cast<unsigned>(
                      rng_.below(NumRegs - 1)))
                : makeMemCell(word() & ~0x3u);
            bad.set(cell, word());
        } else {
            std::vector<StateDelta::value_type> cells = bad.sorted();
            bad.erase(cells[rng_.below(cells.size())].first);
        }
    }
    if (flip) {
        std::vector<StateDelta::value_type> cells = bad.sorted();
        if (cells.empty()) {
            // CheckpointCorrupt just dropped the last cell: nothing
            // left to flip; un-count the granted flip.
            --counters_.injected[static_cast<size_t>(
                FaultType::LiveInFlip)];
        } else {
            const auto &[cell, value] = cells[rng_.below(cells.size())];
            bad.set(cell, value ^ bit32());
        }
    }
    ckpt = Checkpoint(std::move(bad));
    return true;
}

FaultInjector::Stream &
FaultInjector::stream(FaultType t, unsigned core)
{
    std::vector<Stream> &streams = streams_[static_cast<size_t>(t)];
    while (streams.size() <= core) {
        uint64_t id = static_cast<uint64_t>(t) << 32 | streams.size();
        streams.push_back({Rng(Rng::mix(seed_, id))});
        drawAhead(streams.back(), plan(t).rate);
    }
    return streams[core];
}

void
FaultInjector::drawAhead(Stream &s, double rate)
{
    // One Rng::chance per opportunity, exactly the draw fire() makes,
    // so every rate keeps its Bernoulli meaning. A block of 64K
    // opportunities without a fire ends the look-ahead: the stream
    // draws the next block when the machine has charged this one.
    constexpr uint64_t Block = 1u << 16;
    for (uint64_t i = 0; i < Block; ++i) {
        if (s.rng.chance(rate)) {
            s.left += i;
            s.fires = true;
            return;
        }
    }
    s.left += Block;
    s.fires = false;
}

bool
FaultInjector::fireDue(FaultType t, unsigned core)
{
    if (!armed(t) || !targets(t, core))
        return false;
    Stream &s = stream(t, core);
    if (s.left != 0)
        return false;
    ++counters_.injected[static_cast<size_t>(t)];
    // This opportunity is charged with the rest of its quantum.
    s.left = 1;
    drawAhead(s, plan(t).rate);
    return true;
}

void
FaultInjector::charge(FaultType t, unsigned core, uint64_t n)
{
    if (!armed(t) || !targets(t, core))
        return;   // the stream never fires again
    Stream &s = stream(t, core);
    while (n > s.left || (n == s.left && !s.fires)) {
        MSSP_ASSERT(!s.fires);   // the opportunities passed a fire
        n -= s.left;
        s.left = 0;
        drawAhead(s, plan(t).rate);
    }
    s.left -= n;
}

void
FaultInjector::dump(std::ostream &os) const
{
    for (FaultType t : allFaultTypes()) {
        const FaultPlan &p = plans_[static_cast<size_t>(t)];
        if (p.rate <= 0.0)
            continue;
        os << strfmt("fault.%-22s %12llu  # injections (%s)\n",
                     toString(t),
                     static_cast<unsigned long long>(
                         counters_.count(t)),
                     p.toString().c_str());
    }
}

} // namespace mssp
