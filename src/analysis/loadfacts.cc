/**
 * @file
 * Load-fact analysis implementation (see loadfacts.hh).
 */

#include "analysis/loadfacts.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/dataflow.hh"
#include "arch/mmio.hh"
#include "sim/logging.hh"

namespace mssp::analysis
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += strfmt("\\%c", c);
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strfmt("\\u%04x", c);
        else
            out += c;
    }
    return out;
}

/** Close a report document with its embedded "lint" object (the
 *  lint document's trailing newline dropped). */
std::string
withLint(std::string out, const LintReport &lint)
{
    std::string lj = lint.toJson();
    while (!lj.empty() && lj.back() == '\n')
        lj.pop_back();
    return out + "], \"lint\": " + lj + "}\n";
}

/** Classify one reachable load against the merged store set. */
void
classifyLoad(LoadFact &c, const Program &merged, const AliasResult &al)
{
    if (!c.addr.isConst()) {
        c.cls = LoadSpecClass::Risky;
        c.detail = strfmt("load address unproven: %s",
                          c.addr.toString().c_str());
        for (const MemAccess &s : al.stores) {
            if (s.overlaps(c.addr)) {
                c.storePc = s.pc;
                c.storeAddr = s.addr;
                c.detail += strfmt("; store at 0x%x (addr %s) "
                                   "overlaps the range",
                                   s.pc, s.addr.toString().c_str());
                break;
            }
        }
        return;
    }

    uint32_t a = c.addr.cval();
    if (isMmio(a)) {
        c.cls = LoadSpecClass::Risky;
        c.detail = strfmt("device load from 0x%x (never invariant)",
                          a);
        return;
    }

    // Region sharing is decided against *distilled* stores only: the
    // master never executes original code, so an aliasing original
    // store merely blocks the ProvablyInvariant proof (the merged
    // image — which the dynamic gate runs raw on SEQ — can write the
    // word), not region invariance.
    const MemAccess *shared = nullptr;
    const MemAccess *cross = nullptr;
    const MemAccess *origOnly = nullptr;
    for (const MemAccess &s : al.stores) {
        if (!s.mayTouch(a))
            continue;
        if (s.pc < DistilledCodeBase) {
            if (!origOnly)
                origOnly = &s;
            continue;
        }
        if (regionsIntersect(s.regions, c.regions)) {
            shared = &s;
            break;
        }
        if (!cross)
            cross = &s;
    }

    if (shared) {
        c.cls = LoadSpecClass::Risky;
        c.storePc = shared->pc;
        c.storeAddr = shared->addr;
        c.detail = strfmt("store at 0x%x may write %s, overlapping "
                          "[0x%x] in a fork region the load shares",
                          shared->pc,
                          shared->addr.toString().c_str(), a);
    } else if (cross) {
        c.cls = LoadSpecClass::RegionInvariant;
        c.storePc = cross->pc;
        c.storeAddr = cross->addr;
        c.detail = strfmt("store at 0x%x may write %s, but only in "
                          "fork regions the load never executes in",
                          cross->pc, cross->addr.toString().c_str());
    } else if (origOnly) {
        c.cls = LoadSpecClass::RegionInvariant;
        c.storePc = origOnly->pc;
        c.storeAddr = origOnly->addr;
        c.detail = strfmt("only original code writes [0x%x] (store "
                          "at 0x%x); the distilled program never "
                          "does",
                          a, origOnly->pc);
    } else {
        c.cls = LoadSpecClass::ProvablyInvariant;
        c.detail = strfmt("no store in the merged image may write "
                          "[0x%x] = 0x%x",
                          a, merged.word(a));
    }
}

/**
 * Abstract state of the value-flow domain: the register intervals
 * plus one interval per *tracked* memory word. The mem map carries
 * exactly the tracked key set in every reachable state, so meet and
 * equality align pointwise.
 */
struct VfState
{
    AbsState regs;
    std::map<uint32_t, AbsVal> mem;

    bool operator==(const VfState &) const = default;
};

/**
 * One instruction's effect on a VfState. Loads from a tracked word
 * forward the flow fact; stores update tracked words strongly (exact
 * address) or weakly (overlapping interval); everything else is the
 * plain absint register transfer.
 */
void
vfStep(uint32_t pc, const Instruction &inst, VfState &st,
       const Program *image, const StoreSummary *stores)
{
    if (!st.regs.reachable)
        return;
    switch (inst.op) {
      case Opcode::Lw: {
        AbsVal addr = absMemAddr(st.regs, inst);
        if (addr.isConst()) {
            auto it = st.mem.find(addr.cval());
            if (it != st.mem.end() && !it->second.isBottom()) {
                st.regs.setReg(inst.rd, it->second);
                return;
            }
        }
        absStep(pc, inst, st.regs, image, stores);
        return;
      }
      case Opcode::Sw: {
        AbsVal addr = absMemAddr(st.regs, inst);
        AbsVal val = st.regs.reg(inst.rs2);
        if (addr.isConst()) {
            // Exact address: the store definitely overwrites this
            // word and no other — a strong update.
            auto it = st.mem.find(addr.cval());
            if (it != st.mem.end())
                it->second = val;
            return;
        }
        for (auto &[a, v] : st.mem) {
            if (addr.contains(a))
                v = v.join(val);
        }
        return;
      }
      default:
        absStep(pc, inst, st.regs, image, stores);
        return;
    }
}

/** The value-flow domain over whole basic blocks (the AbsDomain of
 *  absint.cc extended with the tracked-memory component). */
struct VfDomain
{
    using Value = VfState;

    const Cfg &cfg;
    const std::vector<uint32_t> &starts;
    const Program *image;
    const StoreSummary *stores;
    /** Boundary per root block start; roots absent here fall back to
     *  @c fallbackRoot (conservative landing-pad state). */
    const std::map<uint32_t, VfState> *rootBoundary;
    const VfState *fallbackRoot;
    std::vector<bool> is_root;

    static constexpr unsigned kWidenDelay = 3;
    mutable std::vector<unsigned> visits;

    VfDomain(const Cfg &cfg, const std::vector<uint32_t> &starts,
             const FlowGraph &g, const Program *image,
             const StoreSummary *stores,
             const std::map<uint32_t, VfState> *rootBoundary,
             const VfState *fallbackRoot)
        : cfg(cfg), starts(starts), image(image), stores(stores),
          rootBoundary(rootBoundary), fallbackRoot(fallbackRoot),
          is_root(g.size(), false), visits(g.size(), 0)
    {
        is_root[static_cast<size_t>(g.entry)] = true;
        for (int r : g.roots)
            is_root[static_cast<size_t>(r)] = true;
    }

    Value top() const { return VfState{}; }   // unreachable

    Value
    boundary(int n) const
    {
        if (!is_root[static_cast<size_t>(n)])
            return VfState{};
        if (rootBoundary) {
            auto it =
                rootBoundary->find(starts[static_cast<size_t>(n)]);
            if (it != rootBoundary->end())
                return it->second;
        }
        return *fallbackRoot;
    }

    void
    meet(Value &into, const Value &from) const
    {
        if (!from.regs.reachable)
            return;
        if (!into.regs.reachable) {
            into = from;
            return;
        }
        for (unsigned r = 0; r < NumRegs; ++r)
            into.regs.regs[r] = into.regs.regs[r].join(from.regs.regs[r]);
        for (auto &[a, v] : into.mem) {
            auto it = from.mem.find(a);
            if (it != from.mem.end())
                v = v.join(it->second);
        }
    }

    /** Kill flow along the untaken side of a decided branch (same
     *  rule as the plain interval domain, on the register part). */
    Value
    edgeOut(int from, int to, const Value &out) const
    {
        if (!out.regs.reachable)
            return out;
        const BasicBlock &bb =
            cfg.blockAt(starts[static_cast<size_t>(from)]);
        if (bb.term != TermKind::CondBranch || bb.insts.empty() ||
            bb.takenTarget == bb.fallthrough) {
            return out;
        }
        const Instruction &br = bb.insts.back();
        TriState d = absBranch(br.op, out.regs.reg(br.rs1),
                               out.regs.reg(br.rs2));
        uint32_t target = starts[static_cast<size_t>(to)];
        if ((d == TriState::True && target == bb.fallthrough) ||
            (d == TriState::False && target == bb.takenTarget)) {
            return VfState{};   // unreachable along this edge
        }
        return out;
    }

    void
    refineMeet(int n, Value &in, const Value &prev) const
    {
        unsigned &count = visits[static_cast<size_t>(n)];
        if (++count <= kWidenDelay || !prev.regs.reachable ||
            !in.regs.reachable) {
            return;
        }
        for (unsigned r = 0; r < NumRegs; ++r)
            in.regs.regs[r] = prev.regs.regs[r].widen(in.regs.regs[r]);
        for (auto &[a, v] : in.mem) {
            auto it = prev.mem.find(a);
            if (it != prev.mem.end())
                v = it->second.widen(v);
        }
    }

    Value
    transfer(int n, const Value &in) const
    {
        if (!in.regs.reachable)
            return VfState{};
        VfState st = in;
        const BasicBlock &bb =
            cfg.blockAt(starts[static_cast<size_t>(n)]);
        for (size_t i = 0; i < bb.insts.size(); ++i)
            vfStep(bb.pcOf(i), bb.insts[i], st, image, stores);
        return st;
    }
};

/** Value-flow state just before the instruction at @p pc. */
VfState
vfStateBefore(const Cfg &cfg,
              const std::map<uint32_t, VfState> &blockIn,
              const Program *image, const StoreSummary *stores,
              uint32_t pc)
{
    const BasicBlock *bb = containingBlock(cfg, pc);
    if (!bb)
        return VfState{};
    auto it = blockIn.find(bb->start);
    if (it == blockIn.end())
        return VfState{};
    VfState st = it->second;
    for (size_t i = 0; i < bb->insts.size() && bb->pcOf(i) < pc; ++i)
        vfStep(bb->pcOf(i), bb->insts[i], st, image, stores);
    return st;
}

/** Run the value-flow fixpoint over one CFG and hand back the block
 *  in-states keyed by leader PC. */
std::map<uint32_t, VfState>
solveValueFlow(const Program &prog, const Cfg &cfg,
               const StoreSummary &stores,
               const std::map<uint32_t, VfState> &rootBoundary,
               const VfState &fallbackRoot)
{
    std::vector<uint32_t> starts;
    FlowGraph g = graphOfCfg(cfg, starts);
    VfDomain dom(cfg, starts, g, &prog, &stores, &rootBoundary,
                 &fallbackRoot);
    auto solved = solveDataflow(g, dom, Direction::Forward);
    std::map<uint32_t, VfState> blockIn;
    for (size_t i = 0; i < starts.size(); ++i)
        blockIn[starts[i]] = solved.in[i];
    return blockIn;
}

/**
 * The value fact of one eligible load at constant address @p a, from
 * the merged-image value-flow state @p at just before it; nullopt
 * when no rule yields one.
 */
std::optional<LoadValueFact>
deriveValueFact(uint32_t a, const VfState &at, const Program &merged,
                const AliasResult &al)
{
    auto mit = at.mem.find(a);
    AbsVal memv = mit != at.mem.end() ? mit->second : AbsVal::top();
    std::vector<const MemAccess *> aliasing = al.interferingStores(a);

    LoadValueFact f;
    if (memv.isConst()) {
        f.value = memv.cval();
        f.feasible = {f.value};
        if (aliasing.empty()) {
            f.detail = strfmt("no store in the merged image may "
                              "write [0x%x]; the load always reads "
                              "the image word 0x%x",
                              a, f.value);
        } else {
            f.detail = strfmt("every path to the load leaves 0x%x at "
                              "[0x%x] (flow-sensitive store-to-load "
                              "forwarding across %zu aliasing "
                              "store(s))",
                              f.value, a, aliasing.size());
        }
        return f;
    }

    // Feasible-set rule: the initial image word joined with every
    // aliasing store's constant. One unpinnable store value spoils
    // the set.
    std::set<uint32_t> feas;
    feas.insert(merged.word(a));
    const MemAccess *demote = nullptr;
    for (const MemAccess *s : aliasing) {
        if (!s->value.isConst())
            return std::nullopt;
        feas.insert(s->value.cval());
        if (!demote && s->value.cval() != merged.word(a))
            demote = s;
    }
    if (feas.size() > kMaxFeasibleValues)
        return std::nullopt;
    if (feas.size() == 1) {
        // Every aliasing store rewrites the image word: the set
        // argument proves invariance even where widening blurred the
        // flow-sensitive fact.
        f.value = *feas.begin();
        f.feasible = {f.value};
        f.detail = strfmt("every aliasing store provably rewrites the "
                          "image word 0x%x at [0x%x]",
                          f.value, a);
        return f;
    }
    f.proof = ValueProof::Likely;
    f.value = merged.word(a);
    f.feasible.assign(feas.begin(), feas.end());
    f.storePc = demote ? demote->pc : UINT32_MAX;
    f.detail = strfmt("reaching store-set is constant-valued but not "
                      "singleton: %zu feasible values for [0x%x]; "
                      "store at 0x%x writes 0x%x",
                      feas.size(), a, demote ? demote->pc : UINT32_MAX,
                      demote ? demote->value.cval() : 0);
    return f;
}

/** The tracked word a load's value fact would describe, or nullopt
 *  when the load is ineligible (Risky, unpinned address, device
 *  space, or a word of the distilled code overlay — that word
 *  differs between the original and merged images, so no one fact
 *  is sound for both value-flow passes). */
std::optional<uint32_t>
trackedWord(const LoadFact &c, const DistilledProgram &dist)
{
    if (c.cls == LoadSpecClass::Risky || !c.addr.isConst())
        return std::nullopt;
    uint32_t a = c.addr.cval();
    if (isMmio(a) || dist.prog.image().count(a))
        return std::nullopt;
    return a;
}

/** "12.345678" — benefitMicro rendered as a fixed-point unit score. */
std::string
fmtBenefit(uint64_t micro)
{
    return strfmt("%llu.%06llu",
                  static_cast<unsigned long long>(micro / 1000000),
                  static_cast<unsigned long long>(micro % 1000000));
}

/**
 * The per-candidate static cost model (DESIGN.md §5.3):
 *
 *   benefit = P * 100 * ratio / (1 + density) / (1 + guards)
 *
 * P = 1 (Proven) or 1/|feasible| (Likely); ratio = original /
 * distilled static instruction count (distillation leverage);
 * density = Risky-load fraction of the loads sharing a fork region
 * with the candidate; guards = pruned branches whose block shares a
 * region (each is a potential misprediction that squashes the
 * speculation anyway). Inputs are small integers, so the IEEE double
 * result — and its micro-unit rounding — is deterministic.
 */
uint64_t
benefitOf(const LoadFact &ld, const LoadFacts &facts,
          const DistilledProgram &dist)
{
    const LoadValueFact &f = *ld.value;
    double proofW =
        f.proof == ValueProof::Proven
            ? 1.0
            : 1.0 / static_cast<double>(
                        std::max<size_t>(1, f.feasible.size()));

    size_t origInsts = std::max<size_t>(
        1, dist.report.origStaticInsts);
    size_t distInsts = std::max<size_t>(
        1, dist.report.distilledStaticInsts);
    double ratio = static_cast<double>(origInsts) /
                   static_cast<double>(distInsts);

    size_t shared = 0, risky = 0;
    for (const LoadFact &other : facts.loads) {
        if (!regionsIntersect(other.regions, ld.regions))
            continue;
        shared++;
        risky += other.cls == LoadSpecClass::Risky;
    }
    double density = static_cast<double>(risky) /
                     static_cast<double>(std::max<size_t>(1, shared));

    size_t guards = 0;
    for (const DistillEdit &e : dist.report.edits) {
        if (e.pass != DistillEdit::Pass::BranchPrune)
            continue;
        auto it = dist.addrMap.find(e.regionStart);
        RegionMask mask = RegionAll;
        if (it != dist.addrMap.end()) {
            auto bit = facts.blockRegions.find(it->second);
            if (bit != facts.blockRegions.end())
                mask = bit->second;
        }
        guards += regionsIntersect(mask, ld.regions);
    }

    double benefit = proofW * 100.0 * ratio / (1.0 + density) /
                     (1.0 + static_cast<double>(guards));
    return static_cast<uint64_t>(std::llround(benefit * 1e6));
}

} // anonymous namespace

const char *
loadSpecClassName(LoadSpecClass cls)
{
    switch (cls) {
      case LoadSpecClass::ProvablyInvariant:
        return "provably-invariant";
      case LoadSpecClass::RegionInvariant:
        return "region-invariant";
      case LoadSpecClass::Risky:
        return "risky";
    }
    return "?";
}

const char *
valueProofName(ValueProof proof)
{
    switch (proof) {
      case ValueProof::Proven: return "proven";
      case ValueProof::Likely: return "likely";
    }
    return "?";
}

Program
mergedImage(const Program &orig, const DistilledProgram &dist)
{
    Program merged = orig;
    for (const auto &[addr, word] : dist.prog.image())
        merged.setWord(addr, word);
    merged.setEntry(dist.prog.entry());
    return merged;
}

LoadFacts
analyzeLoadFacts(const Program &orig, const DistilledProgram &dist)
{
    LoadFacts res;
    Program merged = mergedImage(orig, dist);

    // Pass 1: the sequential original program on its own. Its block
    // in-states over-approximate every architected state a master
    // restart can occur in (absint.hh), which is exactly the bound a
    // restart point needs.
    Cfg origCfg = Cfg::build(orig, orig.entry());
    AbsintResult origAi = analyzeProgram(orig, origCfg);

    // Pass 2 roots: the original entry (the merged image keeps all
    // original code live for the store summary — a raw SEQ run of
    // the merged program can fall back into it through an
    // untranslated return), plus every restart point of the
    // distilled code, each seeded with the original program's
    // abstract state at the pc it restarts from rather than the
    // all-unknown default (which would flush the address facts out
    // of every loop a fork site sits in). The addrMap targets are
    // deliberately NOT roots: every surviving block is an addrMap
    // value, so rooting them would join unknown state into the whole
    // distilled image. They are reached through ordinary edges
    // instead — calls carry their return point as a successor
    // (cfg.hh), the same §3.9 control-flow assumption the rest of
    // the toolchain builds on — and any load the discovery still
    // misses falls out Risky below.
    std::vector<uint32_t> roots;
    std::map<uint32_t, AbsState> regBoundary;
    roots.push_back(orig.entry());
    for (const auto &[o, dpc] : dist.entryMap) {
        roots.push_back(dpc);
        AbsState st = stateBefore(origAi, origCfg, orig, o);
        if (st.reachable)
            regBoundary[dpc] = st;
    }
    Cfg cfg = Cfg::build(merged, merged.entry(), roots);
    AbsintResult ai = analyzeProgram(merged, cfg, &regBoundary);
    AliasResult al = analyzeAliases(merged, cfg, ai);
    res.blockRegions = al.blockRegions;

    // Classify every reachable distilled load (original-code loads
    // are not classified).
    std::set<uint32_t> seen;
    for (const MemAccess &ld : al.loads) {
        if (ld.pc < DistilledCodeBase)
            continue;
        LoadFact c;
        c.pc = ld.pc;
        c.addr = ld.addr;
        c.regions = ld.regions;
        classifyLoad(c, merged, al);
        seen.insert(c.pc);
        res.loads.push_back(std::move(c));
    }
    // Coverage: every static load in the distilled image gets a
    // class. A load outside the discovered (or abstractly reachable)
    // code has no abstract address state — conservatively Risky, in
    // every region.
    for (const auto &[addr, word] : dist.prog.image()) {
        if (!isLoad(decode(word).op) || seen.count(addr))
            continue;
        LoadFact c;
        c.pc = addr;
        c.addr = AbsVal::top();
        c.detail = "load is not abstractly reachable in the "
                   "distilled control flow; address state unknown";
        res.loads.push_back(std::move(c));
    }
    std::sort(res.loads.begin(), res.loads.end(),
              [](const LoadFact &x, const LoadFact &y) {
                  return x.pc < y.pc;
              });

    std::set<uint32_t> tracked;
    for (const LoadFact &c : res.loads) {
        if (std::optional<uint32_t> a = trackedWord(c, dist))
            tracked.insert(*a);
    }

    // Value-flow pass 1: the sequential original program from its
    // true initial state — registers unknown, every tracked word
    // holding its image value. Its in-states over-approximate the
    // architected state (registers *and* memory) at every master
    // restart point.
    VfState origEntry;
    origEntry.regs = AbsState::entry();
    for (uint32_t a : tracked)
        origEntry.mem[a] = AbsVal::constant(orig.word(a));
    std::map<uint32_t, VfState> origRoots;
    origRoots[orig.entry()] = origEntry;
    std::map<uint32_t, VfState> origIn = solveValueFlow(
        orig, origCfg, origAi.stores, origRoots, origEntry);

    // Value-flow pass 2 over the merged image, rooted like the
    // classification pass. The fallback root state covers landing
    // pads with no better bound (the original entry, unreachable
    // restart PCs): any word some merged-image store may write is
    // unknown there.
    VfState fallback;
    fallback.regs = AbsState::entry();
    for (uint32_t a : tracked) {
        fallback.mem[a] = ai.stores.mayWrite(a)
                              ? AbsVal::top()
                              : AbsVal::constant(merged.word(a));
    }
    std::map<uint32_t, VfState> mergedRoots;
    for (const auto &[o, dpc] : dist.entryMap) {
        VfState st;
        auto rit = regBoundary.find(dpc);
        st.regs = rit != regBoundary.end() ? rit->second
                                           : AbsState::entry();
        VfState ost = vfStateBefore(origCfg, origIn, &orig,
                                    &origAi.stores, o);
        st.mem = ost.regs.reachable ? ost.mem : fallback.mem;
        mergedRoots[dpc] = std::move(st);
    }
    std::map<uint32_t, VfState> mergedIn = solveValueFlow(
        merged, cfg, ai.stores, mergedRoots, fallback);

    for (LoadFact &c : res.loads) {
        std::optional<uint32_t> a = trackedWord(c, dist);
        if (!a)
            continue;
        res.valueEligible++;
        VfState at = vfStateBefore(cfg, mergedIn, &merged,
                                   &ai.stores, c.pc);
        if (at.regs.reachable)
            c.value = deriveValueFact(*a, at, merged, al);
    }
    return res;
}

SpecSafeReport
specSafeReport(const LoadFacts &facts)
{
    SpecSafeReport rep;
    rep.loads = facts.loads;
    return rep;
}

SpecPlanReport
specPlanReport(const LoadFacts &facts, const DistilledProgram &dist)
{
    SpecPlanReport rep;
    rep.loadsConsidered = facts.valueEligible;
    for (const LoadFact &ld : facts.loads) {
        if (!ld.value)
            continue;
        const LoadValueFact &f = *ld.value;
        SpecPlanCandidate c;
        c.pc = ld.pc;
        c.addr = ld.addr.cval();
        c.cls = ld.cls;
        c.proof = f.proof;
        c.value = f.value;
        c.feasible = f.feasible;
        c.storePc = f.storePc;
        c.benefitMicro = benefitOf(ld, facts, dist);
        c.detail = f.detail;
        rep.candidates.push_back(std::move(c));
    }
    std::sort(rep.candidates.begin(), rep.candidates.end(),
              [](const SpecPlanCandidate &x,
                 const SpecPlanCandidate &y) {
                  if (x.benefitMicro != y.benefitMicro)
                      return x.benefitMicro > y.benefitMicro;
                  return x.pc < y.pc;
              });
    return rep;
}

SpecSafeReport
analyzeSpecSafe(const Program &orig, const DistilledProgram &dist)
{
    return specSafeReport(analyzeLoadFacts(orig, dist));
}

SpecPlanReport
analyzeSpecPlan(const Program &orig, const DistilledProgram &dist)
{
    return specPlanReport(analyzeLoadFacts(orig, dist), dist);
}

size_t
SpecSafeReport::provablyInvariant() const
{
    size_t n = 0;
    for (const LoadFact &c : loads)
        n += c.cls == LoadSpecClass::ProvablyInvariant;
    return n;
}

size_t
SpecSafeReport::regionInvariant() const
{
    size_t n = 0;
    for (const LoadFact &c : loads)
        n += c.cls == LoadSpecClass::RegionInvariant;
    return n;
}

size_t
SpecSafeReport::risky() const
{
    size_t n = 0;
    for (const LoadFact &c : loads)
        n += c.cls == LoadSpecClass::Risky;
    return n;
}

std::string
SpecSafeReport::toText() const
{
    std::string out;
    for (const LoadFact &c : loads) {
        out += strfmt("load pc=0x%x [%s] addr=%s: %s\n", c.pc,
                      loadSpecClassName(c.cls),
                      c.addr.toString().c_str(), c.detail.c_str());
    }
    out += strfmt("%zu load(s): %zu provably-invariant, %zu "
                  "region-invariant, %zu risky\n",
                  loads.size(), provablyInvariant(),
                  regionInvariant(), risky());
    return out;
}

std::string
SpecSafeReport::toJson(const std::string &workload) const
{
    std::string out = "{\"schema\": \"mssp-specsafe-v1\", ";
    if (workload.empty())
        out += "\"workload\": null, ";
    else
        out += strfmt("\"workload\": \"%s\", ", workload.c_str());
    out += strfmt("\"counts\": {\"loads\": %zu, "
                  "\"provablyInvariant\": %zu, "
                  "\"regionInvariant\": %zu, \"risky\": %zu}, ",
                  loads.size(), provablyInvariant(),
                  regionInvariant(), risky());
    out += "\"loads\": [";
    for (size_t i = 0; i < loads.size(); ++i) {
        const LoadFact &c = loads[i];
        if (i)
            out += ", ";
        out += strfmt("{\"pc\": \"0x%x\", \"class\": \"%s\", "
                      "\"addr\": \"%s\", ",
                      c.pc, loadSpecClassName(c.cls),
                      jsonEscape(c.addr.toString()).c_str());
        if (c.storePc != UINT32_MAX) {
            out += strfmt("\"storePc\": \"0x%x\", \"storeAddr\": "
                          "\"%s\", ",
                          c.storePc,
                          jsonEscape(c.storeAddr.toString()).c_str());
        } else {
            out += "\"storePc\": null, \"storeAddr\": null, ";
        }
        out += strfmt("\"detail\": \"%s\"}",
                      jsonEscape(c.detail).c_str());
    }
    return withLint(std::move(out), lint);
}

size_t
SpecPlanReport::proven() const
{
    size_t n = 0;
    for (const SpecPlanCandidate &c : candidates)
        n += c.proof == ValueProof::Proven;
    return n;
}

size_t
SpecPlanReport::likely() const
{
    size_t n = 0;
    for (const SpecPlanCandidate &c : candidates)
        n += c.proof == ValueProof::Likely;
    return n;
}

std::string
SpecPlanReport::toText() const
{
    std::string out;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const SpecPlanCandidate &c = candidates[i];
        out += strfmt("plan #%zu pc=0x%x [%s] class=%s addr=0x%x "
                      "value=0x%x benefit=%s",
                      i, c.pc, valueProofName(c.proof),
                      loadSpecClassName(c.cls), c.addr, c.value,
                      fmtBenefit(c.benefitMicro).c_str());
        if (c.feasible.size() > 1) {
            out += " feasible={";
            for (size_t k = 0; k < c.feasible.size(); ++k)
                out += strfmt("%s0x%x", k ? ", " : "", c.feasible[k]);
            out += "}";
        }
        if (c.storePc != UINT32_MAX)
            out += strfmt(" demoted-by=0x%x", c.storePc);
        out += strfmt(": %s\n", c.detail.c_str());
    }
    out += strfmt("%zu candidate(s): %zu proven, %zu likely (of %zu "
                  "eligible load(s))\n",
                  candidates.size(), proven(), likely(),
                  loadsConsidered);
    return out;
}

std::string
SpecPlanReport::toJson(const std::string &workload) const
{
    std::string out = "{\"schema\": \"mssp-specplan-v1\", ";
    if (workload.empty())
        out += "\"workload\": null, ";
    else
        out += strfmt("\"workload\": \"%s\", ", workload.c_str());
    out += strfmt("\"counts\": {\"candidates\": %zu, \"proven\": "
                  "%zu, \"likely\": %zu, \"considered\": %zu}, ",
                  candidates.size(), proven(), likely(),
                  loadsConsidered);
    out += "\"candidates\": [";
    for (size_t i = 0; i < candidates.size(); ++i) {
        const SpecPlanCandidate &c = candidates[i];
        if (i)
            out += ", ";
        out += strfmt("{\"rank\": %zu, \"pc\": \"0x%x\", \"proof\": "
                      "\"%s\", \"class\": \"%s\", \"addr\": "
                      "\"0x%x\", \"value\": \"0x%x\", "
                      "\"benefitMicro\": %llu, ",
                      i, c.pc, valueProofName(c.proof),
                      loadSpecClassName(c.cls), c.addr, c.value,
                      static_cast<unsigned long long>(
                          c.benefitMicro));
        out += "\"feasible\": [";
        for (size_t k = 0; k < c.feasible.size(); ++k)
            out += strfmt("%s\"0x%x\"", k ? ", " : "", c.feasible[k]);
        out += "], ";
        if (c.storePc != UINT32_MAX)
            out += strfmt("\"storePc\": \"0x%x\", ", c.storePc);
        else
            out += "\"storePc\": null, ";
        out += strfmt("\"detail\": \"%s\"}",
                      jsonEscape(c.detail).c_str());
    }
    return withLint(std::move(out), lint);
}

} // namespace mssp::analysis
