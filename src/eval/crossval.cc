#include "eval/crossval.hh"

#include <functional>
#include <map>
#include <optional>

#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "eval/experiment.hh"
#include "exec/seq_machine.hh"
#include "sim/parallel.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

namespace mssp
{

namespace
{

/** The value a load just read: onStep fires post-instruction, so
 *  it sits in rd. A load into r0 leaves no trace there, but also
 *  cannot have clobbered rs1, so the address still reconstructs
 *  exactly (tracked loads are never MMIO, so re-reading memory is
 *  side-effect free). */
uint32_t
loadedValue(SeqMachine &machine, const StepResult &res)
{
    if (res.inst.rd != 0)
        return machine.readReg(res.inst.rd);
    return machine.state().readMem(machine.readReg(res.inst.rs1) +
                                   res.inst.imm);
}

/** Watches the SEQ replay of the merged image and checks both load-
 *  fact claims per static load PC: ProvablyInvariant loads never
 *  change value, Proven value facts always read their prediction. */
class LoadFactWatcher : public SeqMachine::Observer
{
  public:
    LoadFactWatcher(SeqMachine &machine,
                    const analysis::LoadFacts &facts)
        : machine_(machine)
    {
        for (const analysis::LoadFact &f : facts.loads) {
            bool invariant =
                f.cls == analysis::LoadSpecClass::ProvablyInvariant;
            if (!invariant && !f.value)
                continue;
            Tracked &t = tracked_[f.pc];
            t.invariant = invariant;
            t.fact = f.value ? &*f.value : nullptr;
            result.invariantLoads += invariant;
        }
    }

    void
    onStep(uint32_t pc, const StepResult &res) override
    {
        if (!isLoad(res.inst.op))
            return;
        auto it = tracked_.find(pc);
        if (it == tracked_.end())
            return;
        Tracked &t = it->second;
        uint32_t value = loadedValue(machine_, res);
        if (t.invariant) {
            result.invariantObservations++;
            if (t.last && *t.last != value) {
                result.valueChanges++;
                noteViolation(strfmt("load at 0x%x read 0x%x, "
                                     "previously 0x%x",
                                     pc, value, *t.last));
            }
            t.last = value;
        }
        if (!t.fact)
            return;
        bool hit = value == t.fact->value;
        if (t.fact->proof == analysis::ValueProof::Proven) {
            result.provenObservations++;
            if (!hit) {
                result.provenMismatches++;
                noteViolation(strfmt("proven value fact at 0x%x read "
                                     "0x%x, predicted 0x%x",
                                     pc, value, t.fact->value));
            }
        } else {
            result.likelyObservations++;
            result.likelyHits += hit;
        }
    }

    LoadFactsDynamicResult result;

  private:
    struct Tracked
    {
        bool invariant = false;
        std::optional<uint32_t> last;   ///< invariant loads only
        const analysis::LoadValueFact *fact = nullptr;
    };

    void
    noteViolation(std::string what)
    {
        if (result.firstViolation.empty())
            result.firstViolation = std::move(what);
    }

    SeqMachine &machine_;
    std::map<uint32_t, Tracked> tracked_;
};

} // anonymous namespace

LoadFactsDynamicResult
validateLoadFactsDynamic(const Program &orig,
                         const DistilledProgram &dist,
                         const analysis::LoadFacts &facts,
                         uint64_t max_insts)
{
    SeqMachine machine(analysis::mergedImage(orig, dist));
    LoadFactWatcher watcher(machine, facts);
    machine.setObserver(&watcher);
    // The distilled program is an approximation; its raw SEQ replay
    // need not halt cleanly (it may fault or spin) — the instruction
    // budget bounds the observation window either way.
    machine.run(max_insts);
    return watcher.result;
}

bool
CrossValReport::allConsistent() const
{
    for (const CrossValRow &r : rows) {
        if (!r.consistent)
            return false;
    }
    return true;
}

std::string
CrossValReport::toText() const
{
    Table t({"workload", "ok", "edits", "proven", "risky", "unknown",
             "sem-err", "div-squash", "loads PI/RI/R", "pi-chg",
             "plan P/L", "pv-miss", "l-hit", "consistent"});
    for (const CrossValRow &r : rows) {
        std::string lhit = "-";
        if (r.planLikelyObservations) {
            lhit = strfmt(
                "%.0f%%",
                100.0 * static_cast<double>(r.planLikelyHits) /
                    static_cast<double>(r.planLikelyObservations));
        }
        t.addRow({r.name, r.ok ? "yes" : "NO",
                  strfmt("%zu", r.edits), strfmt("%zu", r.proven),
                  strfmt("%zu", r.risky), strfmt("%zu", r.unknown),
                  strfmt("%zu", r.semanticErrors),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.divergenceSquashes)),
                  strfmt("%zu/%zu/%zu", r.specProvablyInvariant,
                         r.specRegionInvariant, r.specRisky),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.provInvariantValueChanges)),
                  strfmt("%zu/%zu", r.planProven, r.planLikely),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.planProvenMismatches)),
                  lhit, r.consistent ? "yes" : "NO"});
    }
    return t.render("static risk vs. dynamic misspeculation");
}

CrossValReport
crossValidate(double scale, const MsspConfig &cfg,
              uint64_t max_cycles, unsigned jobs)
{
    std::vector<Workload> workloads = specAnalogues(scale);
    std::vector<std::function<CrossValRow()>> work;
    work.reserve(workloads.size());
    for (const Workload &wl : workloads) {
        work.push_back([&wl, &cfg, max_cycles] {
            CrossValRow row;
            row.name = wl.name;

            PreparedWorkload prepared =
                prepare(assemble(wl.refSource),
                        assemble(wl.trainSource),
                        DistillerOptions::paperPreset());

            analysis::SemanticResult sem =
                analysis::verifyDistilledSemantic(prepared.orig,
                                                  prepared.dist);
            row.edits = sem.semantic.verdicts.size();
            row.proven = sem.semantic.proven();
            row.risky = sem.semantic.risky();
            row.unknown = sem.semantic.unknown();
            row.semanticErrors = sem.lint.errors();

            analysis::LoadFacts facts = analysis::analyzeLoadFacts(
                prepared.orig, prepared.dist);
            analysis::SpecSafeReport spec =
                analysis::specSafeReport(facts);
            row.specLoads = spec.loads.size();
            row.specProvablyInvariant = spec.provablyInvariant();
            row.specRegionInvariant = spec.regionInvariant();
            row.specRisky = spec.risky();
            analysis::SpecPlanReport plan =
                analysis::specPlanReport(facts, prepared.dist);
            row.planCandidates = plan.candidates.size();
            row.planProven = plan.proven();
            row.planLikely = plan.likely();

            WorkloadRun run =
                runPrepared(wl.name, prepared, cfg, max_cycles);
            row.ok = run.ok;
            row.divergenceSquashes =
                run.counters.tasksSquashedLiveIn +
                run.counters.tasksSquashedWrongPc;

            LoadFactsDynamicResult dyn = validateLoadFactsDynamic(
                prepared.orig, prepared.dist, facts);
            row.provInvariantValueChanges = dyn.valueChanges;
            row.planProvenMismatches = dyn.provenMismatches;
            row.planLikelyObservations = dyn.likelyObservations;
            row.planLikelyHits = dyn.likelyHits;

            // The validator's claim is one-directional: a workload
            // whose edits are all Proven must not squash on
            // divergence. The converse (risky edits must squash) does
            // not hold — static analysis over-approximates dynamic
            // behaviour. The specsafe claim is absolute: a
            // ProvablyInvariant load that changed value means the
            // alias analysis is wrong, full stop. So is the plan's:
            // a Proven candidate reading anything but its predicted
            // value means the value-flow analysis is wrong.
            bool all_proven = row.proven == row.edits;
            row.consistent =
                run.ok && (!all_proven || row.divergenceSquashes == 0)
                && row.provInvariantValueChanges == 0
                && row.planProvenMismatches == 0;
            return row;
        });
    }
    CrossValReport rep;
    rep.rows = runSharded<CrossValRow>(jobs, std::move(work));
    return rep;
}

} // namespace mssp
