/**
 * @file
 * End-to-end benchmark of the MSSP reproduction. The metric
 * catalog, the reasons for each workload and how to read the trace
 * are in msspbench/README.md.
 *
 *   mssp_bench --workload e2-full|distill-lint|fault-squash
 *              --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * One workload per process. The benchmark builds the workload's inputs
 * (timed as set-up, several times), runs one untimed warm-up pass,
 * then runs whole passes over every op, in a seeded shuffled order,
 * until S seconds have passed. Every op checks its own output against
 * the SEQ oracle and reports a digest of every deterministic counter
 * it produced; an op whose digest differs from its first pass fails.
 *
 * With --trace 1 the passes alternate untraced and traced. A traced
 * pass records one span per call into a library layer, timed from
 * outside the library; the spans give the per-layer numbers and the
 * untraced passes give the baseline for the tracing overhead.
 *
 * The last stdout line is one JSON object: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Every line
 * before it is a human-readable report. Exit status: 0 when every op
 * passed its check, 1 when any failed, 2 on a usage error.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "distill/distiller.hh"
#include "eval/experiment.hh"
#include "fault/campaign.hh"
#include "mssp/baseline.hh"
#include "mssp/machine.hh"
#include "profile/profiler.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/supervisor.hh"
#include "util/file.hh"
#include "util/string_utils.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

using namespace mssp;

namespace
{

// Run caps shared with the evaluation harness (eval/experiment.cc,
// core/pipeline.hh), so every op runs the configuration the
// repository's own tables report.
constexpr uint64_t kBaselineMaxInsts = 1000000000ull;
constexpr uint64_t kMsspMaxCycles = 400000000ull;
constexpr uint64_t kProfileMaxInsts = 50000000ull;

/** Set-up repeats at least this often, and until this much time has
 *  passed (capped); setup_s is the median repetition. */
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 200;
constexpr double kSetupMinSeconds = 2.0;
/** Seeded random programs added to the distill-lint inputs. */
constexpr uint64_t kRandomPrograms = 4;
/** Failures printed in full (all are counted). */
constexpr size_t kMaxFailureLines = 20;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Small dense id for the calling thread (0 = first caller). */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id = next++;
    return id;
}

// -- Spans -------------------------------------------------------------------

/** Every library call the benchmark times. The text before the dot
 *  of its name is the layer (the module under src/) it belongs to. */
enum class Call : uint8_t
{
    Assemble,
    Profile,
    Distill,
    DistillSpeculated,
    Lint,
    Semantic,
    SpecSafe,
    SpecPlan,
    Baseline,
    MsspConstruct,
    MsspRun,
    SeqOracle,
    CampaignCell,
    NumCalls
};

constexpr size_t kNumCalls = static_cast<size_t>(Call::NumCalls);

const char *
callName(Call call)
{
    static const char *const names[kNumCalls] = {
        "asm.assemble",
        "profile.profileProgram",
        "distill.distill",
        "distill.distillSpeculated",
        "analysis.verifyDistilled",
        "analysis.verifyDistilledSemantic",
        "analysis.analyzeSpecSafe",
        "analysis.analyzeSpecPlan",
        "exec.runBaseline",
        "mssp.MsspMachine",
        "mssp.run",
        "fault.makeSeqOracle",
        "fault.runCampaignCell",
    };
    return names[static_cast<size_t>(call)];
}

std::string
callLayer(Call call)
{
    std::string name = callName(call);
    return name.substr(0, name.find('.'));
}

/** One timed library call inside an op or a set-up. */
struct CallSpan
{
    Call call;
    int64_t start;
    int64_t end;
};

/**
 * Times the library calls of one op (or one set-up). Each op owns its
 * tracer, so shards never share one; a disabled tracer just runs the
 * call.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    template <typename F>
    auto
    operator()(Call call, F &&fn)
    {
        if (!on_)
            return fn();
        int64_t start = nowNs();
        auto result = fn();
        spans.push_back({call, start, nowNs()});
        return result;
    }

    std::vector<CallSpan> spans;

  private:
    bool on_;
};

/** A span as written to the trace file: ids are 1-based, parent 0
 *  means a root (a set-up or a pass). */
struct SpanRecord
{
    uint32_t id;
    uint32_t parent;
    std::string name;
    std::string op;
    unsigned thread;
    int64_t start;
    int64_t end;
};

// -- Deterministic counters --------------------------------------------------

enum class Ctr : uint8_t
{
    AsmCalls,
    AsmWords,
    ProfileInsts,
    DistillCalls,
    DistillTasks,
    DistillEdits,
    Baked,
    AnalysisErrors,
    SemanticEdits,
    SemanticProven,
    SpecLoads,
    PlanCandidates,
    SeqInsts,
    MsspCycles,
    CommittedInsts,
    MasterInsts,
    TasksForked,
    TasksCommitted,
    SquashEvents,
    SlaveInsts,
    WastedSlaveInsts,
    LiveInChecked,
    LiveInMismatched,
    SeqModeCycles,
    SlaveIdleCycles,
    SlaveCycles,
    SeqBackoffEvents,
    TaskInsts,
    SimInsts,
    Cells,
    CellCycles,
    CellSquashes,
    CellSeqModeInsts,
    Injections,
    CellsFailed,
    WatchdogEscalations,
    NumCtrs
};

constexpr size_t kNumCtrs = static_cast<size_t>(Ctr::NumCtrs);

const char *
ctrName(size_t i)
{
    static const char *const names[kNumCtrs] = {
        "asm_calls", "asm_words", "profile_insts", "distill_calls",
        "distill_tasks", "distill_edits", "baked", "analysis_errors",
        "semantic_edits", "semantic_proven", "spec_loads",
        "plan_candidates", "seq_insts", "mssp_cycles",
        "committed_insts", "master_insts", "tasks_forked",
        "tasks_committed", "squash_events", "slave_insts",
        "wasted_slave_insts", "livein_checked", "livein_mismatched",
        "seq_mode_cycles", "slave_idle_cycles", "slave_cycles",
        "seq_backoff_events", "task_insts", "sim_insts", "cells",
        "cell_cycles", "cell_squashes", "cell_seq_mode_insts",
        "injections", "cells_failed", "watchdog_escalations",
    };
    return names[i];
}

/** Deterministic counters of one op, pass or set-up. */
struct Tally
{
    std::array<uint64_t, kNumCtrs> v{};

    uint64_t &operator[](Ctr c) { return v[static_cast<size_t>(c)]; }
    uint64_t operator[](Ctr c) const { return v[static_cast<size_t>(c)]; }

    Tally &
    operator+=(const Tally &o)
    {
        for (size_t i = 0; i < kNumCtrs; ++i)
            v[i] += o.v[i];
        return *this;
    }
};

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    add(double x)
    {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        add(bits);
    }

    void
    add(const Tally &t)
    {
        for (uint64_t x : t.v)
            add(x);
    }
};

/** What one op hands back. */
struct OpResult
{
    bool ok = true;
    std::string failure;    ///< why ok is false
    Tally tally;
    double speedup = 0.0;   ///< baseline / MSSP cycles (0 = no run)
    double masterRatio = 0.0;

    void
    fail(std::string why)
    {
        if (ok)
            failure = std::move(why);
        ok = false;
    }

    uint64_t
    digest() const
    {
        Digest d;
        d.add(tally);
        d.add(speedup);
        d.add(masterRatio);
        return d.h;
    }
};

void
tallyMachine(Tally &t, const MsspMachine &m, const MsspResult &res)
{
    const MsspCounters &c = m.counters();
    t[Ctr::MsspCycles] += res.cycles;
    t[Ctr::CommittedInsts] += res.committedInsts;
    t[Ctr::SimInsts] += res.committedInsts;
    t[Ctr::MasterInsts] += c.masterInsts;
    t[Ctr::TasksForked] += c.tasksForked;
    t[Ctr::TasksCommitted] += c.tasksCommitted;
    t[Ctr::SquashEvents] += c.squashEvents;
    t[Ctr::SlaveInsts] += c.slaveInsts;
    t[Ctr::WastedSlaveInsts] += c.wastedSlaveInsts;
    t[Ctr::LiveInChecked] += c.liveInCellsChecked;
    t[Ctr::LiveInMismatched] += c.liveInCellsMismatched;
    t[Ctr::SeqModeCycles] += c.seqModeCycles;
    t[Ctr::SlaveIdleCycles] += c.slaveIdleCycles;
    t[Ctr::SlaveCycles] += res.cycles * m.config().numSlaves;
    t[Ctr::SeqBackoffEvents] += c.seqBackoffEvents;
    t[Ctr::TaskInsts] += static_cast<uint64_t>(
        std::llround(m.meanTaskSize() *
                     static_cast<double>(c.tasksCommitted)));
}

/** assemble -> profile -> distill, one span per call (the same steps
 *  as core/pipeline.cc's prepare()). */
PreparedWorkload
prepareTraced(const Workload &wl, Tracer &t, Tally &tally)
{
    PreparedWorkload out;
    out.orig = t(Call::Assemble, [&] { return assemble(wl.refSource); });
    Program train =
        t(Call::Assemble, [&] { return assemble(wl.trainSource); });
    out.profile = t(Call::Profile, [&] {
        return profileProgram(train, kProfileMaxInsts);
    });
    out.dist = t(Call::Distill, [&] {
        return distill(out.orig, out.profile,
                       DistillerOptions::paperPreset());
    });
    tally[Ctr::AsmCalls] += 2;
    tally[Ctr::AsmWords] +=
        out.orig.image().size() + train.image().size();
    tally[Ctr::ProfileInsts] += out.profile.totalInsts;
    tally[Ctr::DistillCalls] += 1;
    tally[Ctr::DistillTasks] += out.dist.taskMap.size();
    tally[Ctr::DistillEdits] += out.dist.report.edits.size();
    return out;
}

// -- Workloads ---------------------------------------------------------------

/** One benchmark workload: inputs built by setup(), then numOps()
 *  independent ops. runOp() must be safe to call from several threads
 *  at once. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    /** Build every input the ops need, from scratch. */
    virtual void setup(Tracer &t, Tally &tally) = 0;
    virtual size_t numOps() const = 0;
    virtual std::string opName(size_t op) const = 0;
    virtual OpResult runOp(size_t op, Tracer &t) const = 0;
    /** Host threads the ops are sharded over (1 = serial). */
    virtual unsigned threads() const { return 1; }
};

/**
 * The paper's E2 point: all 12 analogues at scale 1.0, 8 slaves, the
 * paper-preset distiller, default MsspConfig. An op is one workload's
 * baseline run plus its MSSP run, checked against each other.
 */
class E2Full final : public BenchWorkload
{
  public:
    void
    setup(Tracer &t, Tally &tally) override
    {
        inputs_.clear();
        for (const Workload &wl : specAnalogues(1.0))
            inputs_.push_back({wl.name, prepareTraced(wl, t, tally)});
    }

    size_t numOps() const override { return inputs_.size(); }

    std::string
    opName(size_t op) const override
    {
        return inputs_[op].name;
    }

    OpResult
    runOp(size_t op, Tracer &t) const override
    {
        const Input &in = inputs_[op];
        const PreparedWorkload &p = in.prepared;
        OpResult r;
        BaselineResult base = t(Call::Baseline, [&] {
            return runBaseline(p.orig, cfg_.slaveIpc, kBaselineMaxInsts);
        });
        auto machine = t(Call::MsspConstruct, [&] {
            return std::make_unique<MsspMachine>(p.orig, p.dist, cfg_);
        });
        MsspResult res =
            t(Call::MsspRun, [&] { return machine->run(kMsspMaxCycles); });

        r.tally[Ctr::SeqInsts] += base.insts;
        tallyMachine(r.tally, *machine, res);
        r.speedup = res.cycles ? static_cast<double>(base.cycles) /
                                     static_cast<double>(res.cycles)
                               : 0.0;
        r.masterRatio =
            base.insts ? static_cast<double>(
                             machine->counters().masterInsts) /
                             static_cast<double>(base.insts)
                       : 0.0;
        if (!base.halted || !res.halted)
            r.fail(strfmt("did not halt (mssp: %s)",
                          toString(res.stopReason)));
        else if (res.outputs != base.outputs)
            r.fail("MSSP outputs differ from the baseline run");
        else if (res.committedInsts != base.insts)
            r.fail(strfmt("committed %llu insts, baseline ran %llu",
                          static_cast<unsigned long long>(
                              res.committedInsts),
                          static_cast<unsigned long long>(base.insts)));
        return r;
    }

  private:
    struct Input
    {
        std::string name;
        PreparedWorkload prepared;
    };
    std::vector<Input> inputs_;
    MsspConfig cfg_;
};

/**
 * The toolchain path behind `mssp-distill --verify` and `mssp-lint`:
 * each op takes one source through assemble, profile, distill and
 * distillSpeculated, then all four validators on the speculated
 * image. No MSSP machine runs.
 */
class DistillLint final : public BenchWorkload
{
  public:
    explicit DistillLint(uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &, Tally &) override
    {
        inputs_ = specAnalogues(1.0);
        for (uint64_t k = 0; k < kRandomPrograms; ++k) {
            uint64_t s = Rng::mix(seed_, k);
            std::string src = randomProgramSource(s);
            inputs_.push_back({strfmt("random-%016llx",
                                      static_cast<unsigned long long>(s)),
                               "", src, ""});
        }
    }

    size_t numOps() const override { return inputs_.size(); }

    std::string
    opName(size_t op) const override
    {
        return inputs_[op].name;
    }

    OpResult
    runOp(size_t op, Tracer &t) const override
    {
        const Workload &wl = inputs_[op];
        OpResult r;
        Tally &c = r.tally;
        Program ref =
            t(Call::Assemble, [&] { return assemble(wl.refSource); });
        Program train = ref;
        c[Ctr::AsmCalls] += 1;
        c[Ctr::AsmWords] += ref.image().size();
        if (!wl.trainSource.empty()) {
            train = t(Call::Assemble,
                      [&] { return assemble(wl.trainSource); });
            c[Ctr::AsmCalls] += 1;
            c[Ctr::AsmWords] += train.image().size();
        }
        ProfileData profile = t(Call::Profile, [&] {
            return profileProgram(train, kProfileMaxInsts);
        });
        DistillerOptions dopts = DistillerOptions::paperPreset();
        DistilledProgram dist = t(Call::Distill, [&] {
            return distill(ref, profile, dopts);
        });
        DistilledProgram spec = t(Call::DistillSpeculated, [&] {
            return distillSpeculated(ref, profile, dopts,
                                     SpeculateOptions{});
        });
        c[Ctr::ProfileInsts] += profile.totalInsts;
        c[Ctr::DistillCalls] += 2;
        c[Ctr::DistillTasks] += dist.taskMap.size();
        c[Ctr::DistillEdits] += dist.report.edits.size();
        c[Ctr::Baked] += spec.specEdits.size();

        auto lint = t(Call::Lint,
                      [&] { return analysis::verifyDistilled(ref, spec); });
        auto sem = t(Call::Semantic, [&] {
            return analysis::verifyDistilledSemantic(ref, spec);
        });
        auto safe = t(Call::SpecSafe, [&] {
            return analysis::analyzeSpecSafe(ref, spec);
        });
        auto plan = t(Call::SpecPlan, [&] {
            return analysis::analyzeSpecPlan(ref, spec);
        });
        size_t errors = lint.errors() + sem.lint.errors() +
                        safe.lint.errors() + plan.lint.errors();
        c[Ctr::AnalysisErrors] += errors;
        c[Ctr::SemanticEdits] += sem.semantic.verdicts.size();
        c[Ctr::SemanticProven] += sem.semantic.proven();
        c[Ctr::SpecLoads] += safe.loads.size();
        c[Ctr::PlanCandidates] += plan.candidates.size();
        if (errors) {
            r.fail(strfmt("%zu validator errors (lint %zu, semantic "
                          "%zu, specsafe %zu, specplan %zu)",
                          errors, lint.errors(), sem.lint.errors(),
                          safe.lint.errors(), plan.lint.errors()));
        }
        return r;
    }

  private:
    uint64_t seed_;
    std::vector<Workload> inputs_;
};

/**
 * The suite's fault campaign at its CI scale 0.05: every analogue x
 * every fault type x both suite intensities under campaignConfig(),
 * plus one fault-free run per analogue. Cell seeds derive from the
 * benchmark seed exactly as runFaultCampaign derives them from its
 * campaign seed. Ops are sharded over the sim pool.
 */
class FaultSquash final : public BenchWorkload
{
  public:
    explicit FaultSquash(uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &t, Tally &tally) override
    {
        inputs_.clear();
        cells_.clear();
        CampaignOptions copts;
        for (const Workload &wl : specAnalogues(copts.scale)) {
            PreparedWorkload p = prepareTraced(wl, t, tally);
            BaselineResult base = t(Call::Baseline, [&] {
                return runBaseline(p.orig, cfg_.slaveIpc,
                                   kBaselineMaxInsts);
            });
            auto oracle = t(Call::SeqOracle, [&] {
                return std::make_unique<SeqOracle>(
                    makeSeqOracle(std::move(p)));
            });
            tally[Ctr::SeqInsts] += base.insts + oracle->insts;
            uint64_t budget = campaignBudget(copts, oracle->insts);
            inputs_.push_back(
                {wl.name, base.cycles, budget, std::move(oracle)});
        }
        uint64_t index = 0;
        for (size_t w = 0; w < inputs_.size(); ++w) {
            for (FaultType type : allFaultTypes()) {
                for (double intensity : copts.intensities) {
                    double rate =
                        std::min(1.0, faultBaseRate(type) * intensity);
                    cells_.push_back(
                        {w, type, rate, Rng::mix(seed_, index++)});
                }
            }
        }
    }

    size_t numOps() const override { return cells_.size() + inputs_.size(); }

    std::string
    opName(size_t op) const override
    {
        if (op >= cells_.size())
            return inputs_[op - cells_.size()].name + "/fault-free";
        const Cell &c = cells_[op];
        return strfmt("%s/%s/%g", inputs_[c.input].name.c_str(),
                      toString(c.type), c.rate);
    }

    OpResult
    runOp(size_t op, Tracer &t) const override
    {
        return op < cells_.size() ? runCell(cells_[op], t)
                                  : runFaultFree(
                                        inputs_[op - cells_.size()], t);
    }

    unsigned
    threads() const override
    {
        return std::max(1u, hostCpus() / 2);
    }

  private:
    struct Input
    {
        std::string name;
        uint64_t baselineCycles;
        uint64_t budget;
        std::unique_ptr<SeqOracle> oracle;
    };
    struct Cell
    {
        size_t input;
        FaultType type;
        double rate;
        uint64_t seed;
    };

    OpResult
    runCell(const Cell &cell, Tracer &t) const
    {
        const Input &in = inputs_[cell.input];
        OpResult r;
        CampaignRun run = t(Call::CampaignCell, [&] {
            return runCampaignCell(in.name, *in.oracle, cell.type,
                                   cell.rate, cell.seed, in.budget);
        });
        const RecoveryReport &rec = run.recovery;
        r.tally[Ctr::Cells] += 1;
        r.tally[Ctr::CellCycles] += run.cycles;
        r.tally[Ctr::CellSquashes] += rec.squashEvents;
        r.tally[Ctr::CellSeqModeInsts] += rec.seqModeInsts;
        r.tally[Ctr::Injections] += run.injections;
        r.tally[Ctr::WatchdogEscalations] += rec.watchdogEscalations;
        r.tally[Ctr::SimInsts] += run.forwardProgress ? in.oracle->insts : 0;
        if (!run.ok()) {
            r.tally[Ctr::CellsFailed] += 1;
            r.fail(strfmt("campaign invariant broken:%s%s%s%s",
                          run.outputOk ? "" : " output",
                          run.forwardProgress ? "" : " progress",
                          run.archClean ? "" : " arch",
                          run.commitInvariantOk ? "" : " commit"));
        }
        return r;
    }

    OpResult
    runFaultFree(const Input &in, Tracer &t) const
    {
        const SeqOracle &o = *in.oracle;
        OpResult r;
        auto machine = t(Call::MsspConstruct, [&] {
            return std::make_unique<MsspMachine>(o.prepared.orig,
                                                 o.prepared.dist, cfg_);
        });
        MsspResult res =
            t(Call::MsspRun, [&] { return machine->run(kMsspMaxCycles); });
        tallyMachine(r.tally, *machine, res);
        r.speedup = res.cycles ? static_cast<double>(in.baselineCycles) /
                                     static_cast<double>(res.cycles)
                               : 0.0;
        if (!res.halted)
            r.fail(strfmt("did not halt (%s)", toString(res.stopReason)));
        else if (res.outputs != o.outputs)
            r.fail("MSSP outputs differ from the SEQ oracle");
        else if (res.committedInsts != o.insts)
            r.fail("committed-instruction count differs from the oracle");
        return r;
    }

    uint64_t seed_;
    std::vector<Input> inputs_;
    std::vector<Cell> cells_;
    MsspConfig cfg_;   ///< fault-free runs: the suite's configuration
};

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "e2-full")
        return std::make_unique<E2Full>();
    if (name == "distill-lint")
        return std::make_unique<DistillLint>(seed);
    if (name == "fault-squash")
        return std::make_unique<FaultSquash>(seed);
    return nullptr;
}

// -- Passes ------------------------------------------------------------------

/** One executed op. */
struct OpRecord
{
    OpResult result;
    int64_t start = 0;
    int64_t end = 0;
    unsigned thread = 0;
    unsigned attempts = 1;
    bool quarantined = false;
    std::vector<CallSpan> spans;
};

struct PassResult
{
    std::vector<OpRecord> ops;   ///< canonical op order
    int64_t start = 0;
    int64_t end = 0;
};

OpRecord
runOne(const BenchWorkload &wl, size_t op, bool traced)
{
    OpRecord rec;
    Tracer t(traced);
    rec.thread = threadIndex();
    rec.start = nowNs();
    rec.result = wl.runOp(op, t);
    rec.end = nowNs();
    rec.spans = std::move(t.spans);
    return rec;
}

PassResult
runPass(const BenchWorkload &wl, const std::vector<size_t> &order,
        bool traced)
{
    PassResult pass;
    pass.ops.resize(order.size());
    pass.start = nowNs();
    if (wl.threads() <= 1) {
        for (size_t op : order) {
            try {
                pass.ops[op] = runOne(wl, op, traced);
            } catch (const std::exception &e) {
                pass.ops[op].result.fail(
                    strfmt("exception: %s", e.what()));
            }
        }
    } else {
        // The campaign's own sharding: runSharded's supervised
        // sibling, with the campaign's retry policy.
        std::vector<std::function<OpRecord(const JobContext &)>> work;
        std::vector<std::string> labels;
        for (size_t op : order) {
            work.push_back([&wl, op, traced](const JobContext &) {
                return runOne(wl, op, traced);
            });
            labels.push_back(wl.opName(op));
        }
        SupervisorOptions sopts;
        sopts.retry = CampaignOptions{}.retry;
        SupervisedResult<OpRecord> swept = runSupervised<OpRecord>(
            wl.threads(), std::move(work), sopts, std::move(labels));
        for (size_t i = 0; i < order.size(); ++i) {
            JobOutcome<OpRecord> &out = swept.outcomes[i];
            OpRecord &rec = pass.ops[order[i]];
            if (out.ok()) {
                rec = std::move(*out.value);
            } else {
                rec.quarantined = true;
                rec.result.fail("quarantined: " + out.status.toString());
            }
            rec.attempts = out.attempts;
        }
    }
    pass.end = nowNs();
    return pass;
}

// -- Statistics --------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** First "key: value" line of a /proc file whose key is @p key. */
std::string
procField(const char *path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            size_t colon = line.find(':');
            if (colon == std::string::npos)
                return "";
            size_t start = line.find_first_not_of(" \t", colon + 1);
            return start == std::string::npos ? "" : line.substr(start);
        }
    }
    return "";
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    return std::atof(procField("/proc/self/status", "VmHWM").c_str()) /
           1024.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: mssp_bench --workload "
                 "e2-full|distill-lint|fault-squash --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--samples-out FILE]\n");
    std::exit(2);
}

/** Chrome trace-event JSON (chrome://tracing, Perfetto) of @p spans;
 *  timestamps in microseconds since @p origin. */
std::string
traceJson(const std::string &workload,
          const std::vector<SpanRecord> &spans, int64_t origin)
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out += strfmt("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                      "\"dur\": %.3f, \"args\": {\"span\": %u, "
                      "\"parent\": %u, \"op\": \"%s\"}}%s\n",
                      s.name.c_str(), workload.c_str(), s.thread,
                      static_cast<double>(s.start - origin) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, s.id,
                      s.parent, s.op.c_str(),
                      i + 1 < spans.size() ? "," : "");
    }
    return out + "]}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string trace_out;
    std::string samples_out;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            workload_name = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else if (arg == "--trace-out")
            trace_out = val;
        else if (arg == "--samples-out")
            samples_out = val;
        else
            usage();
    }
    std::unique_ptr<BenchWorkload> wl = makeWorkload(workload_name, seed);
    if (!wl || seconds < 0.0 || (trace != 0 && trace != 1))
        usage();
    const bool tracing = trace == 1;

    setQuiet(true);
    threadIndex();   // the main thread is thread 0 in the trace
    const int64_t origin = nowNs();
    std::printf("mssp_bench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload_name.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace);
    std::printf("host nproc=%u cpu=\"%s\" loadavg_start=\"%s\"\n",
                hostCpus(), procField("/proc/cpuinfo", "model name").c_str(),
                loadAverage().c_str());

    std::vector<SpanRecord> trace_log;
    auto addSpan = [&trace_log](uint32_t parent, std::string name,
                                std::string op, unsigned thread,
                                int64_t start, int64_t end) {
        uint32_t id = static_cast<uint32_t>(trace_log.size() + 1);
        trace_log.push_back({id, parent, std::move(name), std::move(op),
                             thread, start, end});
        return id;
    };
    std::array<double, kNumCalls> setup_call_ns{};
    std::array<double, kNumCalls> pass_call_ns{};

    size_t attempted = 0;
    size_t failed = 0;
    auto noteFailure = [&failed](const std::string &what,
                                 const std::string &why) {
        if (failed++ < kMaxFailureLines)
            std::printf("FAIL %s: %s\n", what.c_str(), why.c_str());
    };

    // Set-up, repeated; every repetition must produce the same
    // counters.
    std::vector<double> setup_s;
    Tally setup_tally;
    std::optional<uint64_t> setup_digest;
    double setup_total_s = 0.0;
    for (size_t rep = 0;
         rep < kMinSetupReps ||
         (setup_total_s < kSetupMinSeconds && rep < kMaxSetupReps);
         ++rep) {
        Tracer t(tracing);
        Tally tally;
        int64_t start = nowNs();
        try {
            wl->setup(t, tally);
        } catch (const std::exception &e) {
            noteFailure("setup", e.what());
            std::printf("set-up failed; no result\n");
            return 1;
        }
        int64_t end = nowNs();
        setup_s.push_back(static_cast<double>(end - start) / 1e9);
        setup_total_s += setup_s.back();
        Digest d;
        d.add(tally);
        if (!setup_digest) {
            setup_digest = d.h;
            setup_tally = tally;
        } else if (*setup_digest != d.h) {
            noteFailure("setup", "counters differ between repetitions");
        }
        if (tracing) {
            uint32_t root = addSpan(0, "setup", "", 0, start, end);
            for (const CallSpan &s : t.spans) {
                addSpan(root, callName(s.call), "", 0, s.start, s.end);
                setup_call_ns[static_cast<size_t>(s.call)] +=
                    static_cast<double>(s.end - s.start);
            }
        }
    }

    const size_t n_ops = wl->numOps();
    std::vector<std::optional<uint64_t>> first_digest(n_ops);
    std::vector<OpResult> first_results(n_ops);
    Tally pass_tally;
    std::vector<double> op_ms;            // untraced op samples
    std::vector<double> untraced_pass_ms; // Σ op time per pass
    std::vector<double> traced_pass_ms;
    std::vector<double> untraced_wall_ms; // wall time per pass
    double traced_op_ns = 0.0;
    size_t traced_passes = 0;
    std::string samples = "pass\top\tms\ttraced\n";
    uint64_t retries = 0;
    uint64_t quarantined = 0;

    auto account = [&](PassResult &pass, size_t pass_no, bool timed,
                       bool traced) {
        uint32_t root = 0;
        if (traced)
            root = addSpan(0, strfmt("pass %zu", pass_no), "", 0,
                           pass.start, pass.end);
        double busy = 0.0;
        for (size_t op = 0; op < n_ops; ++op) {
            OpRecord &rec = pass.ops[op];
            const OpResult &r = rec.result;
            ++attempted;
            retries += rec.attempts - 1;
            quarantined += rec.quarantined ? 1 : 0;
            std::string what =
                strfmt("pass %zu op %s", pass_no, wl->opName(op).c_str());
            if (!r.ok) {
                noteFailure(what, r.failure);
            } else if (!first_digest[op]) {
                first_digest[op] = r.digest();
                first_results[op] = r;
                pass_tally += r.tally;
            } else if (*first_digest[op] != r.digest()) {
                noteFailure(what, "deterministic counters differ from "
                                  "this op's first run");
            }
            double ns = static_cast<double>(rec.end - rec.start);
            busy += ns;
            if (timed) {
                samples += strfmt("%zu\t%s\t%.6f\t%d\n", pass_no,
                                  wl->opName(op).c_str(), ns / 1e6,
                                  traced ? 1 : 0);
            }
            if (traced) {
                uint32_t op_span = addSpan(root, "op", wl->opName(op),
                                           rec.thread, rec.start, rec.end);
                traced_op_ns += ns;
                for (const CallSpan &s : rec.spans) {
                    addSpan(op_span, callName(s.call), wl->opName(op),
                            rec.thread, s.start, s.end);
                    pass_call_ns[static_cast<size_t>(s.call)] +=
                        static_cast<double>(s.end - s.start);
                }
            } else if (timed) {
                op_ms.push_back(ns / 1e6);
            }
        }
        if (!timed)
            return;
        if (traced) {
            ++traced_passes;
            traced_pass_ms.push_back(busy / 1e6);
        } else {
            untraced_pass_ms.push_back(busy / 1e6);
            untraced_wall_ms.push_back(
                static_cast<double>(pass.end - pass.start) / 1e6);
        }
    };

    auto shuffled = [n_ops, seed](size_t pass_no) {
        std::vector<size_t> order(n_ops);
        for (size_t i = 0; i < n_ops; ++i)
            order[i] = i;
        Rng rng(Rng::mix(seed, 0x5eed0000ull + pass_no));
        for (size_t i = n_ops; i > 1; --i)
            std::swap(order[i - 1], order[rng.next() % i]);
        return order;
    };

    // Warm-up pass: fills caches and lazy state; checked, not timed.
    {
        PassResult warm = runPass(*wl, shuffled(0), false);
        account(warm, 0, false, false);
    }
    const int64_t timed_start = nowNs();
    for (size_t pass_no = 1;; ++pass_no) {
        bool traced = tracing && pass_no % 2 == 0;
        PassResult pass = runPass(*wl, shuffled(pass_no), traced);
        account(pass, pass_no, true, traced);
        double elapsed = static_cast<double>(nowNs() - timed_start) / 1e9;
        if (elapsed >= seconds && (!tracing || traced))
            break;
    }
    const double peak_rss = peakRssMb();

    // -- Deterministic results of the first pass -----------------------------
    Digest fp;
    fp.add(*setup_digest);
    std::vector<double> speedups;
    std::vector<double> master_ratios;
    std::string worst_name;
    double worst = 0.0;
    for (size_t op = 0; op < n_ops; ++op) {
        fp.add(first_digest[op].value_or(0));
        const OpResult &r = first_results[op];
        if (r.speedup > 0.0) {
            speedups.push_back(r.speedup);
            if (worst_name.empty() || r.speedup < worst) {
                worst = r.speedup;
                worst_name = wl->opName(op);
            }
        }
        if (r.masterRatio > 0.0)
            master_ratios.push_back(r.masterRatio);
    }
    Tally t = setup_tally;
    t += pass_tally;

    // -- Metrics -------------------------------------------------------------
    auto busyMs = [&](Call c) {
        size_t i = static_cast<size_t>(c);
        return (setup_call_ns[i] / static_cast<double>(setup_s.size()) +
                ratio(pass_call_ns[i], static_cast<double>(traced_passes))) /
               1e6;
    };
    auto layerShare = [&](const std::string &layer) {
        double ns = 0.0;
        for (size_t i = 0; i < kNumCalls; ++i) {
            if (callLayer(static_cast<Call>(i)) == layer)
                ns += pass_call_ns[i];
        }
        return ratio(ns, traced_op_ns);
    };
    auto d = [&t](Ctr c) { return static_cast<double>(t[c]); };
    auto sum = [](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const unsigned threads = wl->threads();
    const double fail_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));

    std::vector<Metric> e2e = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"ops_per_s",
         ratio(static_cast<double>(n_ops),
               quantile(untraced_wall_ms, 0.5) / 1e3), "1/s"},
        {"op_ms_p50", quantile(op_ms, 0.5), "ms"},
        {"op_ms_p90", quantile(op_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss, "MB"},
    };

    const double seq_ms = busyMs(Call::Baseline) + busyMs(Call::SeqOracle);
    const double sim_ms = busyMs(Call::MsspRun) + busyMs(Call::CampaignCell);
    std::vector<Metric> layers = {
        {"asm.ms", busyMs(Call::Assemble), "ms/pass"},
        {"asm.calls", d(Ctr::AsmCalls), "count"},
        {"asm.words", d(Ctr::AsmWords), "words"},
        {"profile.ms", busyMs(Call::Profile), "ms/pass"},
        {"profile.insts", d(Ctr::ProfileInsts), "insts"},
        {"profile.minsts_per_s",
         ratio(d(Ctr::ProfileInsts), busyMs(Call::Profile) * 1e3), "M/s"},
        {"distill.ms", busyMs(Call::Distill), "ms/pass"},
        {"distill.calls", d(Ctr::DistillCalls), "count"},
        {"distill.tasks", d(Ctr::DistillTasks), "count"},
        {"distill.edits", d(Ctr::DistillEdits), "count"},
        {"distill.speculate_ms", busyMs(Call::DistillSpeculated), "ms/pass"},
        {"distill.baked", d(Ctr::Baked), "count"},
        {"distill.master_ratio", geomean(master_ratios), "fraction"},
        {"analysis.lint_ms", busyMs(Call::Lint), "ms/pass"},
        {"analysis.semantic_ms", busyMs(Call::Semantic), "ms/pass"},
        {"analysis.specsafe_ms", busyMs(Call::SpecSafe), "ms/pass"},
        {"analysis.specplan_ms", busyMs(Call::SpecPlan), "ms/pass"},
        {"analysis.errors", d(Ctr::AnalysisErrors), "count"},
        {"analysis.proven_frac",
         ratio(d(Ctr::SemanticProven), d(Ctr::SemanticEdits)), "fraction"},
        {"exec.seq_ms", seq_ms, "ms/pass"},
        {"exec.insts", d(Ctr::SeqInsts), "insts"},
        {"exec.seq_minsts_per_s", ratio(d(Ctr::SeqInsts), seq_ms * 1e3),
         "M/s"},
        {"mssp.construct_ms", busyMs(Call::MsspConstruct), "ms/pass"},
        {"mssp.run_ms", busyMs(Call::MsspRun), "ms/pass"},
        {"mssp.host_ns_per_cycle",
         ratio(busyMs(Call::MsspRun) * 1e6, d(Ctr::MsspCycles)), "ns/cycle"},
        {"mssp.cycles", d(Ctr::MsspCycles), "cycles"},
        {"mssp.committed_insts", d(Ctr::CommittedInsts), "insts"},
        {"mssp.master_insts", d(Ctr::MasterInsts), "insts"},
        {"mssp.tasks_forked", d(Ctr::TasksForked), "count"},
        {"mssp.commit_frac",
         ratio(d(Ctr::TasksCommitted), d(Ctr::TasksForked)), "fraction"},
        {"mssp.squash_events", d(Ctr::SquashEvents), "count"},
        {"mssp.wasted_slave_frac",
         ratio(d(Ctr::WastedSlaveInsts), d(Ctr::SlaveInsts)), "fraction"},
        {"mssp.livein_mismatch_frac",
         ratio(d(Ctr::LiveInMismatched), d(Ctr::LiveInChecked)),
         "fraction"},
        {"mssp.seq_mode_cycle_frac",
         ratio(d(Ctr::SeqModeCycles), d(Ctr::MsspCycles)), "fraction"},
        {"mssp.slave_idle_frac",
         ratio(d(Ctr::SlaveIdleCycles), d(Ctr::SlaveCycles)), "fraction"},
        {"mssp.seq_backoff_events", d(Ctr::SeqBackoffEvents), "count"},
        {"mssp.mean_task_size",
         ratio(d(Ctr::TaskInsts), d(Ctr::TasksCommitted)), "insts"},
        {"fault.oracle_ms", busyMs(Call::SeqOracle), "ms/pass"},
        {"fault.cell_ms", busyMs(Call::CampaignCell), "ms/pass"},
        {"fault.injections", d(Ctr::Injections), "count"},
        {"fault.cells_failed", d(Ctr::CellsFailed), "count"},
        {"fault.watchdog_escalations", d(Ctr::WatchdogEscalations),
         "count"},
        {"sim.threads", static_cast<double>(threads), "count"},
        {"sim.shard_efficiency",
         ratio(sum(untraced_pass_ms), threads * sum(untraced_wall_ms)),
         "fraction"},
        {"sim.retries", static_cast<double>(retries), "count"},
        {"sim.quarantined", static_cast<double>(quarantined), "count"},
        {"sim_minsts_per_s", ratio(d(Ctr::SimInsts), sim_ms * 1e3), "M/s"},
        {"sim_speedup_geomean", geomean(speedups), "x"},
        {"sim_speedup_min", worst, "x"},
        {"fail_frac", fail_frac, "fraction"},
        {"trace.overhead_frac",
         ratio(quantile(traced_pass_ms, 0.5),
               quantile(untraced_pass_ms, 0.5)) - 1.0,
         "fraction"},
    };
    for (const char *layer :
         {"asm", "profile", "distill", "analysis", "exec", "mssp", "fault"}) {
        layers.push_back({std::string(layer) + ".op_share",
                          layerShare(layer), "fraction"});
    }

    // -- Report --------------------------------------------------------------
    std::printf("host loadavg_end=\"%s\"\n", loadAverage().c_str());
    std::printf("passes untraced=%zu traced=%zu ops_per_pass=%zu "
                "samples=%zu beyond_p90=%zu threads=%u\n",
                untraced_wall_ms.size(), traced_passes, n_ops, op_ms.size(),
                op_ms.size() - static_cast<size_t>(std::ceil(
                                   0.9 * static_cast<double>(op_ms.size()))),
                threads);
    std::printf("fingerprint %s %016llx\n", workload_name.c_str(),
                static_cast<unsigned long long>(fp.h));
    std::printf("result fail_frac=%.9g sim_speedup_geomean=%.9g "
                "sim_speedup_min=%.9g (%s)\n",
                fail_frac, geomean(speedups), worst,
                worst_name.empty() ? "no MSSP runs" : worst_name.c_str());
    for (size_t i = 0; i < kNumCtrs; ++i) {
        std::printf("counter %s %llu\n", ctrName(i),
                    static_cast<unsigned long long>(t.v[i]));
    }
    for (const Metric &m : e2e)
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string walls;
    for (double ms : untraced_wall_ms)
        walls += strfmt(" %.1f", ms);
    std::printf("pass_wall_ms%s\n", walls.c_str());
    auto save = [](const std::string &path, const std::string &text) {
        try {
            writeFile(path, text);
        } catch (const std::exception &e) {
            std::printf("warning: %s\n", e.what());
        }
    };
    if (!samples_out.empty())
        save(samples_out, samples);
    if (tracing) {
        for (const Metric &m : layers)
            std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        if (!trace_out.empty())
            save(trace_out, traceJson(workload_name, trace_log, origin));
    }

    const bool correct = failed == 0;
    std::string json = strfmt(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    const std::vector<Metric> &out = tracing ? layers : e2e;
    for (size_t i = 0; i < out.size(); ++i) {
        json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", out[i].name.c_str(), out[i].value,
                       out[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
