/**
 * @file
 * mssp-distill: profile a training binary and distill a reference
 * binary into an MSSP distilled object.
 *
 *   mssp-distill ref.{s,mo} [--train train.{s,mo}] [-o out.mdo]
 *                [--workload NAME] [--scale S]
 *                [--theta T] [--no-valuespec] [--no-silentstores]
 *                [--task-size N] [--report] [--verify]
 *                [--timeout-ms N] [--max-insts N]
 *
 * --workload NAME distills a registry analogue (workloads/
 * workloads.hh) instead of an input file; --scale sets its size.
 *
 * --verify runs the mssp-lint static checks — the structural
 * contract and the semantic translation validation of the edit
 * log — on the freshly distilled image; on errors nothing is
 * written and the exit status is 1.
 *
 * --timeout-ms / --max-insts arm a whole-invocation budget
 * (sim/supervisor.hh; env defaults MSSP_JOB_TIMEOUT_MS /
 * MSSP_JOB_MAX_INSTS) covering profiling. A budget trip writes
 * nothing and exits 4 (docs/LINT.md exit-code table).
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "sim/logging.hh"
#include "sim/supervisor.hh"
#include "util/file.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

using namespace mssp;

namespace
{

Program
loadAny(const std::string &path)
{
    std::string text = readFile(path);
    if (startsWith(trim(text), "mssp-object"))
        return loadProgram(text);
    return assemble(text);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string ref_path, train_path, out_path, workload_name;
    DistillerOptions opts = DistillerOptions::paperPreset();
    bool show_report = false;
    bool verify = false;
    double scale = 1.0;
    JobBudget budget = budgetFromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--train" && i + 1 < argc) {
            train_path = argv[++i];
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            workload_name = argv[++i];
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else if (arg == "--theta" && i + 1 < argc) {
            opts.biasThreshold = std::atof(argv[++i]);
        } else if (arg == "--no-valuespec") {
            opts.enableValueSpec = false;
        } else if (arg == "--no-silentstores") {
            opts.enableSilentStoreElim = false;
        } else if (arg == "--task-size" && i + 1 < argc) {
            opts.forkSelect.targetTaskSize =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--report") {
            show_report = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--timeout-ms" && i + 1 < argc) {
            budget.timeoutMs =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--max-insts" && i + 1 < argc) {
            budget.maxInsts =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg[0] != '-' && ref_path.empty()) {
            ref_path = arg;
        } else {
            std::fprintf(stderr,
                         "usage: mssp-distill ref.{s,mo} [--train t] "
                         "[-o out.mdo] [--workload NAME] [--scale S] "
                         "[--theta T] [--no-valuespec] "
                         "[--no-silentstores] [--task-size N] "
                         "[--report] [--verify] "
                         "[--timeout-ms N] [--max-insts N]\n");
            return 2;
        }
    }
    if (ref_path.empty() && workload_name.empty()) {
        std::fprintf(stderr, "mssp-distill: no input file\n");
        return 2;
    }
    if (!ref_path.empty() && !workload_name.empty()) {
        std::fprintf(stderr, "mssp-distill: an input file and "
                             "--workload are mutually exclusive\n");
        return 2;
    }
    std::string input_name =
        ref_path.empty() ? workload_name : ref_path;
    if (out_path.empty()) {
        out_path = input_name;
        size_t dot = out_path.rfind('.');
        if (dot != std::string::npos)
            out_path.resize(dot);
        out_path += ".mdo";
    }

    try {
        // Whole-invocation budget: profiling counts against it.
        Supervision sup(budget);
        std::optional<SupervisionScope> scope;
        if (budget.active())
            scope.emplace(&sup);

        Program ref, train;
        if (!workload_name.empty()) {
            Workload wl = workloadByName(workload_name, scale);
            ref = assemble(wl.refSource);
            train = assemble(wl.trainSource);
        } else {
            ref = loadAny(ref_path);
            train = train_path.empty() ? ref : loadAny(train_path);
        }
        PreparedWorkload w = prepare(ref, train, opts);

        if (verify) {
            analysis::LintReport rep =
                analysis::verifyDistilled(ref, w.dist);
            analysis::SemanticResult sem =
                analysis::verifyDistilledSemantic(ref, w.dist);
            rep.findings.insert(rep.findings.end(),
                                sem.lint.findings.begin(),
                                sem.lint.findings.end());
            if (!rep.clean())
                std::fputs(rep.toText().c_str(), stderr);
            if (rep.errors()) {
                std::fprintf(stderr,
                             "mssp-distill: verification failed; "
                             "not writing %s\n",
                             out_path.c_str());
                return 1;
            }
        }
        writeFile(out_path, saveDistilled(w.dist));
        std::printf("%s: %zu -> %zu static insts, %zu fork sites "
                    "-> %s\n",
                    input_name.c_str(), w.dist.report.origStaticInsts,
                    w.dist.report.distilledStaticInsts,
                    w.dist.taskMap.size(), out_path.c_str());
        if (show_report)
            std::fputs(w.dist.report.toString().c_str(), stdout);
    } catch (const StatusError &e) {
        std::fprintf(stderr, "mssp-distill: %s\n", e.what());
        return isBudgetTrip(e.status().code()) ? 4 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-distill: %s\n", e.what());
        return 1;
    }
    return 0;
}
