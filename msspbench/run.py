#!/usr/bin/env python3
"""Build and run the MSSP end-to-end benchmark (msspbench/README.md).

Run from anywhere inside a checkout:

    python3 msspbench/run.py --workload e2-full --seed 1 --seconds 10 --trace 0
    python3 msspbench/run.py --selftest

The first call configures and builds msspbench/ and the library it
links into .bench_build/ at the checkout root; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Every timed op sample is written to
.bench_build/out/<workload>-seed<seed>-trace<0|1>.tsv, and with
--trace 1 the span trace to .bench_build/out/<workload>-seed<seed>-trace.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "mssp_bench"


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "mssp_bench",
                  "-j", str(jobs)])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False).returncode
        if rc != 0:
            sys.exit(f"msspbench: build failed ({rc}): {' '.join(cmd)}")


def run_benchmark(args):
    """Replace this process with mssp_bench, so the workload runs as
    one process with nothing left behind."""
    args = list(args)
    opts = dict(zip(args[::2], args[1::2]))
    stem = f"{opts.get('--workload')}-seed{opts.get('--seed')}"
    out = BUILD / "out"
    out.mkdir(exist_ok=True)
    samples = out / f"{stem}-trace{opts.get('--trace')}.tsv"
    args += ["--samples-out", str(samples)]
    if opts.get("--trace") == "1":
        args += ["--trace-out", str(out / f"{stem}-trace.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [str(BINARY)] + args)


def selftest():
    """Run each workload at minimum length, untraced and traced, and
    check that every metric BENCHMARK.json names is present with its
    unit, that no op failed, and that the simulation fingerprint is the
    same in both runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        fingerprints = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [str(BINARY), "--workload", workload, "--seed", "1",
                   "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.splitlines()
            tag = f"{workload} trace={trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: no JSON result "
                                f"(rc {proc.returncode})")
                continue
            fingerprints.update(line.split()[2] for line in lines
                                if line.startswith("fingerprint "))
            if proc.returncode != 0 or not result["correct"] \
                    or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} has unit "
                                    f"{got['unit']}, expected {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
        if len(fingerprints) != 1:
            problems.append(f"{workload}: fingerprint not stable: "
                            f"{sorted(fingerprints)}")
        print(f"selftest {workload}: fingerprint "
              f"{' '.join(sorted(fingerprints))}")
    for p in problems:
        print(f"selftest FAIL {p}")
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    run_benchmark(sys.argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
