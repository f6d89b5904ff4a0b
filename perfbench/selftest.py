"""Self-test of the benchmark on small inputs (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
untraced and traced runs of every workload; that a truncated output counts
as a failed op; that the same seed gives identical quality metrics; that
tracing refuses to start when a function it wraps is gone; and that run.py
exits nonzero, printing no result, where there are no sources.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

SMALL = 32


def small(workload):
    return dataclasses.replace(workload, name=workload.name + "-selftest", size=SMALL)


def measure(workload, seed=0, trace=False, after_ops=None):
    result = run.run_workload(workload, seed, 1, trace, setups=1, after_ops=after_ops)
    return result, run.summary(run.load_spec(), result)


def check_emits_all_metrics(workload, failures):
    spec = run.load_spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        _, final = measure(workload, trace=trace)
        if not final["correct"] or final["failed"]:
            failures.append(f"{workload.name} trace={trace}: {final['failed']} ops failed")
        for m in spec[key]:
            got = final["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                failures.append(f"{workload.name} trace={trace}: {m['name']} missing or malformed: {got}")


def check_truncation_fails(workload, failures):
    name = "metrics.csv" if workload.kind == "score" else "recon.hsc"

    def truncate(ops):
        path = Path(ops[0]["dir"]) / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    _, final = measure(workload, after_ops=truncate)
    if final["correct"] or final["failed"] < 1:
        failures.append(f"{workload.name}: a truncated {name} was not counted as a failed op")


def check_same_seed_same_quality(workload, failures):
    quality = ("psnr_db", "sam_deg", "objective_final")
    first, second = (measure(workload, seed=7)[0]["metrics"] for _ in range(2))
    if any(first[q] != second[q] for q in quality):
        failures.append(f"{workload.name}: seed 7 gave different quality metrics twice")


def check_missing_function_fails_trace(failures):
    import tracing

    sys.path.insert(0, str(run.ROOT / "src"))
    saved = tracing.WRAPPED
    tracing.WRAPPED = saved + (("specrank.cli", "no_such_function", "cli"),)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        failures.append("tracing installed although a wrapped function is missing")
    except tracing.TracingError:
        pass
    finally:
        tracer.uninstall()
        tracing.WRAPPED = saved


def check_refuses_without_sources(failures):
    bare = run.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "score-512", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("run.py produced a result without program sources")


def main() -> int:
    run.pin_blas_threads()
    failures = []
    # one small workload per command line shape
    smalls = list({(w.kind, w.exact): small(w) for w in workloads.WORKLOADS.values()}.values())
    for w in smalls:
        check_emits_all_metrics(w, failures)
    for w in smalls[0], smalls[-1]:
        check_truncation_fails(w, failures)
    check_same_seed_same_quality(smalls[0], failures)
    check_missing_function_fails_trace(failures)
    check_refuses_without_sources(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
