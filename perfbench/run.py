"""specrank benchmark: one workload, closed loop, one CLI call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory.  Inputs are generated from ``--seed``, set-up
(inputs, worker start, imports, a small warm-up op) is measured several
times, then one worker calls ``specrank.cli.run`` back to back for
``--seconds``.  For score workloads a fixed host-speed kernel is timed
between the ops and the timed metrics are scaled by it (reference.py).
Every op's outputs are checked against an independent numpy oracle.
Human-readable lines come first; the last line of stdout is the JSON
result.  With ``--trace 1`` the ops alternate untraced and traced and the
result holds the per-layer metrics instead of the end-to-end ones.

Artifacts go to ``.bench_out/<workload>/`` in the checkout: ``result.json``
(environment, per-op times, all metrics) and, for traced runs,
``spans.jsonl`` and ``layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pin_blas_threads() -> int:
    """Pin BLAS to the usable core count in this process and its children."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "blas": blas_name,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Worker:
    """One measured process (see worker.py)."""

    def __init__(self, config: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self, timeout: float) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            raise BenchError("worker did not finish its set-up")

    def finish(self, message: str, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(message + "\n", timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def check_ops(workload, seed: int, inputs: Path, ops: list) -> dict | None:
    """Mark each op ``ok`` or not; return the quality metrics of the run.

    An op fails on a nonzero exit, a raised exception, a missing, malformed
    or non-finite output, an oracle mismatch, or an answer that differs from
    the one most ops of the run agree on (the program is deterministic).
    """
    import oracle
    from workloads import Checker

    checker = Checker(workload, seed, inputs)
    quality = None
    for i, op in enumerate(ops):
        op["ok"] = op["rc"] == 0
        if not op["ok"]:
            print(f"op {i}: exit code {op['rc']}", file=sys.stderr)
            continue
        try:
            q, op["digest"] = checker.check(Path(op["dir"]))
        except (oracle.OracleError, OSError) as e:
            op["ok"] = False
            print(f"op {i}: {e}", file=sys.stderr)
            continue
        quality = quality or q
    digests = Counter(op["digest"] for op in ops if op["ok"])
    if len(digests) > 1:
        majority = digests.most_common(1)[0][0]
        for i, op in enumerate(ops):
            if op["ok"] and op["digest"] != majority:
                op["ok"] = False
                print(f"op {i}: answer differs from the other ops of this run", file=sys.stderr)
    return quality


def trace_tolerance(traced: list[float], overhead_s: float) -> float:
    """How far the layer self times may sum from ``trace.op_s_p50``.

    The layer times are means over the traced ops and ``trace.op_s_p50`` is
    their median, so besides the tracing overhead the two differ by op-to-op
    noise: half the interquartile range of the traced op times.  One
    millisecond covers the worker's own timing around the root span.
    """
    half_iqr = 0.0
    if len(traced) >= 2:
        q1, _, q3 = statistics.quantiles(traced, n=4)
        half_iqr = (q3 - q1) / 2
    return abs(overhead_s) + half_iqr + 1e-3


def run_workload(workload, seed: int, seconds: int, trace: bool, setups: int = SETUPS, after_ops=None) -> dict:
    """Set up, measure and check one run; return the full result record.

    ``after_ops``, if given, is called with the list of op records before the
    outputs are checked (the self-test uses it to corrupt an output).
    """
    import reference
    import tracing
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    try:
        inputs = out / "inputs"
        config = {
            "src": str(ROOT / "src"),
            "warm_dir": str(out / "warm"),
            "warm_argv": workloads.argv(workload, inputs, Path("{out}"), warm=True),
        }
        setup_s = []
        worker = None
        try:
            for rep in range(setups):
                t0 = time.perf_counter()
                workloads.generate(workload, seed, inputs)
                worker = Worker(config)
                worker.wait_ready(deadline - time.monotonic())
                setup_s.append(time.perf_counter() - t0)
                if rep < setups - 1:
                    worker.finish("stop", deadline - time.monotonic())
                    worker = None
            job = {
                "reference": workload.kind in reference.SCALED_KINDS,
                "seconds": seconds,
                "trace": trace,
                "argv": workloads.argv(workload, inputs, Path("{out}")),
                "ops_dir": str(out / "ops"),
                "spans": str(out / "spans.jsonl"),
            }
            lines = worker.finish(json.dumps(job), deadline - time.monotonic()).splitlines()
        finally:
            if worker is not None:
                worker.kill()
        measured = json.loads(lines[-1])
        ops = measured["ops"]
        if after_ops is not None:
            after_ops(ops)
        quality = check_ops(workload, seed, inputs, ops)
        ok = sum(op["ok"] for op in ops)
        result = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "attempted": len(ops),
            "failed": len(ops) - ok,
            "setup_s_each": setup_s,
            "op_s": [op["s"] for op in ops],
            "loop_s": measured["loop_s"],
        }
        scaled = workload.kind in reference.SCALED_KINDS
        for op in ops:
            op["ref_scaled_s"] = op["s"] * reference.NOMINAL_S / statistics.fmean(op["ref_s"]) if scaled else op["s"]
        result["op_ref_scaled_s"] = [op["ref_scaled_s"] for op in ops]
        result["ref_s_p50"] = statistics.median(r for op in ops for r in op["ref_s"]) if scaled else None
        plain = [op["s"] for op in ops if not op["traced"]]
        if trace:
            spans = tracing.read_spans(out / "spans.jsonl")
            metrics, layers = tracing.summarize(spans)
            traced = [op["s"] for op in ops if op["traced"]]
            metrics["trace.op_s_p50"] = statistics.median(traced)
            metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - statistics.median(plain)
            result["trace_self_sum_s"] = tracing.self_time_sum(metrics)
            result["trace_tolerance_s"] = trace_tolerance(traced, metrics["trace.overhead_s"])
            (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
            miss = abs(result["trace_self_sum_s"] - metrics["trace.op_s_p50"])
            if miss > result["trace_tolerance_s"]:
                raise BenchError(
                    f"layer self times add up to {result['trace_self_sum_s']:.6f} s per traced op, "
                    f"{miss:.6f} s off trace.op_s_p50 {metrics['trace.op_s_p50']:.6f} s "
                    f"(tolerance {result['trace_tolerance_s']:.6f} s)"
                )
        else:
            quality = quality or dict.fromkeys(("psnr_db", "sam_deg", "objective_final"), 0.0)
            mvox = workload.voxels * ok / 1e6
            metrics = {
                "setup_s": statistics.median(setup_s),
                "op_s_p50": statistics.median(plain),
                "throughput_mvox_s": mvox / sum(op["s"] for op in ops),
                "op_ref_s_p50": statistics.median(op["ref_scaled_s"] for op in ops),
                "throughput_ref_mvox_s": mvox / sum(op["ref_scaled_s"] for op in ops),
                "peak_rss_mb": measured["peak_rss_mb"],
                **quality,
            }
        result["metrics"] = metrics
        return result
    finally:
        for scratch in ("ops", "warm", "inputs"):
            shutil.rmtree(out / scratch, ignore_errors=True)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(spec: dict, result: dict) -> dict:
    """The result line: the metrics BENCHMARK.json names for this mode, with units."""
    named = spec["per_layer" if result["trace"] else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in named},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specrank" / "cli.py").is_file():
        print(f"error: no specrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    threads = pin_blas_threads()
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(threads)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env))
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result["environment"] = env
    final = summary(spec, result)
    attempted, failed = result["attempted"], result["failed"]
    print(f"ops {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}")
    print("op_s " + " ".join(f"{s:.4f}" for s in result["op_s"]))
    print("op_ref_scaled_s " + " ".join(f"{s:.4f}" for s in result["op_ref_scaled_s"]))
    if result["ref_s_p50"] is not None:
        print(f"reference kernel ref_s_p50 {result['ref_s_p50']:.6f} s (nominal {reference.NOMINAL_S} s)")
    if not args.trace:
        print("setup_s " + " ".join(f"{s:.4f}" for s in result["setup_s_each"]))
    else:
        print(f"layer self times add up to {result['trace_self_sum_s']:.6f} s per traced op, "
              f"trace.op_s_p50 {result['metrics']['trace.op_s_p50']:.6f} s "
              f"(tolerance {result['trace_tolerance_s']:.6f} s)")
    for name, m in final["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        wall = result["metrics"]
        print(f"wall time, not scaled to the reference: op_s_p50 {wall['op_s_p50']:.6g} s, "
              f"throughput_mvox_s {wall['throughput_mvox_s']:.6g} Mvox/s")
    (ROOT / ".bench_out" / workload.name / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
