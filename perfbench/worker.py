"""Measured process: imports specrank, warms up, then runs the timed loop.

Started by ``run.py`` with one JSON argument (source directory and warm-up
command line).  It prints ``ready`` once imports and the warm-up op are done,
then reads one line from stdin: ``stop`` ends it, a JSON job runs the closed
loop and prints the result as one JSON line.  Input generation happens in
the parent, so this process's peak RSS belongs to the ops alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_op(cli, argv, tracer=None, op_id=0):
    """Run one CLI call; return (exit code or None on a raised exception, seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.run(argv) if tracer is None else tracer.run_op(op_id, cli.run, argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


def timed_loop(cli, job):
    """Closed loop, one op at a time, until ``seconds`` have passed.

    With ``trace`` set, ops alternate untraced and traced, so both kinds
    see the same machine state and their difference is the tracing cost.
    With ``reference`` set, the host-speed kernel of reference.py is
    sampled before the first op and after each op; op ``i`` gets samples
    ``i`` and ``i + 1``.
    """
    import reference

    ref = reference.Reference() if job["reference"] else None
    ref_s = [ref.sample() if ref else None]
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # fails now, before any op, if a wrapped function is gone
        tracer.uninstall()
    ops_dir = Path(job["ops_dir"])
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        out = ops_dir / f"op{i:03d}"
        out.mkdir(parents=True)
        argv = [a.replace("{out}", str(out)) for a in job["argv"]]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            rc, secs = _run_op(cli, argv, tracer, i)
            tracer.uninstall()
        else:
            rc, secs = _run_op(cli, argv)
        ref_s.append(ref.sample() if ref else None)
        ops.append({"dir": str(out), "rc": rc, "s": secs, "traced": traced, "ref_s": ref_s[-2:]})
        elapsed = time.perf_counter() - start
        if elapsed >= job["seconds"] and (tracer is None or i >= 1):
            break
    if tracer is not None:
        tracer.write(job["spans"])
    return {
        "ops": ops,
        "loop_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    config = json.loads(sys.argv[1])
    # stdout carries only this protocol; anything the program prints goes to stderr
    protocol, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, config["src"])
    from specrank import cli

    warm_out = Path(config["warm_dir"])
    warm_out.mkdir(parents=True, exist_ok=True)
    rc, _ = _run_op(cli, [a.replace("{out}", str(warm_out)) for a in config["warm_argv"]])
    if rc != 0:
        print(f"warm-up op exited with {rc}", file=sys.stderr)
        return 1
    print("ready", file=protocol, flush=True)
    line = sys.stdin.readline().strip()
    if line == "stop" or not line:
        return 0
    print(json.dumps(timed_loop(cli, json.loads(line))), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
