"""Outside-in layer tracing of the specrank CLI.

The program has no spans of its own, so the tracer wraps public functions at
the module attribute their caller resolves (``specrank.solver.lrsp_apply`` is
what the solver calls, ``specrank.lrsp.svt_full`` what the subspace proximal
calls) and the ``__post_init__`` validation of the cube and RGB containers.
Each call records a span (name, start, end, parent, op id) in memory; spans
are written out after the run and reduced to per-layer self time and counts.

Self time is a span's duration minus that of its direct children.  The CLI
call itself is the root span ``cli``, whose self time is what no wrapped
function covers (argparse, config, dispatch).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module, attribute, layer).  A layer is the span name; every call the
# program makes through one of these attributes becomes one span.
WRAPPED = (
    ("specrank.cli", "read_cube", "data_io.read"),
    ("specrank.cli", "read_rgb", "data_io.read"),
    ("specrank.cli", "load_phi", "data_io.read"),
    ("specrank.cli", "write_cube", "data_io.write"),
    ("specrank.cli", "atomic_write_text", "data_io.write"),
    ("specrank.cli", "apply_phi", "forward_model.apply"),
    ("specrank.cli", "unfold_solve", "solver.solve"),
    ("specrank.cli", "psnr", "metrics.psnr"),
    ("specrank.cli", "ssim", "metrics.ssim"),
    ("specrank.cli", "sam", "metrics.sam"),
    ("specrank.cli", "delta_e00", "metrics.delta_e00"),
    ("specrank.cli", "mse_map", "metrics.mse_map"),
    ("specrank.solver", "apply_phi", "forward_model.apply"),
    ("specrank.solver", "apply_phi_adjoint", "forward_model.apply"),
    ("specrank.solver", "spectral_norm_sq", "forward_model.step_size"),
    ("specrank.solver", "initialize", "solver.init"),
    ("specrank.solver", "gradient_step", "solver.gradient"),
    ("specrank.solver", "objective", "solver.objective"),
    ("specrank.solver", "data_fidelity", "solver.fidelity"),
    ("specrank.solver", "analyze", "transform"),
    ("specrank.solver", "synthesize", "transform"),
    ("specrank.solver", "lrsp_apply", "lrsp.apply"),
    ("specrank.solver", "nuclear_norm", "svt.nuclear"),
    ("specrank.lrsp", "column_importance", "lrsp.importance"),
    ("specrank.lrsp", "score_columns", "lrsp.score"),
    ("specrank.lrsp", "soft_topk", "lrsp.select"),
    ("specrank.lrsp", "build_selector", "lrsp.select"),
    ("specrank.lrsp", "orthonormal_subspace", "lrsp.qr"),
    ("specrank.lrsp", "residual_ratio", "lrsp.probe"),
    ("specrank.lrsp", "sparse_pool", "lrsp.pool"),
    ("specrank.lrsp", "subspace_proximal", "lrsp.shrink"),
    ("specrank.lrsp", "fusion_weights", "lrsp.fuse"),
    ("specrank.lrsp", "svt_full", "svt.svt"),
    ("specrank.forward_model", "SpectralCube.__post_init__", "forward_model.container"),
    ("specrank.forward_model", "RgbImage.__post_init__", "forward_model.container"),
)

# Self-time metric of each layer.  Their sum over one op is its root span.
SELF_METRIC = {
    "cli": "cli.self_s",
    "data_io.read": "data_io.read_s",
    "data_io.write": "data_io.write_s",
    "forward_model.apply": "forward_model.apply_s",
    "forward_model.step_size": "forward_model.step_size_s",
    "forward_model.container": "forward_model.container_s",
    "solver.solve": "solver.self_s",
    "solver.init": "solver.init_s",
    "solver.gradient": "solver.gradient_s",
    "solver.objective": "solver.objective_s",
    "solver.fidelity": "solver.fidelity_s",
    "transform": "transform.s",
    "lrsp.importance": "lrsp.importance_s",
    "lrsp.score": "lrsp.score_s",
    "lrsp.select": "lrsp.select_s",
    "lrsp.qr": "lrsp.qr_s",
    "lrsp.probe": "lrsp.probe_s",
    "lrsp.pool": "lrsp.pool_s",
    "lrsp.shrink": "lrsp.shrink_s",
    "lrsp.apply": "lrsp.fuse_s",
    "lrsp.fuse": "lrsp.fuse_s",
    "svt.svt": "svt.svt_s",
    "svt.nuclear": "svt.nuclear_s",
    "metrics.ssim": "metrics.ssim_s",
    "metrics.psnr": "metrics.psnr_s",
    "metrics.sam": "metrics.sam_s",
    "metrics.delta_e00": "metrics.delta_e00_s",
    "metrics.mse_map": "metrics.mse_map_s",
}

# Layers also reported with their children included.
INCLUSIVE_METRIC = {"solver.solve": "solver.solve_s", "lrsp.apply": "lrsp.apply_s"}

# Per-op counts of spans.
COUNT_METRIC = {
    "forward_model.containers": ("forward_model.container",),
    "solver.stages": ("lrsp.apply",),
    "lrsp.inner_steps": ("lrsp.qr",),
    "svt.calls": ("svt.svt", "svt.nuclear"),
}


class TracingError(Exception):
    """The program no longer has a function the tracer wraps."""


class Tracer:
    """Span recorder.  ``install()`` wraps the program, ``uninstall()`` restores it."""

    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end, attrs]
        self._stack = []
        self._op = -1
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [self._op, len(self.spans), parent, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under the root span ``cli``."""
        self._op = op_id
        span = self._open("cli")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[6] = _counts(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every function of ``WRAPPED``.

        Raises :class:`TracingError` naming every wrapped attribute the
        program no longer has, and wraps nothing then: a renamed function
        would otherwise move its time into its caller's layer unnoticed.
        """
        targets, missing = [], []
        for module_name, name, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{name}")
            else:
                targets.append((owner, attr, original, layer))
        if missing:
            raise TracingError(f"cannot trace, the program has no {', '.join(missing)}")
        for owner, attr, original, layer in targets:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end, attrs in self.spans:
                rec = {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def _counts(name, args, result):
    """Per-call counts read at a layer boundary, or None.

    A call whose arguments or result no longer have the expected shape
    records no counts rather than failing the op.
    """
    try:
        if name == "data_io.read":
            return {"bytes_read": os.path.getsize(args[0])}
        if name == "data_io.write":
            return {"bytes_written": os.path.getsize(args[0])}
        if name == "lrsp.qr":
            return {"filled": int(result.n_completed), "width": int(result.q.shape[1])}
        if name == "lrsp.fuse":
            w = [float(x) for x in result]
            return {"eff": 1.0 / sum(x * x for x in w) / len(w)}
    except (AttributeError, IndexError, TypeError, ValueError, OSError, ZeroDivisionError):
        pass
    return None


def self_time_sum(metrics):
    """Sum of the per-op layer self times, ``cli.self_s`` included."""
    return sum(metrics[m] for m in set(SELF_METRIC.values()))


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def summarize(spans):
    """Per-op layer metrics from a span list, averaged over the traced ops.

    Returns ``(metrics, layers)``: every per-layer metric except the
    ``trace.*`` ones, and a per-layer table of self time, inclusive time and
    span count for the trace artifact.
    """
    n = len({s["op"] for s in spans})
    if not n:
        raise ValueError("no traced ops")
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["op"], s["parent"])] += s["end"] - s["start"]
    layers = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
    sums = defaultdict(float)
    fill = [0, 0]
    eff = []
    for s in spans:
        dur = s["end"] - s["start"]
        row = layers[s["name"]]
        row["total_s"] += dur
        row["self_s"] += dur - child_time[(s["op"], s["id"])]
        row["count"] += 1
        attrs = s.get("attrs") or {}
        sums["data_io.bytes_read"] += attrs.get("bytes_read", 0)
        sums["data_io.bytes_written"] += attrs.get("bytes_written", 0)
        if "filled" in attrs:
            fill[0] += attrs["filled"]
            fill[1] += attrs["width"]
        if "eff" in attrs:
            eff.append(attrs["eff"])
    unknown = set(layers) - set(SELF_METRIC)
    if unknown:
        raise ValueError(f"spans of unmapped layers: {sorted(unknown)}")
    metrics = dict.fromkeys(SELF_METRIC.values(), 0.0)
    for layer, metric in SELF_METRIC.items():
        metrics[metric] += layers[layer]["self_s"] / n if layer in layers else 0.0
    for layer, metric in INCLUSIVE_METRIC.items():
        metrics[metric] = layers[layer]["total_s"] / n if layer in layers else 0.0
    for metric, names in COUNT_METRIC.items():
        metrics[metric] = sum(layers[x]["count"] for x in names if x in layers) / n
    metrics["data_io.bytes_read"] = sums["data_io.bytes_read"] / n
    metrics["data_io.bytes_written"] = sums["data_io.bytes_written"] / n
    metrics["lrsp.basis_fill_ratio"] = fill[0] / fill[1] if fill[1] else 0.0
    metrics["lrsp.fusion_eff_ratio"] = sum(eff) / len(eff) if eff else 0.0
    table = {
        name: {"self_s": row["self_s"] / n, "total_s": row["total_s"] / n, "count": row["count"] / n}
        for name, row in sorted(layers.items())
    }
    return metrics, table
