"""Span tracing of voxcorr's public functions, from the benchmark's side.

Each probe replaces one function or method of the package by a wrapper that
records a span (name, start, end, parent) while an operation is being traced.
Every module of the package that holds a reference to the function gets the
wrapper, so call sites that did `from .x import f` are traced too; the package
itself is not edited. Spans stay in memory and are written out when the run
ends. A probe whose target no longer exists is reported missing on stderr, the
metrics that need it are left out, and the run goes on.

Every `.ms` metric is self time: a span's duration minus the durations of the
spans nested directly inside it, so the layer times of one operation add up.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

CONVS = ["enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2", "dec3", "dec4", "dec5", "head"]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    tag: str | None = None
    child_time: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op: int | None = None              # recording only while an operation runs
    counters: dict = field(default_factory=dict)   # (op, key) -> value
    kernel_names: dict = field(default_factory=dict)  # id(kernel) -> conv name
    ctx_names: dict = field(default_factory=dict)     # id(conv ctx) -> conv name
    tape_bytes: int | None = None
    missing: list = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def count(self, key: str, value: float = 1) -> None:
        k = (self.op, key)
        self.counters[k] = self.counters.get(k, 0) + value


# hooks: pre(tracer, args, kwargs) -> state; post(tracer, span, state, args, kwargs, result)

def _model_forward_pre(tr, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    tr.kernel_names = {id(v): k[:-2] for k, v in params.items() if k.endswith(".w")}
    return params


def _model_forward_post(tr, span, params, args, kwargs, result):
    if tr.parent_name(span) == "inference.sliding_register":
        tr.count("patches")
    tape = result[2]
    if tape is not None and tr.tape_bytes is None:
        tr.tape_bytes = tape_nbytes(tape, exclude=params.values())


def _conv_forward_post(tr, span, state, args, kwargs, result):
    x, kernel = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernel")
    span.tag = tr.kernel_names.get(id(kernel))
    if result[1] is not None:
        tr.ctx_names[id(result[1])] = span.tag
    cout, cin = kernel.shape[:2]
    tr.count("gflop", 2.0 * cout * cin * int(np.prod(kernel.shape[2:])) * int(np.prod(x.shape[1:])) / 1e9)


def _conv_backward_post(tr, span, state, args, kwargs, result):
    span.tag = tr.ctx_names.get(id(_arg(args, kwargs, 1, "ctx")))


def _faults_pre(tr, args, kwargs):
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _faults_post(tr, span, before, args, kwargs, result):
    tr.count("faults_k", (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 1e3)


def _node_post(tr, span, state, args, kwargs, result):
    if result[1] >= _arg(args, kwargs, 3, "cfg").min_correlation:
        tr.count("useful_nodes")


def _read_size_pre(tr, args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read_size_post(tr, span, size, args, kwargs, result):
    tr.count("mib", size / 2**20)


def _write_size_post(tr, span, state, args, kwargs, result):
    tr.count("mib", os.path.getsize(_arg(args, kwargs, 0, "path")) / 2**20)


@dataclass(frozen=True)
class Probe:
    span: str
    targets: tuple        # "module:attr" or "module:Class.method"
    pre: object = None
    post: object = None
    skip_under: tuple = ()  # spans inside which a call belongs to the enclosing span


PROBES = [
    # the dx pass of conv3d_backward is itself a conv3d_forward call; it is
    # part of the backward pass, not a forward call of the model
    Probe("layers.conv3d_forward", ("layers:conv3d_forward",), post=_conv_forward_post,
          skip_under=("layers.conv3d_backward",)),
    Probe("layers.conv3d_backward", ("layers:conv3d_backward",), post=_conv_backward_post),
    Probe("layers.pool", ("layers:maxpool3d_forward", "layers:maxpool3d_backward")),
    Probe("layers.upsample", ("layers:upsample3d_forward", "layers:upsample3d_backward")),
    Probe("layers.leaky_relu", ("layers:leaky_relu_forward", "layers:leaky_relu_backward")),
    Probe("model.model_forward", ("model:model_forward",), pre=_model_forward_pre, post=_model_forward_post),
    Probe("model.model_backward", ("model:model_backward",)),
    Probe("model.checkpoint_io", ("model:checkpoint_save", "model:checkpoint_load")),
    Probe("losses.ncc_loss", ("losses:ncc_loss",)),
    Probe("losses.grad_l2_loss", ("losses:grad_l2_loss",)),
    Probe("training.adam_step", ("training:adam_step",)),
    Probe("training.sample_training_batch", ("training:sample_training_batch",)),
    Probe("volume.trilinear_gather", ("volume:trilinear_gather",)),
    Probe("volume.invert_field", ("volume:invert_field",)),
    Probe("tpms.degrade_to_xct", ("tpms:degrade_to_xct",), pre=_faults_pre, post=_faults_post),
    Probe("tpms.synth", ("tpms:gyroid_field", "tpms:tpms_solid", "tpms:synth_displacement")),
    Probe("preprocess.build_dataset", ("preprocess:build_dataset",)),
    Probe("inference.sliding_register", ("inference:sliding_register",)),
    Probe("blending.add", ("blending:BlendAccumulator.add",)),
    Probe("blending.finalize", ("blending:BlendAccumulator.finalize",)),
    Probe("baseline.correlate_node", ("baseline:correlate_node",), post=_node_post),
    Probe("baseline.multiscale_dvc", ("baseline:multiscale_dvc",)),
    Probe("metrics.evaluate_pair", ("metrics:evaluate_pair",)),
    Probe("figures.export", ("figures:export_overlay_slices", "figures:export_bdm_slices",
                             "figures:export_displacement_magnitude")),
    Probe("vvol.io", ("vvol:vvol_read", "vvol:vvol_write")),
]
# per-target hooks that differ between the targets of one probe
_TARGET_HOOKS = {
    "vvol:vvol_read": (_read_size_pre, _read_size_post),
    "vvol:vvol_write": (None, _write_size_post),
}


def _make_wrapper(tr: Tracer, orig, probe: Probe, pre, post):
    def hook(fn, *a):
        # a hook that no longer fits the function's signature loses its
        # metrics; it must not fail the operation
        try:
            return fn(tr, *a)
        except Exception as e:  # noqa: BLE001
            if probe.span not in tr.missing:
                tr.missing.append(probe.span)
                print(f"perfbench: probe {probe.span} failed ({e!r}); its metrics are missing", file=sys.stderr)
            return None

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        if tr.op is None or (tr.stack and tr.spans[tr.stack[-1]].name in probe.skip_under):
            return orig(*args, **kwargs)
        state = hook(pre, args, kwargs) if pre else None
        span = tr.open(probe.span)
        try:
            result = orig(*args, **kwargs)
        finally:
            tr.close(span)
        if post:
            hook(post, span, state, args, kwargs, result)
        return result

    return traced


def install(tr: Tracer, package: str = "voxcorr") -> None:
    """Wrap every probe target; record the span names whose target is gone."""
    for probe in PROBES:
        for target in probe.targets:
            modname, attr = target.split(":")
            try:
                mod = importlib.import_module(f"{package}.{modname}")
                owner, name = mod, attr
                if "." in attr:
                    cls, name = attr.split(".")
                    owner = getattr(mod, cls)
                orig = getattr(owner, name)
            except (ImportError, AttributeError):
                tr.missing.append(probe.span)
                print(f"perfbench: probe target {package}.{target} not found; "
                      f"metrics of {probe.span} are missing", file=sys.stderr)
                continue
            pre, post = _TARGET_HOOKS.get(target, (probe.pre, probe.post))
            wrapper = _make_wrapper(tr, orig, probe, pre, post)
            if owner is not mod:
                setattr(owner, name, wrapper)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] == package:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapper)


def tape_nbytes(tape, exclude=()) -> int:
    """Bytes of the distinct array buffers reachable from a tape, leaving out
    the buffers of `exclude` (the parameters, which the tape only points to)."""
    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    skip = {id(root(a)) for a in exclude}
    seen: dict[int, int] = {}
    todo = [tape]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            r = root(obj)
            if id(r) not in skip:
                seen[id(r)] = r.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return sum(seen.values())


# metric name -> (unit, better, kind, span, key). Kinds: "self" ms and "calls"
# of the span; "tag": self ms of the span's calls for one conv; "counter";
# "per_call": counter over the span's calls; "share": the same in percent;
# "rate": counter over the span's self seconds; "tape": MiB of one training
# tape, where the span ran.
def _layer_table() -> dict:
    t = {
        "layers.conv3d_forward.ms": ("ms", "lower", "self", "layers.conv3d_forward"),
        "layers.conv3d_forward.calls": ("count", "lower", "calls", "layers.conv3d_forward"),
        "layers.conv3d_backward.ms": ("ms", "lower", "self", "layers.conv3d_backward"),
        "layers.conv3d_backward.calls": ("count", "lower", "calls", "layers.conv3d_backward"),
    }
    for c in CONVS:
        t[f"layers.conv.{c}.fwd_ms"] = ("ms", "lower", "tag", "layers.conv3d_forward", c)
        t[f"layers.conv.{c}.bwd_ms"] = ("ms", "lower", "tag", "layers.conv3d_backward", c)
    t.update({
        "layers.conv3d.gflop": ("GFLOP", "lower", "counter", "layers.conv3d_forward", "gflop"),
        "layers.conv3d.gflop_per_s": ("GFLOP/s", "higher", "rate", "layers.conv3d_forward", "gflop"),
        "layers.pool.ms": ("ms", "lower", "self", "layers.pool"),
        "layers.upsample.ms": ("ms", "lower", "self", "layers.upsample"),
        "layers.leaky_relu.ms": ("ms", "lower", "self", "layers.leaky_relu"),
        "model.model_forward.ms": ("ms", "lower", "self", "model.model_forward"),
        "model.model_backward.ms": ("ms", "lower", "self", "model.model_backward"),
        "model.tape_mib": ("MiB", "lower", "tape", "model.model_forward"),
        "model.checkpoint_io.ms": ("ms", "lower", "self", "model.checkpoint_io"),
        "losses.ncc_loss.ms": ("ms", "lower", "self", "losses.ncc_loss"),
        "losses.grad_l2_loss.ms": ("ms", "lower", "self", "losses.grad_l2_loss"),
        "training.adam_step.ms": ("ms", "lower", "self", "training.adam_step"),
        "training.sample_training_batch.ms": ("ms", "lower", "self", "training.sample_training_batch"),
        "volume.trilinear_gather.ms": ("ms", "lower", "self", "volume.trilinear_gather"),
        "volume.trilinear_gather.calls": ("count", "lower", "calls", "volume.trilinear_gather"),
        "volume.invert_field.ms": ("ms", "lower", "self", "volume.invert_field"),
        "tpms.degrade_to_xct.ms": ("ms", "lower", "self", "tpms.degrade_to_xct"),
        "tpms.degrade_to_xct.minor_faults_k": ("kfault", "lower", "per_call", "tpms.degrade_to_xct", "faults_k"),
        "tpms.synth.ms": ("ms", "lower", "self", "tpms.synth"),
        "preprocess.build_dataset.ms": ("ms", "lower", "self", "preprocess.build_dataset"),
        "inference.sliding_register.ms": ("ms", "lower", "self", "inference.sliding_register"),
        "inference.patches": ("count", "lower", "counter", "model.model_forward", "patches"),
        "blending.add.ms": ("ms", "lower", "self", "blending.add"),
        "blending.finalize.ms": ("ms", "lower", "self", "blending.finalize"),
        "baseline.correlate_node.ms": ("ms", "lower", "self", "baseline.correlate_node"),
        "baseline.correlate_node.calls": ("count", "lower", "calls", "baseline.correlate_node"),
        "baseline.multiscale_dvc.ms": ("ms", "lower", "self", "baseline.multiscale_dvc"),
        "baseline.valid_node_pct": ("%", "higher", "share", "baseline.correlate_node", "useful_nodes"),
        "metrics.evaluate_pair.ms": ("ms", "lower", "self", "metrics.evaluate_pair"),
        "figures.export.ms": ("ms", "lower", "self", "figures.export"),
        "vvol.io.ms": ("ms", "lower", "self", "vvol.io"),
        "vvol.mib": ("MiB", "lower", "counter", "vvol.io", "mib"),
    })
    return t


LAYER_METRICS = _layer_table()


def layer_metrics(tr: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-operation value of every layer metric (median over `ops`), leaving
    out those whose probe is missing."""
    per_op: dict[int, dict] = {op: {} for op in ops}
    for s in tr.spans:
        if s.op not in per_op:
            continue
        d = per_op[s.op]
        self_ms = 1e3 * (s.end - s.start - s.child_time)
        for key, v in ((("self", s.name), self_ms), (("calls", s.name), 1), (("tag", s.name, s.tag), self_ms)):
            d[key] = d.get(key, 0) + v

    def value(op: int, kind: str, span: str, key=None) -> float:
        d = per_op[op]
        counter = tr.counters.get((op, key), 0)
        calls = d.get(("calls", span), 0)
        if kind in ("self", "calls"):
            return d.get((kind, span), 0)
        if kind == "tag":
            return d.get(("tag", span, key), 0)
        if kind == "counter":
            return counter
        if kind in ("per_call", "share"):
            return (100.0 if kind == "share" else 1.0) * counter / calls if calls else 0.0
        if kind == "rate":
            ms = d.get(("self", span), 0)
            return counter / (ms / 1e3) if ms else 0.0
        if kind == "tape":
            return (tr.tape_bytes or 0) / 2**20 if calls else 0.0
        raise ValueError(kind)

    return {
        name: statistics.median(value(op, *entry[2:]) for op in ops)
        for name, entry in LAYER_METRICS.items()
        if entry[3] not in tr.missing
    }


def dump(tr: Tracer, path) -> None:
    """Write every recorded span as one JSON document."""
    rows = [
        {"name": s.name, "tag": s.tag, "op": s.op, "start": s.start, "end": s.end, "parent": s.parent}
        for s in tr.spans
    ]
    with open(path, "w") as f:
        json.dump({"spans": rows, "missing": tr.missing}, f)
