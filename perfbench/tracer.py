"""Outside-in span tracer for qmetro.

The tracer wraps public qmetro functions from outside the package: it
replaces each function object wherever a qmetro module holds a reference
to it (``fisher.eigh_hermitian``, ``cli.qfi``, ...), records one span per
call and puts every original object back on ``uninstall``.  Nothing under
``src/`` knows it is being traced.

A span is ``{"id", "name", "start", "end", "parent", "thread"}``.  The
parent is the innermost open span of the calling thread; a call made in a
pool thread with nothing open on that thread takes the innermost open span
of the main thread, which is the call that submitted the pool work
(``squeezing_frontier`` for frontier rows).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict

# Layer name -> attribute wrapped.  "module.function" names a module-level
# function; "module.Class.init" names a dataclass's __post_init__.
TRACED = (
    "linalg.eigh_hermitian",
    "linalg.unitary_exp",
    "spin.collective_op",
    "states.squeezed_ground_state",
    "states.rotate",
    "states.to_full",
    "states.QuantumState.init",
    "fisher.qfi",
    "fisher.fisher_matrix",
    "witnesses.moments",
    "witnesses.avg_qfi",
    "witnesses.macroscopicity",
    "metrology.error_propagation",
    "metrology.squeezing_frontier",
    "metrology.frontier_lambda_grid",
    "metrology.apply_noise",
    "metrology.noisy_scaling_sweep",
    "serialize.read_state",
    "serialize.write_state",
    "serialize.write_sweep_csv",
    "selftest.qfi_property_battery",
    "selftest.witness_soundness_battery",
    "cli.main",
)


def _path_arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Per-call payload sizes recorded on the span as "bytes".
def _read_state_bytes(args, kwargs, result):
    return _file_bytes(_path_arg(args, kwargs, 0, "path"))


def _write_state_bytes(args, kwargs, result):
    return _file_bytes(_path_arg(args, kwargs, 1, "path"))


def _operator_bytes(args, kwargs, result):
    # computed, not measured: one dense complex128 matrix of the rep's dim
    dim = result.matrix.shape[0]
    return dim * dim * 16


BYTES = {
    "serialize.read_state": _read_state_bytes,
    "serialize.write_state": _write_state_bytes,
    "spin.collective_op": _operator_bytes,
}


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans: list[dict] = []
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _open(self, name: str) -> dict:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(threading.main_thread().ident)
                parent = main[-1] if main else None
            span = {"id": len(self.spans), "name": name, "start": 0.0,
                    "end": 0.0, "parent": parent, "thread": tid}
            self.spans.append(span)
            stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict):
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[span["thread"]].pop()

    def wrap(self, name: str, fn):
        sizer = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizer is not None:
                span["bytes"] = sizer(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every traced function in every loaded qmetro module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _qmetro_modules()
        for name in self.names:
            mod_name, _, attr = name.partition(".")
            owner = modules[f"qmetro.{mod_name}"]
            if attr.endswith(".init"):
                cls = getattr(owner, attr[:-len(".init")])
                original = cls.__dict__["__post_init__"]
                self._patch(cls, "__post_init__", self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every object replaced by ``install``."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _qmetro_modules() -> dict:
    """Import every qmetro submodule so that lazy imports get patched too."""
    pkg = importlib.import_module("qmetro")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"qmetro.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "qmetro" or name.startswith("qmetro.")}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children on other threads count too, and overlapping children are
    counted once, so a call whose pool workers run in parallel has self
    time equal to the time no worker was busy.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for sid, s in by_id.items():
        lo, hi = s["start"], s["end"]
        clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children[sid]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[sid] = (hi - lo) - covered_length(clipped)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, self_s, total_s, busy_s and bytes.

    ``total_s`` sums call durations over threads; ``busy_s`` is the wall
    time during which at least one call of the layer was running, so the
    two differ exactly when calls overlapped in pool threads.
    """
    selfs = self_times(spans)
    grouped = defaultdict(list)
    for s in spans:
        grouped[s["name"]].append(s)
    out = {}
    for name, group in grouped.items():
        out[name] = {
            "calls": len(group),
            "self_s": sum(selfs[s["id"]] for s in group),
            "total_s": sum(s["end"] - s["start"] for s in group),
            "busy_s": covered_length([(s["start"], s["end"]) for s in group]),
            "bytes": sum(s.get("bytes", 0) for s in group),
        }
    return out


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
