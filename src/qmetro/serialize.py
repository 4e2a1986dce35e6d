"""File formats: qmetro-state/1 JSON states, JSON reports and sweep CSV.

State files hold complex payloads as nested [re, im] pairs in row-major
order.  Writing is canonical (sorted keys, no whitespace, shortest
round-trip floats with signed zeros) and streams the payload one row at a
time, so write -> read -> write is byte-identical.  Reading parses a file
that starts with ``{"data":[`` in one pass: the header after the payload
is validated first, then the payload must match the bracket skeleton of
the declared shape and hold two numbers per entry (NumPy's parser also
takes spellings JSON forbids, such as ``+1``).  Other layouts, and any
mismatch, go through ``json.loads`` and the same checks.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .spin import FULL_DENSITY_MAX, Representation
from .states import QuantumState

STATE_FORMAT = "qmetro-state/1"

CSV_HEADER = ("scenario", "N", "p", "lambda", "theta0", "precision_inv",
              "qfi", "bound_sep", "bound_bisep", "bound_heisenberg")

_PAYLOAD_OPEN = b'{"data":['


def _complex_to_pairs(arr: np.ndarray):
    # tolist() yields Python floats, signed zeros included
    return np.stack([arr.real, arr.imag], -1).tolist()


def _header(state: QuantumState) -> dict:
    return {"format": STATE_FORMAT, "representation": state.rep.kind,
            "n_qubits": state.rep.n, "kind": "pure" if state.is_pure else "density",
            "label": state.label}


def state_to_dict(state: QuantumState) -> dict:
    return {**_header(state), "data": _complex_to_pairs(state.data)}


def _checked_header(doc) -> tuple[Representation, tuple, str]:
    """Representation, payload shape and label a state document declares."""
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ValueError(f"not a {STATE_FORMAT} document")
    n, kind = doc.get("n_qubits"), doc.get("kind")
    if type(n) is not int:
        raise ValueError(f"n_qubits must be an integer, got {n!r}")
    rep = Representation(doc.get("representation"), n)
    if kind not in ("pure", "density"):
        raise ValueError(f"unknown state kind {kind!r} (use pure or density)")
    if kind == "density" and rep.kind == "full" and n > FULL_DENSITY_MAX:
        raise ValueError(
            f"full-representation density matrices limited to N <= {FULL_DENSITY_MAX}")
    shape = (rep.dim,) if kind == "pure" else (rep.dim, rep.dim)
    return rep, shape, doc.get("label", "state")


def state_from_dict(doc: dict) -> QuantumState:
    rep, shape, label = _checked_header(doc)
    try:
        pairs = np.asarray(doc["data"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("state payload is missing or ragged") from None
    if pairs.dtype.kind not in "iuf" or pairs.shape != (*shape, 2):
        raise ValueError(f"state payload ({pairs.dtype}, shape {pairs.shape}) is not {shape} "
                         f"[re, im] number pairs for a {doc['kind']} state of {rep}")
    # NumPy reads true/false among numbers as 1/0: refuse any JSON boolean
    if any(type(x) is bool for x in np.asarray(doc["data"], dtype=object).flat):
        raise ValueError("state payload holds a JSON boolean where a number belongs")
    # an interleaved view keeps the sign of every zero
    payload = pairs.astype(float, copy=False).view(np.complex128).reshape(shape)
    return QuantumState(rep, payload, label=label)


def _read_canonical(raw: bytes) -> tuple | None:
    """(representation, payload, label) of a canonically written file, None
    for any other layout.  The caller builds the state once this returns,
    so that the payload's text is gone before the state checks it."""
    end = raw.find(b'"', len(_PAYLOAD_OPEN))
    if not raw.startswith(_PAYLOAD_OPEN) or end < 0 or raw[end - 1:end] != b",":
        return None
    try:
        doc = json.loads(b"{" + raw[end:])
    except ValueError:
        return None
    if "data" in doc:       # a repeated key: json keeps the last one
        return None
    rep, shape, label = _checked_header(doc)   # before the payload is read
    skeleton = b"[,]"
    for n in reversed(shape):
        skeleton = b"[" + (skeleton + b",") * (n - 1) + skeleton + b"]"
    body = raw[len(_PAYLOAD_OPEN) - 1:end - 1]
    if body.translate(None, b"0123456789.-+eE") != skeleton:
        return None
    try:
        # brackets deleted, not blanked: NumPy reads a blank token as -1
        flat = np.fromstring(body.translate(None, b"[]"), sep=",")
    except ValueError:      # a bad token; older NumPy warns and stops short
        return None
    if flat.size != 2 * math.prod(shape):
        return None
    return rep, flat.view(np.complex128).reshape(shape), label


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_state(state: QuantumState, path: str):
    data = state.data
    # %r is float.__repr__, the float format of json.dumps
    pairs = "[" + ",".join(["[%r,%r]"] * data.shape[-1]) + "]"
    rows = [data] if state.is_pure else data
    with open(path, "w") as fh:
        fh.write('{"data":' + ("" if state.is_pure else "["))
        for i, row in enumerate(rows):
            fh.write(("," if i else "") + pairs % tuple(
                np.stack([row.real, row.imag], -1).ravel().tolist()))
        # every header key sorts after "data"
        fh.write(("," if state.is_pure else "],") + dumps_canonical(_header(state))[1:])


def read_state(path: str) -> QuantumState:
    with open(path, "rb") as fh:
        raw = fh.read()
    parsed = _read_canonical(raw)
    if parsed is None:
        doc = json.loads(raw)
        del raw
        return state_from_dict(doc)
    # the file's bytes (15 MB for a full N = 10 density) go before the check
    del raw
    rep, payload, label = parsed
    return QuantumState(rep, payload, label=label)


def write_report(doc: dict, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def sweep_rows_to_csv(rows) -> str:
    """Serialize sweep records with 17 significant digits and a stable order."""
    lines = [",".join(CSV_HEADER)]
    keyed = sorted(rows, key=lambda r: (r.scenario, r.n, r.p, r.lam))
    for r in keyed:
        lines.append(",".join(_fmt(v) for v in (
            r.scenario, r.n, r.p, r.lam, r.theta0, r.precision_inv, r.qfi,
            r.bound_sep, r.bound_bisep, r.bound_heisenberg)))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, path: str):
    with open(path, "w") as fh:
        fh.write(sweep_rows_to_csv(rows))
