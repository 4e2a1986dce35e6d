"""File formats: qmetro-state/1 JSON states, JSON reports and sweep CSV.

State files hold complex payloads as nested [re, im] pairs in row-major
order.  Writing is deterministic (sorted keys, shortest-round-trip float
repr), so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .spin import Representation
from .states import QuantumState

STATE_FORMAT = "qmetro-state/1"

CSV_HEADER = ("scenario", "N", "p", "lambda", "theta0", "precision_inv",
              "qfi", "bound_sep", "bound_bisep", "bound_heisenberg")


def _complex_to_pairs(arr: np.ndarray):
    # tolist() yields Python floats, signed zeros included
    return np.stack([arr.real, arr.imag], -1).tolist()


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2:      # vector of [re, im]
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3:      # matrix of [re, im]
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError("malformed state payload")


def state_to_dict(state: QuantumState) -> dict:
    return {
        "format": STATE_FORMAT,
        "representation": state.rep.kind,
        "n_qubits": state.rep.n,
        "kind": "pure" if state.is_pure else "density",
        "label": state.label,
        "data": _complex_to_pairs(state.data),
    }


def state_from_dict(doc: dict) -> QuantumState:
    if doc.get("format") != STATE_FORMAT:
        raise ValueError(f"not a {STATE_FORMAT} document")
    rep = Representation(doc["representation"], int(doc["n_qubits"]))
    data = _pairs_to_complex(doc["data"])
    if doc["kind"] == "pure" and data.ndim != 1:
        raise ValueError("kind 'pure' requires a vector payload")
    if doc["kind"] == "density" and data.ndim != 2:
        raise ValueError("kind 'density' requires a matrix payload")
    return QuantumState(rep, data, label=doc.get("label", "state"))


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_state(state: QuantumState, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(state_to_dict(state)))


def read_state(path: str) -> QuantumState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))


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
