"""Output checks: every command's file or stdout against recorded references.

Numbers are compared with a stated relative tolerance, not byte equality,
so that an exact but differently ordered computation still passes:

    |a - b| <= RTOL * max(|a|, |b|) + ATOL_REL * scale

where ``scale`` is the largest magnitude in the reference document (the
absolute term only admits round-off on values that are zero in exact
arithmetic).  Strings, booleans and integers, which carry verdicts and
certified depths, must match exactly; digits inside free-text details are
masked.  Sweeps are also checked against their physical ceilings.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

RTOL = 1e-6
ATOL_REL = 1e-12

# Noise-sweep columns that depend on the arg-max of a flat optimum found by
# golden-section search (log-step tolerance 1e-2): lambda moves at that
# step, precision_inv (the maximum) at second order, qfi at first order.
NOISE_RTOL = {"lambda": 5e-2, "precision_inv": 1e-4, "qfi": 2e-2}

_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_TAIL_FIELD = re.compile(r'"(format|kind|label|n_qubits|representation)":("[^"]*"|\d+)')


class CheckError(Exception):
    """An output that does not match its reference."""


# ----------------------------------------------------------------------
# extraction: command output -> comparable record
# ----------------------------------------------------------------------

def state_record(path) -> dict:
    """Header fields of a qmetro-state/1 file plus a numeric signature.

    The header is read from the file's tail (keys are sorted, so it follows
    the payload); the signature <J_z>, <J_z^2> and the purity is computed
    with NumPy for files small enough to parse cheaply.  The 15 MB mixed
    state gets the header only: its witness report checks its content.
    """
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(0, size - 512))
        tail = fh.read().decode("utf-8", "replace")
    header = {k: json.loads(v) for k, v in _TAIL_FIELD.findall(tail)}
    rec = {"header": header}
    if size <= 4_000_000:
        with open(path) as fh:
            doc = json.load(fh)
        rec["signature"] = _signature(doc)
    return rec


def _signature(doc) -> list:
    data = np.asarray(doc["data"], dtype=float)
    n = int(doc["n_qubits"])
    if doc["representation"] == "symmetric":
        m = np.arange(n + 1) - n / 2.0
    else:
        dim = 2 ** n
        ones = ((np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1).sum(axis=1)
        m = n / 2.0 - ones
    if data.ndim == 2:                      # vector of [re, im]
        pops = data[:, 0] ** 2 + data[:, 1] ** 2
        purity = float(pops.sum() ** 2)
    else:                                   # matrix of [re, im]
        pops = data[np.arange(len(m)), np.arange(len(m)), 0]
        purity = float((data ** 2).sum())
    return [float(pops.sum()), float(pops @ m), float(pops @ m ** 2), purity]


def report_record(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def csv_record(path) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [header] + [_parse_row(line.split(",")) for line in lines[1:]]


def _parse_row(cells):
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


EXTRACT = {"state": state_record, "report": report_record,
           "frontier": csv_record, "noise": csv_record}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def _scale(ref) -> float:
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return 0.0
    if isinstance(ref, (int, float)):
        return abs(ref) if math.isfinite(ref) else 0.0
    items = ref.values() if isinstance(ref, dict) else ref
    return max((_scale(v) for v in items), default=0.0)


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def compare(got, ref, path="", rtol=RTOL, atol=None):
    """Raise CheckError at the first leaf of ``got`` that misses ``ref``."""
    if atol is None:
        atol = ATOL_REL * max(_scale(ref), 1.0)
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise CheckError(f"{path or 'document'}: keys differ")
        for key in ref:
            if key == "direction" and path.endswith("effective_size"):
                _compare_direction(got, ref, path)
                continue
            compare(got[key], ref[key], f"{path}.{key}", rtol, atol)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise CheckError(f"{path}: length {len(got)} != {len(ref)}")
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]", rtol, atol)
        return
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not close(float(got), ref, rtol, atol):
            raise CheckError(f"{path}: {got!r} != {ref!r} (rtol {rtol:g})")
        return
    if isinstance(ref, str) and isinstance(got, str):
        if _NUMBER.sub("#", got) != _NUMBER.sub("#", ref):
            raise CheckError(f"{path}: {got!r} != {ref!r}")
        return
    if type(got) is not type(ref) or got != ref:
        raise CheckError(f"{path}: {got!r} != {ref!r}")


def _compare_direction(got, ref, path):
    """The maximising direction is defined up to sign, and not at all when
    the Fisher matrix vanishes (n_eff = 0)."""
    if ref["n_eff"] <= RTOL * max(1.0, _scale(ref)):
        return
    g, r = got["direction"], ref["direction"]
    sign = -1.0 if sum(x * y for x, y in zip(g, r)) < 0 else 1.0
    compare([sign * x for x in g], r, f"{path}.direction", atol=ATOL_REL)


def compare_rows(rows, ref_rows, what, rtol_by_column=None):
    """CSV rows against the reference, cell by cell, naming the column."""
    header = rows[0]
    if header != ref_rows[0] or len(rows) != len(ref_rows):
        raise CheckError(f"{what}: header or row count differs")
    atol = ATOL_REL * max(_scale(ref_rows[1:]), 1.0)
    rtols = rtol_by_column or {}
    for i, (got, want) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        for name, g, w in zip(header, got, want, strict=True):
            compare(g, w, f"{what} row {i} {name}", rtols.get(name, RTOL), atol)


def check_frontier(rows, ref):
    """Frontier CSV: every cell against the reference, every row under
    its ceiling 2N + N^2 (1 - pol^2) with the reference polarization, and
    under the QFI bound precision_inv <= F_Q[J_y]."""
    compare_rows(rows, ref["rows"], "frontier")
    col = {name: rows[0].index(name) for name in ("N", "precision_inv", "qfi")}
    for row, pol in zip(rows[1:], ref["polarization"], strict=True):
        n, prec, fq = row[col["N"]], row[col["precision_inv"]], row[col["qfi"]]
        ceiling = 2.0 * n + n * n * (1.0 - pol * pol)
        if prec > ceiling * (1 + RTOL):
            raise CheckError(f"frontier row over its ceiling: {prec} > {ceiling}")
        if prec > fq * (1 + RTOL):
            raise CheckError(f"frontier row over the QFI bound: {prec} > {fq}")


def check_noise(rows, ref):
    """Noise CSV: columns against the reference (looser where the column
    depends on the optimiser's arg-max), rows under the N/p ceiling."""
    compare_rows(rows, ref["rows"], "noise sweep", NOISE_RTOL)
    col = {name: rows[0].index(name) for name in ("N", "p", "precision_inv")}
    for row in rows[1:]:
        n, p, prec = row[col["N"]], row[col["p"]], row[col["precision_inv"]]
        if p > 0 and prec > n / p * (1 + RTOL):
            raise CheckError(f"noise sweep: precision {prec} over N/p = {n / p}")


def check_state(rec, ref):
    compare(rec["header"], ref["header"], "state.header")
    if "signature" in ref:
        if "signature" not in rec:
            raise CheckError("state file too large to check its signature")
        compare(rec["signature"], ref["signature"], "state.signature")


def check_command(cmd, rc: int, stdout: str, workdir, references) -> None:
    """Raise CheckError unless the command exited 0 with the right output."""
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    if cmd.check == "selftest":
        if "selftest: PASS" not in stdout:
            raise CheckError("selftest did not report PASS")
        return
    if cmd.ref not in references:
        raise CheckError(f"no reference recorded for {cmd.ref}")
    ref = references[cmd.ref]
    got = EXTRACT[cmd.check](f"{workdir}/{cmd.out}")
    if cmd.check == "state":
        check_state(got, ref)
    elif cmd.check == "frontier":
        check_frontier(got, ref)
    elif cmd.check == "noise":
        check_noise(got, ref)
    else:
        compare(got, ref)
