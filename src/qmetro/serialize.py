"""File formats: qmetro-state/1 JSON states, JSON reports and sweep CSV.

State files hold complex payloads as nested [re, im] pairs in row-major
order.  Writing is canonical (sorted keys, no whitespace, shortest
round-trip floats with signed zeros) and streams the payload one row at a
time, with one repr per distinct bit pattern of a row, so write -> read ->
write is byte-identical.  Reports are the bytes of json.dumps(doc,
sort_keys=True, indent=2): the document is rendered with a placeholder
for each ndarray value (an SLD), whose rows are then streamed in its place
by the same row formatter, at its indentation.  Reading takes a file that starts with
``{"data":[`` in chunks of about 1 MB: the header after the payload is
found and validated first, then each chunk of whole rows must match its
part of the bracket skeleton of the declared shape and hold two numbers
per entry (NumPy's parser also takes spellings JSON forbids, such as
``+1``), and is parsed straight into the payload: float64 for a density
until an imaginary part that is not +0.0 promotes it to complex128.  A
chunk ends between two rows, so the chunks accept exactly what the whole
text would.  Other layouts, and any mismatch, go through ``json.loads``
and the same checks.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .spin import Representation, require_density
from .states import QuantumState

STATE_FORMAT = "qmetro-state/1"

CSV_HEADER = ("scenario", "N", "p", "lambda", "theta0", "precision_inv",
              "qfi", "bound_sep", "bound_bisep", "bound_heisenberg")

_PAYLOAD_OPEN = b'{"data":['
# bytes of payload text checked and parsed at a time: about 70 rows of a full
# N = 10 density, whose temporaries take a few MB
_READ_CHUNK = 1 << 20


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
    shape = (rep.dim,) if kind == "pure" else (require_density(rep).dim,) * 2
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


def _read_canonical(fh) -> tuple | None:
    """(representation, payload, label) of a canonically written file, read
    from the binary file fh in chunks; None for any other layout."""
    if fh.read(len(_PAYLOAD_OPEN)) != _PAYLOAD_OPEN:
        return None
    # the first quote after the payload opens the header's first key
    end, before = len(_PAYLOAD_OPEN), b""
    while (chunk := fh.read(_READ_CHUNK)) and (at := chunk.find(b'"')) < 0:
        end, before = end + len(chunk), chunk[-1:]
    if not chunk or (chunk[at - 1:at] if at else before) != b",":
        return None
    fh.seek(end + at)
    try:
        doc = json.loads(b"{" + fh.read())
    except ValueError:
        return None
    if "data" in doc:       # a repeated key: json keeps the last one
        return None
    rep, shape, label = _checked_header(doc)   # before the payload is read
    # the payload's text runs from its outer [ to the , after its ]
    first = len(_PAYLOAD_OPEN) - 1
    fh.seek(first)
    payload = _parse_payload(fh, end + at - 1 - first, shape)
    return None if payload is None else (rep, payload, label)


def _parse_payload(fh, size: int, shape: tuple) -> np.ndarray | None:
    """The payload of the given shape from the next size bytes of fh,
    [item,item,...] with one item per row (per entry of a vector), parsed a
    chunk of whole items at a time; None unless the text matches the bracket
    skeleton of the shape and holds two numbers per entry.

    A chunk ends at the separator of two items, "]],[[" between rows (which
    occurs nowhere else in the skeleton), so that the chunks together are
    checked and parsed exactly as the whole text would be.  A density is
    float64 up to an imaginary part that is not +0.0 bit for bit (-0.0 too)."""
    payload = np.empty(shape, dtype=float if len(shape) == 2 else complex)
    item = b"[,]"
    for n in reversed(shape[1:]):
        item = b"[" + (item + b",") * (n - 1) + item + b"]"
    depth = len(shape)
    sep = b"]" * depth + b"," + b"[" * depth
    numbers = 2 * math.prod(shape[1:])
    text, done, head = b"", 0, True
    while size or text:
        chunk = fh.read(min(size, _READ_CHUNK))
        size -= len(chunk)
        tail = size == 0 or not chunk
        text += chunk
        del chunk   # each temporary goes as soon as it is used: a chunk's take a few MB
        if tail:
            piece, text = text, b""
        else:
            cut = text.rfind(sep)
            if cut < 0:
                continue
            piece, text = text[:cut + depth], text[cut + depth + 1:]
        skeleton = piece.translate(None, b"0123456789.-+eE")
        k = (len(skeleton) - head - tail + 1) // (len(item) + 1)
        if (done + k > shape[0] or skeleton !=
                b"[" * head + (item + b",") * (k - 1) + item + b"]" * tail):
            return None
        del skeleton
        piece = piece.translate(None, b"[]")    # deleted, not blanked: NumPy reads blank as -1
        try:
            values = np.fromstring(piece, sep=",")
        except ValueError:      # a bad token; older NumPy warns and stops short
            return None
        del piece
        if values.size != k * numbers:
            return None
        if not np.iscomplexobj(payload) and values[1::2].view(np.uint64).any():
            payload = payload.astype(complex)   # the rows so far have +0.0 imaginary parts
        step = 2 - np.iscomplexobj(payload)     # a float64 payload takes the real parts
        payload.reshape(-1).view(float)[done * numbers // step:][:k * numbers // step] = \
            values[::step]
        del values
        done, head = done + k, False
    return payload if done == shape[0] else None


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _pair_rows(arr: np.ndarray, indent: int | None = None, level: int = 0):
    """The text of json.dumps(_complex_to_pairs(arr), indent=indent) at
    nesting ``level`` (compact separators for indent None), one row of
    pairs at a time.  A row formats one number per distinct bit pattern (so
    -0.0 keeps its sign) by json's own float format, NaN and Infinity too."""
    nl = ["" if indent is None else "\n" + " " * (indent * d) for d in range(level, level + 3)]
    if arr.ndim > 1:
        for i, row in enumerate(arr):
            yield ("," if i else "[") + nl[1]
            yield from _pair_rows(row, indent, level + 1)
        yield nl[0] + "]" if len(arr) else "[]"
        return
    values, at = np.unique(np.stack([arr.real, arr.imag], -1).ravel().view(np.uint64),
                           return_inverse=True)
    text = json.dumps(values.view(float).tolist())[1:-1].split(", ")
    pair = "[" + nl[2] + "%s," + nl[2] + "%s" + nl[1] + "]"
    row = "[" + nl[1] + ("," + nl[1]).join([pair] * arr.size) + nl[0] + "]" if arr.size else "[]"
    yield row % tuple(map(text.__getitem__, at.tolist()))


def write_state(state: QuantumState, path: str):
    with open(path, "w") as fh:
        fh.write('{"data":')
        fh.writelines(_pair_rows(state.data))
        # every header key sorts after "data"
        fh.write("," + dumps_canonical(_header(state))[1:])


def read_state(path: str) -> QuantumState:
    with open(path, "rb") as fh:
        parsed = _read_canonical(fh)
        if parsed is None:
            fh.seek(0)
            return state_from_dict(json.loads(fh.read()))
    rep, payload, label = parsed
    return QuantumState(rep, payload, label=label)


def write_report(doc: dict, path: str):
    """json.dumps(doc, sort_keys=True, indent=2) and a newline, with an
    ndarray value (an SLD) as its nested [re, im] pairs, streamed row by row
    where a placeholder stood, at its indentation."""
    arrays, parts, token = [], [], "\0ndarray"

    def hold(arr):
        if not isinstance(arr, np.ndarray):
            raise TypeError(f"Object of type {type(arr).__name__} is not JSON serializable")
        arrays.append(arr)
        return token

    while len(parts) != len(arrays) + 1:    # a placeholder no string of doc equals
        token += "\0"
        arrays.clear()
        parts = json.dumps(doc, sort_keys=True, indent=2, default=hold).split(json.dumps(token))
    with open(path, "w") as fh:
        fh.write(parts[0])
        for arr, before, after in zip(arrays, parts, parts[1:]):
            line = before[before.rfind("\n") + 1:]
            fh.writelines(_pair_rows(arr, 2, (len(line) - len(line.lstrip(" "))) // 2))
            fh.write(after)
        fh.write("\n")


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
