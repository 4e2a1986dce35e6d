import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qmetro
from qmetro import serialize
from qmetro.cli import main, parse_int_list, parse_range
from qmetro.spin import full_rep, symmetric_rep
from qmetro.states import (QuantumState, SqueezingSpec, dicke, ghz, mix_white_noise,
                           singlet_pi, squeezed_ground_state)


# ------------------------------------------------- state files

def test_state_roundtrip_bytes(tmp_path):
    path = tmp_path / "ghz.json"
    serialize.write_state(ghz(4), str(path))
    first = path.read_bytes()
    state = serialize.read_state(str(path))
    serialize.write_state(state, str(path))
    assert path.read_bytes() == first


def test_pair_writer_matches_elementwise_form(rng):
    def elementwise(arr):
        if arr.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in arr]
        return [[[float(z.real), float(z.imag)] for z in row] for row in arr]

    vec = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    vec[[1, 4]] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    mat[2, 3] = complex(-0.0, -0.0)
    for arr in (vec, mat):
        pairs = serialize._complex_to_pairs(arr)
        assert pairs == elementwise(arr)
        assert json.dumps(pairs) == json.dumps(elementwise(arr))
        assert "-0.0" in json.dumps(pairs)


def test_density_roundtrip(tmp_path):
    path = tmp_path / "singlet.json"
    st = singlet_pi(4)
    serialize.write_state(st, str(path))
    back = serialize.read_state(str(path))
    assert not back.is_pure
    assert np.array_equal(back.data.view(np.uint64), st.data.view(np.uint64))
    assert np.trace(back.data).real == pytest.approx(1.0, abs=1e-12)


def test_state_file_schema(tmp_path):
    path = tmp_path / "dicke.json"
    serialize.write_state(dicke(4, 2), str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == "qmetro-state/1"
    assert doc["representation"] == "symmetric"
    assert doc["n_qubits"] == 4
    assert doc["kind"] == "pure"
    assert len(doc["data"]) == 5
    assert all(len(pair) == 2 for pair in doc["data"])


def test_reader_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="qmetro-state"):
        serialize.read_state(str(path))


# ------------------------------------------------- codec against the json oracles

def _oracle_bytes(state) -> bytes:
    """The canonical document built as nested lists and dumped by json."""
    return serialize.dumps_canonical(serialize.state_to_dict(state)).encode()


def _oracle_payload(path) -> np.ndarray:
    """The payload of any layout, read by json.load with .real/.imag set apart."""
    with open(path, encoding="utf-8") as fh:
        pairs = np.array(json.load(fh)["data"], dtype=float)
    out = np.empty(pairs.shape[:-1], dtype=complex)
    out.real, out.imag = pairs[..., 0], pairs[..., 1]
    return out


def _bits(arr):
    """Bit patterns of a payload widened to complex128, so that a real
    payload (a float64 density) meets a complex oracle entry for entry: the
    widening gives every imaginary part +0.0, as the file must hold."""
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


def _unchecked(rep, data, label="state"):
    """Stands in for QuantumState: a payload with no physical checks."""
    return SimpleNamespace(rep=rep, data=data, label=label, is_pure=data.ndim == 1)


# repr switches between fixed and exponent notation at 1e16 and 1e-5
_EDGE_FLOATS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e16, np.nextafter(1e16, 0), np.nextafter(1e16, np.inf), -1e16,
    1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1), -1e-5,
    1.7976931348623157e308, 0.1, 1 / 3])


def _random_floats(rng, size):
    """Finite doubles from random bit patterns, edge values spliced in."""
    x = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = -0.0
    x[:len(_EDGE_FLOATS)] = _EDGE_FLOATS[:size]
    return rng.permutation(x)


def _random_payloads(rng):
    sym, full = symmetric_rep(20), full_rep(3)
    vec = lambda rep: _random_floats(rng, 2 * rep.dim).view(complex)
    return [(sym, vec(sym)), (full, vec(full)),
            (sym, _random_floats(rng, 2 * 21 * 21).view(complex).reshape(21, 21)),
            (full, _random_floats(rng, 2 * 64).view(complex).reshape(8, 8))]


def test_writer_bytes_match_json_oracle_on_random_bit_patterns(tmp_path, rng):
    path = tmp_path / "s.json"
    for rep, data in _random_payloads(rng):
        state = _unchecked(rep, data, label='a "quoted", [bracketed] Ψ-état')
        serialize.write_state(state, str(path))
        assert path.read_bytes() == _oracle_bytes(state)


def test_reader_payload_is_bitwise_the_json_oracle(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(serialize, "QuantumState", _unchecked)
    path = tmp_path / "s.json"
    for rep, data in _random_payloads(rng):
        serialize.write_state(_unchecked(rep, data), str(path))
        with open(path, "rb") as fh:
            assert serialize._read_canonical(fh) is not None   # fast path
        back = serialize.read_state(str(path))
        assert np.array_equal(_bits(back.data), _bits(_oracle_payload(path)))
        assert np.array_equal(_bits(back.data), _bits(data))


def test_codec_roundtrip_hypothesis(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.setattr(serialize, "QuantumState", _unchecked)
    path = tmp_path / "s.json"

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(n=st.integers(1, 3), density=st.booleans(), data=st.data())
    def check(n, density, data):
        rep = full_rep(n)
        shape = (rep.dim, rep.dim) if density else (rep.dim,)
        size = 2 * int(np.prod(shape))
        floats = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=size, max_size=size))
        payload = np.array(floats, dtype=float).view(complex).reshape(shape)
        state = _unchecked(rep, payload)
        serialize.write_state(state, str(path))
        assert path.read_bytes() == _oracle_bytes(state)
        back = serialize.read_state(str(path))
        assert np.array_equal(_bits(back.data), _bits(payload))

    check()


def _probe_states():
    full = full_rep(4)
    return [ghz(4), dicke(6, 3), ghz(4, full), singlet_pi(4),
            mix_white_noise(ghz(4, full), 0.7)]


def test_reader_fast_path_on_canonical_files(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    fallback = []
    monkeypatch.setattr(serialize, "state_from_dict",
                        lambda doc: fallback.append(doc))
    for state in _probe_states():
        serialize.write_state(state, str(path))
        assert path.read_bytes() == _oracle_bytes(state)
        back = serialize.read_state(str(path))
        assert np.array_equal(_bits(back.data), _bits(_oracle_payload(path)))
        assert (back.rep, back.label, back.is_pure) == (state.rep, state.label, state.is_pure)
    assert fallback == []


@pytest.mark.parametrize("layout", ["indent", "reordered"])
@pytest.mark.parametrize("label", ['plain', 'say "hi"', "[x, y]", "a,b", "Ψ-état ✓"])
def test_reader_fallback_agrees_with_fast_path(tmp_path, monkeypatch, layout, label):
    state = QuantumState(symmetric_rep(4), dicke(4, 1).data, label=label)
    canonical, other = tmp_path / "c.json", tmp_path / "o.json"
    serialize.write_state(state, str(canonical))
    doc = serialize.state_to_dict(state)   # "data" comes last
    if layout == "indent":
        other.write_text(json.dumps(doc, indent=2, sort_keys=True))
    else:
        other.write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
                         encoding="utf-8")
    fast = serialize.read_state(str(canonical))
    routes = []
    original = serialize.state_from_dict
    monkeypatch.setattr(serialize, "state_from_dict",
                        lambda doc: routes.append(doc) or original(doc))
    slow = serialize.read_state(str(other))
    assert len(routes) == 1
    assert fast.label == slow.label == label
    assert np.array_equal(_bits(fast.data), _bits(slow.data))
    assert np.array_equal(_bits(fast.data), _bits(_oracle_payload(other)))


def _signed_zero_states():
    vec = np.zeros(8, dtype=complex)
    vec[[0, 7]] = 2 ** -0.5
    vec[[1, 2, 3]] = [complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)]
    rho = np.array(singlet_pi(4).data, dtype=complex)
    rho[0, 1], rho[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    rho[2, 3], rho[3, 2] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    return [QuantumState(full_rep(3), vec), QuantumState(full_rep(4), rho)]


@pytest.mark.parametrize("layout", ["canonical", "indent"])
def test_signed_zeros_survive_both_reader_routes(tmp_path, layout):
    path, again = tmp_path / "s.json", tmp_path / "again.json"
    for state in _signed_zero_states():
        serialize.write_state(state, str(path))
        first = path.read_bytes()
        assert b"[-0.0,0.0]" in first and b"[-0.0,-0.0]" in first
        if layout == "indent":
            path.write_text(json.dumps(json.loads(first), indent=2))
        back = serialize.read_state(str(path))
        assert np.array_equal(_bits(back.data), _bits(state.data))
        serialize.write_state(back, str(again))
        assert again.read_bytes() == first


def _canonical_doc(**changes):
    doc = serialize.state_to_dict(ghz(2, full_rep(2)))
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


_PAIRS = serialize.state_to_dict(ghz(2, full_rep(2)))["data"]


_CANONICAL = serialize.dumps_canonical(_canonical_doc())
# canonical layout, malformed numbers: the reader's fast path declines them
_BAD_NUMBERS = {
    "empty-slot": _CANONICAL.replace("0.0]", "]", 1),
    "empty-last-slot": _CANONICAL.replace(",0.0]]", ",]]"),
    "doubled-point": _CANONICAL.replace("0.0", "0.0.0", 1),
    "regrouped": serialize.dumps_canonical(
        _canonical_doc(data=[_PAIRS[0] + _PAIRS[1], _PAIRS[2] + _PAIRS[3]])),
}
_MALFORMED = {
    "triples": serialize.dumps_canonical(_canonical_doc(data=[p + [0.0] for p in _PAIRS])),
    "singletons": serialize.dumps_canonical(_canonical_doc(data=[p[:1] for p in _PAIRS])),
    "top-level-array": json.dumps([_PAIRS]),
    **{f"no-{k}": serialize.dumps_canonical(_canonical_doc(**{k: None}))
       for k in ("data", "representation", "n_qubits", "kind")},
    "unknown-kind": serialize.dumps_canonical(_canonical_doc(kind="mixed")),
    "string-n_qubits": serialize.dumps_canonical(_canonical_doc(n_qubits="2")),
    "matrix-for-pure": serialize.dumps_canonical(_canonical_doc(data=[_PAIRS] * 4)),
    "ragged": serialize.dumps_canonical(
        _canonical_doc(data=[_PAIRS] * 3 + [_PAIRS[:3]], kind="density")),
    "object-entry": serialize.dumps_canonical(_canonical_doc(data=[{}, *_PAIRS[1:]])),
    # a number spelled as a JSON string: a valid state if read as a number
    "string-entry": serialize.dumps_canonical(
        _canonical_doc(data=[[repr(_PAIRS[0][0]), 0.0], *_PAIRS[1:]])),
    # JSON booleans: NumPy reads true/false among numbers as 1/0, which made
    # this file the state |00>
    "bool-mixed": '{"data":[[true,false],[0,0],[0,0],[0,0]],"format":"qmetro-state/1",'
                  '"kind":"pure","label":"bool","n_qubits":2,"representation":"full"}',
    "bool-only": serialize.dumps_canonical(
        _canonical_doc(data=[[True, False], [False, False], [False, False], [False, False]])),
    # an over-cap density header, refused before its payload is read
    "over-cap": serialize.dumps_canonical(_canonical_doc(n_qubits=11, kind="density")),
    **_BAD_NUMBERS,
}


@pytest.mark.parametrize("text", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_state_files_exit_one(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["qfi", str(path)]) == 1
    assert capsys.readouterr().err.startswith("qmetro: error:")


@pytest.mark.parametrize("text", _BAD_NUMBERS.values(), ids=_BAD_NUMBERS.keys())
def test_fast_path_declines_malformed_numbers(text):
    assert serialize._read_canonical(io.BytesIO(text.encode())) is None


def test_repeated_data_key_reads_as_json_does(tmp_path):
    path = tmp_path / "twice.json"
    other = serialize.state_to_dict(ghz(2, full_rep(2), axis="z"))["data"]
    path.write_text(_CANONICAL.replace('"format"', f'"data":{json.dumps(other)},"format"'))
    back = serialize.read_state(str(path))
    assert np.array_equal(_bits(back.data), _bits(_oracle_payload(path)))
    assert np.array_equal(_bits(back.data), _bits(ghz(2, full_rep(2), axis="z").data))


@pytest.mark.parametrize("key", ["bool-mixed", "bool-only"])
def test_json_booleans_are_not_numbers(key):
    with pytest.raises(ValueError, match="boolean|not"):
        serialize.state_from_dict(json.loads(_MALFORMED[key]))


def test_over_cap_density_names_the_cap(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(_MALFORMED["over-cap"])
    with pytest.raises(ValueError, match="limited to N <= 10"):
        serialize.read_state(str(path))


def _write_state_oracle(state) -> bytes:
    """The writer's former form, one %r per number: the oracle of the
    writer's one repr per distinct bit pattern of a row."""
    data = state.data
    pairs = "[" + ",".join(["[%r,%r]"] * data.shape[-1]) + "]"
    rows = [data] if state.is_pure else data
    out = ['{"data":' + ("" if state.is_pure else "[")]
    for i, row in enumerate(rows):
        out.append(("," if i else "") + pairs % tuple(
            np.stack([row.real, row.imag], -1).ravel().tolist()))
    out.append(("," if state.is_pure else "],")
               + serialize.dumps_canonical(serialize._header(state))[1:])
    return "".join(out).encode()


def _writer_probe_states(rng):
    from conftest import rand_density
    from qmetro.states import SqueezingSpec, squeezed_ground_state, to_full
    rho = 0.5 * rand_density(rng, 96) + 0.5 * np.eye(96) / 96
    rho[3, 5], rho[5, 3] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    rho[7, 2], rho[2, 7] = complex(5e-324, -0.0), complex(5e-324, 0.0)
    rho[9, 8], rho[8, 9] = complex(-2.2250738585072e-308, 1e-320), \
        complex(-2.2250738585072e-308, -1e-320)
    full = full_rep(10)
    return ([mix_white_noise(ghz(10, full), p) for p in (0.5, 0.6, 0.7, 0.8, 0.9)]
            + [singlet_pi(8), to_full(squeezed_ground_state(SqueezingSpec(10, 4.0))),
               QuantumState(symmetric_rep(95), rho)])


def test_writer_bytes_match_per_float_oracle(tmp_path, rng):
    path = tmp_path / "s.json"
    for state in _writer_probe_states(rng):
        serialize.write_state(state, str(path))
        assert path.read_bytes() == _write_state_oracle(state), state.label


def test_full_density_write_read_write_is_byte_identical(tmp_path):
    path, again = tmp_path / "m.json", tmp_path / "again.json"
    serialize.write_state(mix_white_noise(ghz(10, full_rep(10)), 0.6), str(path))
    serialize.write_state(serialize.read_state(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


def _chunk_edge_files(tmp_path):
    """A canonical 16 x 16 density and three broken copies of it: a bad token
    in the last row, a row with one pair too many, a file cut in mid-row."""
    path = tmp_path / "m.json"
    serialize.write_state(mix_white_noise(ghz(4, full_rep(4)), 0.7), str(path))
    text = path.read_text()
    last = text.rindex("]],[[") + 5          # the last row's first number
    cut = text.index("]],[[", len(text) // 2) - 40
    broken = {"bad-token-last-row": text[:last] + "1.1." + text[last:],
              "extra-pair": text.replace("]],[[", "],[0.0,0.0]],[[", 1),
              "cut-mid-row": text[:cut]}
    files = {}
    for name, body in broken.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(body)
    return path, files


@pytest.mark.parametrize("chunk", [1, 7, 100, 1 << 20])
def test_reader_chunks_end_on_row_boundaries(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(serialize, "_READ_CHUNK", chunk)
    path, files = _chunk_edge_files(tmp_path)
    with open(path, "rb") as fh:
        assert serialize._read_canonical(fh) is not None
    back = serialize.read_state(str(path))
    assert np.array_equal(_bits(back.data), _bits(_oracle_payload(path)))
    for name, bad in files.items():
        with open(bad, "rb") as fh:
            assert serialize._read_canonical(fh) is None, name
        with pytest.raises(ValueError):
            serialize.read_state(str(bad))


def _dtype_probe_states():
    """(state, payload dtype): a real density, one whose only imaginary part
    other than +0.0 is a -0.0 in its last row, one with a nonzero imaginary
    part, and a real vector."""
    full = full_rep(4)
    real = mix_white_noise(ghz(4, full), 0.7)
    rho = np.array(real.data, dtype=complex)
    rho[-1, 5] = complex(rho[-1, 5].real, -0.0)
    imag = np.eye(16, dtype=complex) / 16
    imag[2, 9], imag[9, 2] = 0.01 + 0.02j, 0.01 - 0.02j
    return [(real, np.float64), (QuantumState(full, rho, label="signed"), np.complex128),
            (QuantumState(full, imag, label="imag"), np.complex128),
            (ghz(4, full), np.complex128)]


@pytest.mark.parametrize("layout", ["canonical", "indent"])
@pytest.mark.parametrize("chunk", [7, 1 << 20])
def test_reader_keeps_the_payload_dtype_rule(tmp_path, monkeypatch, layout, chunk):
    """Both reader routes give a density float64 exactly when every imaginary
    part in the file is +0.0 (a -0.0 in the last row, read in chunks of 7
    bytes, keeps it complex) and every vector complex128, bit for bit as
    written; write -> read -> write is byte-identical for each."""
    monkeypatch.setattr(serialize, "_READ_CHUNK", chunk)
    path, again = tmp_path / "s.json", tmp_path / "again.json"
    for state, dtype in _dtype_probe_states():
        assert state.data.dtype == dtype, state.label
        serialize.write_state(state, str(path))
        first = path.read_bytes()
        if layout == "indent":
            path.write_text(json.dumps(json.loads(first), indent=2))
        else:
            with open(path, "rb") as fh:
                assert serialize._read_canonical(fh) is not None, state.label
        back = serialize.read_state(str(path))
        assert back.data.dtype == dtype, state.label
        assert back.data.flags.c_contiguous and not back.data.flags.writeable
        assert np.array_equal(back.data.view(np.uint64), state.data.view(np.uint64))
        serialize.write_state(back, str(again))
        assert again.read_bytes() == first, state.label


def _hand_written_density(n, entries) -> str:
    """A canonical state file of the full N-qubit density I/2^N, written by
    hand, with the (row, column) -> (re, im) text of ``entries`` put in."""
    d = 2 ** n
    diag = repr(1.0 / d)
    rows = []
    for i in range(d):
        pairs = [entries.get((i, j), (diag if i == j else "0.0", "0.0")) for j in range(d)]
        rows.append("[" + ",".join(f"[{re},{im}]" for re, im in pairs) + "]")
    return ('{"data":[' + ",".join(rows) + '],"format":"qmetro-state/1","kind":"density",'
            f'"label":"hand","n_qubits":{n},"representation":"full"}}\n')


@pytest.mark.parametrize("case,dtype", [
    ("all +0.0", np.float64), ("-0.0 in the last row", np.complex128),
    ("imaginary part in the last chunk", np.complex128)])
def test_reader_parses_a_density_into_float64_until_an_imaginary_part(tmp_path, case, dtype):
    """A density file of 9 qubits (2.6 MB, three chunks) is parsed into float64
    and promoted to complex128 at the first imaginary part that is not +0.0
    bit for bit; each file reads bit for bit as the json.loads fallback does."""
    entries = {"all +0.0": {(3, 4): ("0.001", "0.0"), (4, 3): ("0.001", "0.0")},
               "-0.0 in the last row": {(511, 17): ("0.0", "-0.0")},
               "imaginary part in the last chunk": {(510, 511): ("0.0", "-0.001"),
                                                    (511, 510): ("0.0", "0.001")}}[case]
    text = _hand_written_density(9, entries)
    assert len(text) > 2 * serialize._READ_CHUNK
    path = tmp_path / "hand.json"
    path.write_text(text)
    with open(path, "rb") as fh:
        rep, payload, _ = serialize._read_canonical(fh)
    assert payload.dtype == dtype
    fallback = serialize.state_from_dict(json.loads(text)).data
    state = serialize.read_state(str(path))
    assert state.data.dtype == fallback.dtype == dtype
    assert np.array_equal(state.data.view(np.uint64), fallback.view(np.uint64))
    assert np.array_equal(payload.view(np.uint64), fallback.view(np.uint64))


def test_reading_a_full_density_allocates_no_complex_payload(tmp_path):
    """read_state of the mixed N = 10 state parses its 8 MB of float64 in
    place: its traced peak holds the payload, the chunk temporaries and the
    PSD check's copy of the 512 x 512 coupled block with its Cholesky
    factor (2 MB each), 28 MB when the payload was parsed as complex."""
    import tracemalloc
    path = tmp_path / "m.json"
    serialize.write_state(mix_white_noise(ghz(10, full_rep(10)), 0.6), str(path))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            payload = serialize._read_canonical(fh)[1]
        parse_peak = tracemalloc.get_traced_memory()[1]
        del payload
        tracemalloc.reset_peak()
        state = serialize.read_state(str(path))
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.data.dtype == np.float64
    assert parse_peak < 12 * 2 ** 20, f"{parse_peak / 2 ** 20:.1f} MB"
    assert read_peak < 12.5 * 2 ** 20, f"{read_peak / 2 ** 20:.1f} MB"


def test_csv_formatting():
    from qmetro.metrology import SweepRecord
    rec = SweepRecord(scenario="s", n=4, p=0.25, lam=1 / 3, theta0=0.0,
                      precision_inv=np.pi, qfi=1.0, bound_sep=4.0,
                      bound_bisep=10.0, bound_heisenberg=16.0, polarization=0.0,
                      var_x=0.0, ceiling=16.0)
    text = serialize.sweep_rows_to_csv([rec])
    header, row = text.strip().split("\n")
    assert header == ("scenario,N,p,lambda,theta0,precision_inv,qfi,"
                      "bound_sep,bound_bisep,bound_heisenberg")
    fields = row.split(",")
    assert fields[3] == "0.33333333333333331"   # 17 significant digits
    assert fields[5] == "3.1415926535897931"


# ------------------------------------------------- range parsing

def test_parse_range_lin_log():
    lin = parse_range("0:1:5")
    assert np.allclose(lin, [0, 0.25, 0.5, 0.75, 1.0])
    log = parse_range("1:100:3:log")
    assert np.allclose(log, [1, 10, 100])
    with pytest.raises(ValueError):
        parse_range("1:2")
    with pytest.raises(ValueError):
        parse_range("-1:2:4:log")
    assert parse_int_list("4,6,8") == [4, 6, 8]


# ------------------------------------------------- CLI end to end

def test_cli_state_and_qfi(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert main(["state", "--kind", "ghz", "--n", "4", "--axis", "x",
                 "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["qfi", str(out), "--generator", "axis:x", "--zeno",
                 "--out", str(report)]) == 0
    text = capsys.readouterr().out
    assert "qfi = 16" in text
    doc = json.loads(report.read_text())
    assert doc["qfi"] == pytest.approx(16.0, abs=1e-9)
    assert doc["zeno_time"] == pytest.approx(0.5, abs=1e-12)


def test_cli_zeno_reuses_the_qfi_it_holds(tmp_path, monkeypatch):
    """qfi --zeno on a mixed N = 8 state makes one pair sum, the QFI's, and
    reports zeno_time of the state bit for bit."""
    from qmetro import fisher
    from qmetro.spin import collective_op
    path = tmp_path / "m.json"
    serialize.write_state(mix_white_noise(ghz(8, full_rep(8)), 0.6), str(path))
    calls, pair_sum = [], fisher._pair_sum
    monkeypatch.setattr(fisher, "_pair_sum", lambda *a: calls.append(a) or pair_sum(*a))
    report = tmp_path / "r.json"
    assert main(["qfi", str(path), "--zeno", "--out", str(report)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    state = serialize.read_state(str(path))
    want = fisher.zeno_time(state, collective_op("x", state.rep))
    assert json.loads(report.read_text())["zeno_time"] == want


@pytest.mark.parametrize("state_args", [
    ["--kind", "squeezed", "--n", "6", "--lam", "2"],
    ["--kind", "mixed", "--n", "3", "--rep", "full", "--p", "0.7"],
])
def test_cli_sld_trace_equals_qfi(tmp_path, state_args):
    out = tmp_path / "state.json"
    assert main(["state", *state_args, "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["qfi", str(out), "--generator", "axis:y", "--sld",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["sld_trace_check"] == pytest.approx(doc["qfi"], rel=1e-10)


def test_report_streams_an_array_as_its_nested_pairs(tmp_path):
    """An ndarray value is written row by row with the bytes of its nested
    [re, im] lists; signed zeros keep their sign, and any other object that
    JSON cannot hold is still refused."""
    rng = np.random.default_rng(3)
    L = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    L[1, 2] = complex(-0.0, 0.0)
    for value in (L, L[0], np.zeros((0, 3))):
        path = tmp_path / "r.json"
        serialize.write_report({"qfi": 1.5, "sld": value, "z": [1]}, str(path))
        want = json.dumps({"qfi": 1.5, "sld": serialize._complex_to_pairs(value), "z": [1]},
                          sort_keys=True, indent=2) + "\n"
        assert path.read_text() == want
    with pytest.raises(TypeError, match="not JSON serializable"):
        serialize.write_report({"x": {1, 2}}, str(tmp_path / "r.json"))


def _nested_pairs(doc):
    """doc with every ndarray replaced by its nested [re, im] lists."""
    if isinstance(doc, dict):
        return {k: _nested_pairs(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_nested_pairs(v) for v in doc]
    return serialize._complex_to_pairs(doc) if isinstance(doc, np.ndarray) else doc


def test_report_bytes_are_json_dumps_of_the_nested_pairs(tmp_path):
    """write_report gives the bytes of json.dumps(..., sort_keys=True,
    indent=2) of the nested pairs: real and complex arrays, signed zeros,
    1e+-300, json's spellings of non-finite values, 1-D arrays, arrays at
    any depth, two arrays in one document, and a string that equals the
    placeholder."""
    rng = np.random.default_rng(5)
    C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    C[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), 1e300 - 1e-300j, -1e-300 + 1e300j]
    C[1, :3] = [complex(np.nan, 1.0), complex(np.inf, -np.inf), complex(-np.inf, np.nan)]
    R = rng.standard_normal((3, 3))
    R[0, :3] = [-0.0, 1e300, -1e-300]
    R[1, 1] = np.nan
    docs = [{"qfi": 2.5, "sld": R}, {"qfi": 2.5, "sld": C},
            {"a": C[0], "b": R[:, 0], "label": "two"},
            {"outer": {"list": [1, R, {"deep": C[1]}]}, "z": [np.zeros((0, 2)), 3.0]},
            {"\0ndarray": "key", "label": "\0ndarray", "sld": R}]
    for doc in docs:
        path = tmp_path / "r.json"
        serialize.write_report(doc, str(path))
        want = json.dumps(_nested_pairs(doc), sort_keys=True, indent=2) + "\n"
        assert path.read_text() == want


def test_cli_witness_all(tmp_path, capsys):
    out = tmp_path / "singlet.json"
    assert main(["state", "--kind", "singlet", "--n", "4", "--rep", "full",
                 "--out", str(out)]) == 0
    report = tmp_path / "witness.json"
    assert main(["witness", str(out), "--all", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    by_name = {w["criterion"]: w for w in doc["witnesses"]}
    assert by_name["xi_squared_singlet"]["value"] == pytest.approx(0.0, abs=1e-9)
    assert by_name["xi_squared_singlet"]["verdict"] == "violated"


def _count_calls(monkeypatch, owner, name):
    """Record the calls of owner.name, patched in every qmetro module."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qmetro" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_cli_witness_all_takes_qfi_per_axis_from_avg(tmp_path, monkeypatch):
    import qmetro.linalg
    import qmetro.witnesses
    state = tmp_path / "mixed.json"
    assert main(["state", "--kind", "mixed", "--n", "4", "--rep", "full",
                 "--axis", "z", "--p", "0.7", "--out", str(state)]) == 0
    pure = tmp_path / "pure.json"
    assert main(["state", "--kind", "ghz", "--n", "4", "--rep", "full",
                 "--out", str(pure)]) == 0
    eigh_calls = _count_calls(monkeypatch, qmetro.linalg, "eigh_hermitian")
    moment_calls = _count_calls(monkeypatch, qmetro.witnesses, "_evaluate_moments")

    def report(path, *criteria):
        out = tmp_path / "w.json"
        assert main(["witness", str(path), *criteria, "--out", str(out)]) == 0
        return out.read_bytes()

    written = report(state, "--all")
    # one spectrum and one moment evaluation serve every criterion
    assert (len(eigh_calls), len(moment_calls)) == (1, 1)
    # the former --all report: the qfi criterion evaluated on its own
    moment_side = json.loads(report(state, "--criteria", "xi_s,xi_os,xi_singlet,ssi,qfi"))
    fisher_side = json.loads(report(state, "--criteria", "avg,macro"))
    expected = {"inputs": {"state": str(state)}, "n_qubits": 4,
                "qfi_per_axis": moment_side["qfi_per_axis"],
                "depth_certificate": moment_side["depth_certificate"],
                "avg_qfi": fisher_side["avg_qfi"],
                "effective_size": fisher_side["effective_size"],
                "witnesses": moment_side["witnesses"]}
    serialize.write_report(expected, str(tmp_path / "expected.json"))
    assert written == (tmp_path / "expected.json").read_bytes()
    eigh_calls.clear()
    moment_calls.clear()
    report(pure, "--all")
    assert (len(eigh_calls), len(moment_calls)) == (0, 1)


@pytest.mark.parametrize("command", [["qfi"], ["witness", "--all"]])
def test_cli_rejects_non_finite_state_file(tmp_path, capsys, command):
    doc = serialize.state_to_dict(ghz(3, full_rep(3)))
    doc["data"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_cli_witness_dicke_depth(tmp_path):
    out = tmp_path / "dicke.json"
    assert main(["state", "--kind", "dicke", "--n", "4", "--m", "2",
                 "--out", str(out)]) == 0
    report = tmp_path / "w.json"
    assert main(["witness", str(out), "--all", "--squeezed-axis", "z",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    by_name = {w["criterion"]: w for w in doc["witnesses"]}
    assert by_name["xi_squared_os"]["verdict"] == "violated"
    assert doc["avg_qfi"]["certified_depth"] == 4
    assert doc["avg_qfi"]["genuine_multipartite"] is True


def test_cli_scenario(tmp_path, capsys):
    assert main(["scenario", "--family", "ghz_parity", "--n", "4"]) == 0
    assert "0.0625" in capsys.readouterr().out


def test_cli_gradient_scenario_at_ten_spins(tmp_path):
    # the singlet probe at the full-density cap, N = 10
    out = tmp_path / "gradient.json"
    assert main(["scenario", "--family", "gradient", "--n", "10", "--theta0", "0.1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "gradient(10)" and doc["crb_consistent"] is True


def test_cli_sweep_frontier(tmp_path):
    out = tmp_path / "frontier.csv"
    assert main(["sweep", "--kind", "frontier", "--n", "12",
                 "--points", "16", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scenario,N,p,lambda")
    assert len(lines) == 17


def test_cli_sweep_deterministic_under_thread_cap(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    monkeypatch.setenv("QMETRO_THREADS", "1")
    assert main(["sweep", "--kind", "frontier", "--n", "8", "--points", "12",
                 "--out", str(out1)]) == 0
    monkeypatch.setenv("QMETRO_THREADS", "4")
    assert main(["sweep", "--kind", "frontier", "--n", "8", "--points", "12",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("kind,column,shift,rc", [
    ("frontier", "precision_inv", 2e-6, 2),
    ("frontier", "precision_inv", 0.5e-6, 0),
    ("noise", "precision_inv", 2e-6, 2),
    ("noise", "precision_inv", 0.5e-6, 0),
    ("noise", "var_x", -2e-9, 2),
    ("noise", "var_x", -0.5e-9, 0),
])
def test_cli_sweep_checks_every_row_against_its_ceiling_and_floor(
        tmp_path, capsys, monkeypatch, kind, column, shift, rc):
    """The last row is moved to its ceiling or its noise floor
    (2p - p^2) N/4 plus a shift: past the slack the sweep exits 2."""
    import qmetro.cli
    name = "squeezing_frontier" if kind == "frontier" else "noisy_scaling_sweep"
    real = getattr(qmetro.cli, name)

    def moved(*args, **kwargs):
        out = real(*args, **kwargs)
        records = out if kind == "frontier" else out.records
        rec = records[-1]
        edge = (rec.ceiling if column == "precision_inv"
                else (2 * rec.p - rec.p ** 2) * rec.n / 4)
        records[-1] = dataclasses.replace(rec, **{column: edge + shift})
        return out

    monkeypatch.setattr(qmetro.cli, name, moved)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kind", kind, "--n", "8", "--points", "8",
                 "--n-list", "4,6", "--p", "0.25", "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert out.exists()
    if rc:
        assert ("exceeds the ceiling" if column == "precision_inv"
                else "below the noise floor") in err
    else:
        assert err == ""


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["state", "--kind", "nope", "--n", "4", "--out", "x.json"]) == 1
    assert main(["qfi", str(tmp_path / "missing.json")]) == 1
    assert main(["sweep", "--kind", "noise", "--n-list", "", "--p", "0.1",
                 "--out", str(tmp_path / "s.csv")]) == 1


def test_cli_noise_sweep_over_the_qfi_cap_runs_no_row(tmp_path, capsys, monkeypatch):
    import qmetro.metrology
    rows = []
    monkeypatch.setattr(qmetro.metrology, "_noisy_precision",
                        lambda *args: rows.append(args))
    # the coarse lam grid builds its probes in one batch
    monkeypatch.setattr(qmetro.metrology, "squeezed_ground_states",
                        lambda *args: rows.append(args))
    out = tmp_path / "s.csv"
    too_big = qmetro.metrology.NOISY_QFI_MAX + 1
    assert main(["sweep", "--kind", "noise", "--n-list", f"4,{too_big}", "--p", "0.25",
                 "--out", str(out)]) == 1
    assert f"N <= {qmetro.metrology.NOISY_QFI_MAX}" in capsys.readouterr().err
    assert rows == [] and not out.exists()


@pytest.mark.parametrize("p", ["0.25", "0"])
def test_cli_noise_sweep_of_a_repeated_n_runs_no_row(tmp_path, capsys, monkeypatch, p):
    """A particle number named twice is refused before any row runs; it wrote
    repeated rows and fitted an exponent to them."""
    import qmetro.metrology
    rows = []
    monkeypatch.setattr(qmetro.metrology, "squeezed_ground_states",
                        lambda *args: rows.append(args))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kind", "noise", "--n-list", "4,4,4", "--p", p,
                 "--out", str(out)]) == 1
    assert "listed more than once" in capsys.readouterr().err
    assert rows == [] and not out.exists()


@pytest.mark.parametrize("rep,n", [("symmetric", 4), ("full", 12)])
def test_cli_witness_reports_of_coherent_states(tmp_path, capsys, rep, n):
    # boundary verdicts are Python bools, so the report is written
    for axis in "xyz":
        state, report = tmp_path / f"p{axis}.json", tmp_path / f"r{axis}.json"
        assert main(["state", "--kind", "polarized", "--n", str(n), "--rep", rep,
                     "--axis", axis, "--out", str(state)]) == 0
        assert main(["witness", str(state), "--all", "--out", str(report)]) == 0
        xi = json.loads(report.read_text())["witnesses"][0]
        assert xi["criterion"] == "xi_squared_s"
        if axis != "x":
            assert xi["boundary"] is True


@pytest.mark.parametrize("argv", [
    ["scenario", "--family", "ramsey", "--n", "4", "--theta0", "inf"],
    ["scenario", "--family", "ramsey", "--n", "4", "--theta0", "nan"],
    ["scenario", "--family", "ramsey", "--n", "8", "--rep", "full", "--theta0=-inf"],
    ["state", "--kind", "squeezed", "--n", "4", "--lam", "1e308"],
    ["state", "--kind", "squeezed", "--n", "4096", "--lam", "1e305"],
])
def test_cli_out_of_range_numbers_exit_one(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "s.json")] if argv[0] == "state" else []
    assert main(argv + out) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv,message", [
    # refused before any path runs, so NumPy warns of no invalid product;
    # 1e308 times the gradient's weights overflows
    (["scenario", "--family", "gradient", "--n", "4", "--theta0", "inf"],
     "rotation angle theta = inf: theta times ||A|| must be finite"),
    (["scenario", "--family", "gradient", "--n", "4", "--theta0", "1e308"],
     "rotation angle theta = 1e+308: theta times ||A|| must be finite"),
    # about 1e300 Taylor steps, refused before the first
    (["scenario", "--family", "ramsey", "--n", "4", "--theta0", "1e300"],
     "rotation angle theta = 1e+300 needs"),
], ids=["gradient-inf", "gradient-1e308", "ramsey-1e300"])
def test_cli_refuses_bad_rotation_angles_promptly(argv, message):
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qmetro.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert done.returncode == 1
    assert message in done.stderr
    assert "Warning" not in done.stderr and done.stdout == ""


def test_cli_selftest_small(capsys):
    assert main(["selftest", "--samples", "8"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("direction", ["0,0,0", "nan,0,1", "1,inf,0", "inf,0,0",
                                       "nan,nan,nan"])
def test_cli_qfi_rejects_zero_or_non_finite_direction(tmp_path, capsys, direction):
    path = tmp_path / "ghz.json"
    serialize.write_state(ghz(3), str(path))
    assert main(["qfi", str(path), "--generator", f"direction:{direction}"]) == 1
    captured = capsys.readouterr()
    assert "finite nonzero" in captured.err and "qfi =" not in captured.out


@pytest.mark.parametrize("direction,same_as", [
    ("1e200,1e200,0", "direction:1,1,0"),
    ("1e-200,1e-200,0", "direction:1,1,0"),
    ("3e-170,0,0", "axis:x"),
])
def test_cli_qfi_direction_of_any_finite_scale(tmp_path, direction, same_as):
    """Components whose norm overflows or underflows name the same axis."""
    path = tmp_path / "sq.json"
    serialize.write_state(squeezed_ground_state(SqueezingSpec(20, 3.0)), str(path))
    values = []
    for spec in (f"direction:{direction}", same_as):
        report = tmp_path / "r.json"
        assert main(["qfi", str(path), "--generator", spec, "--out", str(report)]) == 0
        values.append(json.loads(report.read_text())["qfi"])
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_cli_witness_names_unknown_criteria(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    serialize.write_state(ghz(3), str(path))
    assert main(["witness", str(path), "--criteria", "xi_s,ssii"]) == 1
    captured = capsys.readouterr()
    assert "'ssii'" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", ["noise", "frontier"])
def test_cli_sweep_needs_at_least_one_point(tmp_path, capsys, kind):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kind", kind, "--n", "8", "--n-list", "4", "--p", "0.25",
                 "--points", "0", "--out", str(out)]) == 1
    assert "--points" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("im,dtype", [
    ("0.0", np.float64), ("0", np.float64), ("0e0", np.float64), ("0.00", np.float64),
    ("-0.0", np.complex128), ("1e-3", np.complex128), ("-2.5e-4", np.complex128)])
def test_reader_real_parts_of_a_density_keep_every_imaginary_spelling(tmp_path, monkeypatch,
                                                                      im, dtype):
    """A density file of 9 qubits (three chunks) whose imaginary parts are all
    spelled 0.0 but for one Hermitian pair in its second chunk and one in its
    last rows: the chunks of 0.0 parse their real parts only, the others both
    parts, and the payload is bit for bit the json.loads fallback's (a +0.0
    spelled 0, 0e0 or 0.00 stays float64, -0.0 or a nonzero part promotes)."""
    neg = im[1:] if im.startswith("-") else "-" + im
    partner = "0.0" if dtype is np.float64 or im == "-0.0" else neg
    entries = {(300, 301): ("0.001", im), (301, 300): ("0.001", partner),
               (511, 510): ("0.0", im), (510, 511): ("0.0", partner)}
    text = _hand_written_density(9, entries)
    path = tmp_path / "hand.json"
    path.write_text(text)
    parsed, fromstring = [], np.fromstring

    def counted(*args, **kwargs):
        values = fromstring(*args, **kwargs)
        parsed.append(values.size)
        return values

    monkeypatch.setattr(np, "fromstring", counted)
    with open(path, "rb") as fh:
        payload = serialize._read_canonical(fh)[1]
    monkeypatch.undo()
    # numbers parsed: the real parts alone where every part is spelled 0.0
    if im == "0.0":
        assert sum(parsed) == 512 * 512
    else:
        assert 512 * 512 < sum(parsed) < 2 * 512 * 512
    fallback = serialize.state_from_dict(json.loads(text)).data
    assert payload.dtype == fallback.dtype == dtype
    assert np.array_equal(payload.view(np.uint64), fallback.view(np.uint64))


@pytest.mark.parametrize("entry", [("", "0.0"), ("0.0.0", "0.0"), ("1e", "0.0"),
                                   ("--1", "0.0"), ("0.1", ""), ("0.1", "0.0.0"),
                                   ("0.1", "0.0e")])
def test_reader_refuses_malformed_numbers_among_zero_imaginary_parts(tmp_path, entry):
    """A density whose other imaginary parts are all spelled 0.0, with one
    malformed real or imaginary token, is declined by the fast path, in its
    first row and its last, and refused by the reader."""
    for row in (0, 15):
        path = tmp_path / f"bad{row}.json"
        path.write_text(_hand_written_density(4, {(row, 3): entry}))
        with open(path, "rb") as fh:
            assert serialize._read_canonical(fh) is None, (entry, row)
        with pytest.raises(ValueError):
            serialize.read_state(str(path))
