import json

import numpy as np
import pytest

from qmetro import serialize
from qmetro.cli import main, parse_int_list, parse_range
from qmetro.spin import full_rep, symmetric_rep
from qmetro.states import dicke, ghz, singlet_pi


# ------------------------------------------------- state files

def test_state_roundtrip_bytes(tmp_path):
    path = tmp_path / "ghz.json"
    serialize.write_state(ghz(4), str(path))
    first = path.read_bytes()
    state = serialize.read_state(str(path))
    serialize.write_state(state, str(path))
    assert path.read_bytes() == first


def test_density_roundtrip(tmp_path):
    path = tmp_path / "singlet.json"
    st = singlet_pi(4)
    serialize.write_state(st, str(path))
    back = serialize.read_state(str(path))
    assert not back.is_pure
    assert np.abs(back.data - st.data).max() <= 1e-15
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


def test_csv_formatting():
    from qmetro.metrology import SweepRecord
    rec = SweepRecord(scenario="s", n=4, p=0.25, lam=1 / 3, theta0=0.0,
                      precision_inv=np.pi, qfi=1.0, bound_sep=4.0,
                      bound_bisep=10.0, bound_heisenberg=16.0)
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


def test_cli_witness_all_takes_qfi_per_axis_from_avg(tmp_path, monkeypatch):
    import qmetro.cli
    import qmetro.witnesses
    state = tmp_path / "mixed.json"
    assert main(["state", "--kind", "mixed", "--n", "4", "--rep", "full",
                 "--axis", "z", "--p", "0.7", "--out", str(state)]) == 0
    calls = []
    original = qmetro.witnesses.qfi

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qmetro.cli, qmetro.witnesses):
        monkeypatch.setattr(module, "qfi", counted)

    def report(*criteria):
        path = tmp_path / "w.json"
        assert main(["witness", str(state), *criteria, "--out", str(path)]) == 0
        return path.read_bytes()

    written = report("--all")
    assert len(calls) == 3  # avg_qfi's three axes serve the qfi criterion too
    # the former --all report: the qfi criterion evaluated on its own
    moment_side = json.loads(report("--criteria", "xi_s,xi_os,xi_singlet,ssi,qfi"))
    assert len(calls) == 6
    fisher_side = json.loads(report("--criteria", "avg,macro"))
    expected = {"inputs": {"state": str(state)}, "n_qubits": 4,
                "qfi_per_axis": moment_side["qfi_per_axis"],
                "depth_certificate": moment_side["depth_certificate"],
                "avg_qfi": fisher_side["avg_qfi"],
                "effective_size": fisher_side["effective_size"],
                "witnesses": moment_side["witnesses"]}
    serialize.write_report(expected, str(tmp_path / "expected.json"))
    assert written == (tmp_path / "expected.json").read_bytes()


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


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["state", "--kind", "nope", "--n", "4", "--out", "x.json"]) == 1
    assert main(["qfi", str(tmp_path / "missing.json")]) == 1
    assert main(["sweep", "--kind", "noise", "--n-list", "", "--p", "0.1",
                 "--out", str(tmp_path / "s.csv")]) == 1


def test_cli_selftest_small(capsys):
    assert main(["selftest", "--samples", "8"]) == 0
    assert "PASS" in capsys.readouterr().out
