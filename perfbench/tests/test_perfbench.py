"""Tests of the benchmark's own machinery (not of qmetro).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402


def _span(sid, name, start, end, parent=None, thread=1):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "thread": thread}


def test_self_time_nested_and_multithread():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "metrology.squeezing_frontier", 1.0, 9.0, parent=0),
        # two pool threads, overlapping in [3, 5]; the union is [2, 7]
        _span(2, "states.squeezed_ground_state", 2.0, 5.0, parent=1, thread=2),
        _span(3, "states.squeezed_ground_state", 3.0, 7.0, parent=1, thread=3),
        # nested inside span 3 on its own thread
        _span(4, "states.QuantumState.init", 6.0, 6.5, parent=3, thread=3),
        # a child running past its parent's end is clipped to the parent
        _span(5, "serialize.write_sweep_csv", 8.5, 9.5, parent=1),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 8.0)
    assert selfs[1] == pytest.approx(8.0 - 5.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)
    totals = tracer.layer_totals(spans)
    sgs = totals["states.squeezed_ground_state"]
    assert sgs["calls"] == 2
    assert sgs["total_s"] == pytest.approx(7.0)
    assert sgs["busy_s"] == pytest.approx(5.0)
    assert sgs["self_s"] == pytest.approx(6.5)


def test_covered_length_merges_touching_and_disjoint():
    assert tracer.covered_length([]) == 0.0
    assert tracer.covered_length([(0, 1), (1, 2), (3, 4), (0.5, 0.7)]) == pytest.approx(3.0)


def test_pool_thread_spans_take_the_main_thread_parent():
    t = tracer.Tracer(names=())
    outer = t.wrap("outer", lambda: worker_run())
    inner = t.wrap("inner", lambda: None)

    def worker_run():
        th = threading.Thread(target=inner)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()

    outer()
    by_name = {s["name"]: s for s in t.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["thread"] != by_name["outer"]["thread"]


def _frontier_rows():
    refs = json.loads((BENCH / "reference.json").read_text())
    return refs, refs["sweep/frontier-1000"]["rows"]


def _write_csv(path, rows):
    def fmt(v):
        return v if isinstance(v, str) else repr(v)
    path.write_text("\n".join(",".join(fmt(v) for v in row) for row in rows) + "\n")


FRONTIER = spec.WORKLOADS["symmetric"].build(random.Random(0))[-1]


def test_check_accepts_reference_frontier(tmp_path):
    refs, rows = _frontier_rows()
    _write_csv(tmp_path / FRONTIER.out, rows)
    check.check_command(FRONTIER, 0, "", tmp_path, refs)


def test_check_rejects_perturbed_frontier(tmp_path):
    refs, rows = _frontier_rows()
    rows = [list(r) for r in rows]
    col = rows[0].index("precision_inv")
    rows[10][col] *= 1 + 1e-4
    _write_csv(tmp_path / FRONTIER.out, rows)
    with pytest.raises(check.CheckError, match="precision_inv"):
        check.check_command(FRONTIER, 0, "", tmp_path, refs)


def test_check_rejects_nonzero_exit(tmp_path):
    refs, rows = _frontier_rows()
    _write_csv(tmp_path / FRONTIER.out, rows)
    with pytest.raises(check.CheckError, match="exit code 2"):
        check.check_command(FRONTIER, 2, "", tmp_path, refs)


def test_compare_tolerates_roundoff_but_not_verdicts():
    ref = {"value": 0.25, "verdict": "violated", "depth": 3, "zero": 1e-16,
           "detail": "bound N*xi^2 = 3.08e-15"}
    ok = {"value": 0.25 * (1 + 1e-9), "verdict": "violated", "depth": 3,
          "zero": -4e-15, "detail": "bound N*xi^2 = 1.2e-16"}
    check.compare(ok, ref)
    for key, bad in (("verdict", "satisfied"), ("depth", 4), ("value", 0.2501)):
        with pytest.raises(check.CheckError):
            check.compare(dict(ok, **{key: bad}), ref)


def test_traced_run_restores_every_function(tmp_path, monkeypatch):
    import qmetro.cli
    modules = tracer._qmetro_modules()
    before = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    init = modules["qmetro.states"].QuantumState.__dict__["__post_init__"]

    monkeypatch.chdir(tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert qmetro.cli.qfi is not before[("qmetro.cli", "qfi")]
        assert qmetro.cli.main(["state", "--kind", "ghz", "--n", "4", "--out", "g.json"]) == 0
        assert qmetro.cli.main(["witness", "g.json", "--all"]) == 0
    finally:
        t.uninstall()

    after = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert modules["qmetro.states"].QuantumState.__dict__["__post_init__"] is init
    names = {s["name"] for s in t.spans}
    assert {"fisher.qfi", "witnesses.moments", "serialize.read_state",
            "states.QuantumState.init"} <= names


def test_benchmark_json_matches_spec():
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert written == spec.benchmark_json()
    names = [m["name"] for m in written["end_to_end"] + written["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in written["end_to_end"])


def _shrink(argv):
    """The same command at a size that runs in about a second."""
    small = {"--n": lambda v: str(min(int(v), 6)), "--n-list": lambda v: "4,6",
             "--points": lambda v: "3", "--samples": lambda v: "3"}
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg in small:
            out[i + 1] = small[arg](out[i + 1])
    return out


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_listed_layer_metrics_are_nonzero_on_every_workload(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **spec.thread_env(spec.WORKLOADS[name], spec.nproc()))
    span_files = []
    for i, cmd in enumerate(spec.WORKLOADS[name].build(random.Random(0))):
        span_files.append(tmp_path / f"spans-{i}.jsonl")
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(span_files[-1]),
                *_shrink(cmd.argv)]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
    values = run.per_layer(span_files, traced_wall=2.0, untraced_wall=1.0)
    zero = [m.name for m in spec.PER_LAYER if m.listed and not values[m.name] > 0]
    assert zero == []


def test_unreached_commands_are_failed_ops(capsys):
    done, left = spec.WORKLOADS["battery"].build(random.Random(0))[:2]
    ran = {"kind": done.kind, "argv": list(done.argv), "ok": True, "error": None,
           "wall_s": 1.0, "rss_mb": 50.0, "rc": 0}
    probe = dict(ran, argv=list(spec.PROBE.argv))
    record = {"workload": "battery", "seed": 1, "trace": 0, "environment": {},
              "passes": [run.summarize([ran], [left])], "probe": probe,
              "end_to_end": run.end_to_end([run.summarize([ran])], [0.5])}
    result = run.report(record)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "not run before the run's deadline" in capsys.readouterr().out
