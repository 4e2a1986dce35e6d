"""qmetro benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload symmetric --seed 1 --seconds 15 --trace 0

Run from a checkout root that holds ``src/qmetro``.  Every command runs as
``python -m qmetro.cli ...`` in its own process with ``PYTHONPATH=src``,
as users run it; wall time and peak RSS come from ``os.wait4``.  With
``--trace 1`` each command runs once untraced and then once through
``traced_cli.py`` (again a fresh process, with qmetro wrapped from
outside), and the per-layer metrics come from the recorded spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else a
run measured (environment, inputs, per-command times, spans) goes to
``.bench_out/``.  ``--write-benchmark-json`` regenerates BENCHMARK.json
from ``spec.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
# interpreter starts timed before the passes, then one after each command
# of a pass, then after the passes
SETUP_BEFORE, SETUP_AFTER = 2, 1
RUN_BUDGET_S = 170.0  # the whole run, so it exits within 180 s

# versions and the BLAS thread count in effect, read inside a workload process
ENV_PROBE = r"""
import ctypes, json, platform, numpy, scipy, qmetro
threads = None
try:
    libs = {l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads = getattr(lib, fn)()
except OSError:
    pass
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads_in_effect": threads,
                  "qmetro": qmetro.__version__}))
"""


class Runner:
    """Runs commands for one workload inside a scratch directory."""

    def __init__(self, workload: spec.Workload, workdir: Path, deadline: float,
                 references: dict):
        self.references = references
        self.workdir = workdir
        self.deadline = deadline
        self.threads = spec.thread_env(workload, spec.nproc())
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **self.threads)
        self.env.pop("PYTHONSTARTUP", None)

    def process(self, argv: list[str]) -> dict:
        """Run argv to completion; wall time, peak RSS and output."""
        timeout = max(1.0, self.deadline - time.monotonic())
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so that it never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(errors="replace"),
                "stderr": err_path.read_text(errors="replace")}

    def qmetro(self, cmd: spec.Command, spans: Path | None = None) -> dict:
        if spans is None:
            argv = [sys.executable, "-m", "qmetro.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *cmd.argv]
        res = self.process(argv)
        res.update(kind=cmd.kind, argv=list(cmd.argv), ok=True, error=None)
        try:
            check.check_command(cmd, res["rc"], res["stdout"], self.workdir,
                                 self.references)
        except (check.CheckError, OSError, ValueError, KeyError) as exc:
            tail = res["stderr"].strip().splitlines()[-1:] or [""]
            res.update(ok=False, error=f"{type(exc).__name__}: {exc} {tail[0]}".strip())
        del res["stdout"], res["stderr"]
        return res

    def run_pass(self, commands, setup: list[float]) -> dict:
        """Run the commands in order, timing one interpreter start into
        ``setup`` after each.  Commands left when the run's deadline has
        passed are not run; the pass lists them as ``unreached``."""
        results = []
        for i, cmd in enumerate(commands):
            results.append(self.qmetro(cmd))
            if time.monotonic() > self.deadline:
                return summarize(results, commands[i + 1:])
            setup += self.setup_times(1)
        return summarize(results)

    def run_paired(self, commands) -> tuple[dict, dict, list[Path]]:
        """Each command untraced and traced back to back, so that drift in
        machine speed falls on both sides of the overhead alike.  The order
        alternates, because the second run of a command finds its files and
        libraries already in the page cache."""
        plain, traced, spans, unreached = [], [], [], []
        for i, cmd in enumerate(commands):
            spans.append(self.workdir / f"spans-{i}.jsonl")
            if i % 2:
                traced.append(self.qmetro(cmd, spans[-1]))
                plain.append(self.qmetro(cmd))
            else:
                plain.append(self.qmetro(cmd))
                traced.append(self.qmetro(cmd, spans[-1]))
            if time.monotonic() > self.deadline:
                unreached = commands[i + 1:]
                break
        return (summarize(plain, unreached), summarize(traced, unreached),
                [p for p in spans if p.exists()])

    def setup_times(self, repeats: int) -> list[float]:
        argv = [sys.executable, "-c", "import qmetro"]
        return [self.process(argv)["wall_s"] for _ in range(repeats)]


def summarize(results: list[dict], unreached=()) -> dict:
    """Totals of one pass.  ``unreached`` commands count as failed ops."""
    by_kind: dict[str, float] = {}
    for r in results:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0.0) + r["wall_s"]
    return {"commands": results,
            "unreached": [list(cmd.argv) for cmd in unreached],
            "wall_s": sum(r["wall_s"] for r in results),
            "by_kind": by_kind,
            "peak_rss_mb": max(r["rss_mb"] for r in results)}


def environment(runner: Runner, seed: int) -> dict:
    res = runner.process([sys.executable, "-c", ENV_PROBE])
    info = json.loads(res["stdout"]) if res["rc"] == 0 else {"error": res["stderr"][-300:]}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmetro").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    info.update(nproc=spec.nproc(), seed=seed, git_commit=commit,
                src_sha256=digest.hexdigest(), threads=runner.threads)
    return info


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Medians over passes of the end-to-end timings, with sample counts."""
    def med(values):
        return {"value": statistics.median(values), "samples": len(values),
                "stat": "median"}

    out = {"setup_s": med(setup), "wall_s": med([p["wall_s"] for p in passes])}
    kinds = {"state": "state_s", "witness": "witness_s", "frontier": "frontier_s",
             "scenario": "scenario_s", "noise_sweep": "noise_sweep_s",
             "selftest": "selftest_s"}
    for kind, name in kinds.items():
        values = [p["by_kind"][kind] for p in passes if kind in p["by_kind"]]
        if values:
            out[name] = med(values)
    out["peak_rss_mb"] = {"value": max(p["peak_rss_mb"] for p in passes),
                          "samples": len(passes), "stat": "max"}
    return out


def per_layer(span_files: list[Path], traced_wall: float, untraced_wall: float) -> dict:
    """Every spec.PER_LAYER metric from the spans of one traced pass.
    ``us_per_call`` is the mean inclusive duration of one call."""
    totals: dict[str, dict] = {}
    for path in span_files:
        for name, t in tracer.layer_totals(tracer.read_jsonl(path)).items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
    out = {}
    for m in spec.PER_LAYER:
        if m.name == "trace.overhead_s":
            out[m.name] = traced_wall - untraced_wall
            continue
        if m.name == "spin.op_bytes_computed":
            out[m.name] = totals.get("spin.collective_op", {}).get("bytes", 0)
            continue
        layer, _, field = m.name.rpartition(".")
        t = totals.get(layer, {})
        if field == "us_per_call":
            out[m.name] = 1e6 * t["total_s"] / t["calls"] if t.get("calls") else 0.0
        else:
            out[m.name] = t.get(field, 0)
    return out


def measure(workload: spec.Workload, seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    start = time.monotonic()
    rng = random.Random(seed)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workload, workdir, start + RUN_BUDGET_S, references)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    try:
        record["environment"] = environment(runner, seed)  # also warms bytecode
        passes = []
        if trace:
            plain, traced, span_files = runner.run_paired(workload.build(rng))
            passes += [plain, traced]
            record["per_layer"] = per_layer(span_files, traced["wall_s"],
                                            plain["wall_s"])
            _save_spans(span_files, workload.name, seed)
        else:
            # set-up is sampled before, between and after the commands, so
            # that a burst of machine load moves only a few of the samples
            setup = runner.setup_times(SETUP_BEFORE)
            # whole passes until `seconds` have elapsed; stop early only if
            # another pass would overrun the run's deadline
            t0 = time.monotonic()
            while True:
                passes.append(runner.run_pass(workload.build(rng), setup))
                now = time.monotonic()
                if (now - t0 >= seconds
                        or now + (now - t0) / len(passes) > runner.deadline - 15):
                    break
            record["setup_s"] = setup + runner.setup_times(SETUP_AFTER)
            record["end_to_end"] = end_to_end(passes, record["setup_s"])
        record["passes"] = passes
        record["probe"] = runner.qmetro(spec.PROBE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def _save_spans(span_files, workload, seed):
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for i, path in enumerate(span_files):
            for span in tracer.read_jsonl(path):
                fh.write(json.dumps(dict(span, command=i)) + "\n")


def _moves(pairs) -> str:
    return "moves " + ", ".join(f"{e}@{w}" for e, w in pairs) if pairs else ""


def report(record: dict) -> dict:
    """Print the metric table; return the result object printed last."""
    commands = [c for p in record["passes"] for c in p["commands"]]
    failed = [c for c in commands if not c["ok"]]
    unreached = [argv for p in record["passes"] for argv in p["unreached"]]
    probe = record["probe"]
    w = record["workload"]
    print(f"# qmetro benchmark: workload={w} seed={record['seed']} "
          f"trace={record['trace']} passes={len(record['passes'])}")
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")
    for c in failed:
        print(f"# FAILED {' '.join(c['argv'])}: {c['error']}")
    for argv in unreached:
        print(f"# FAILED {' '.join(argv)}: not run before the run's deadline")
    print(f"# probe {' '.join(probe['argv'])}: "
          f"{'ok' if probe['ok'] else 'FAILED ' + str(probe['error'])}")
    catalogue = {m.name: m for m in spec.END_TO_END + spec.PER_LAYER}
    metrics = {}
    if record["trace"]:
        rows = [(name, value, _moves(catalogue[name].moves))
                for name, value in record["per_layer"].items()]
        record["layer_map"] = {m.name: {"layer": m.layer, "moves": m.moves}
                               for m in spec.PER_LAYER}
    else:
        rows = [(name, v["value"], f"({v['stat']} of {v['samples']})")
                for name, v in record["end_to_end"].items()]
    for name, value, note in rows:
        m = catalogue[name]
        shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
        print(f"{w:10s} {name:46s} {shown} {m.unit:5s} {note}".rstrip())
        if m.listed:
            metrics[name] = {"value": value, "unit": m.unit}
    ops = len(commands) + len(unreached) + 1
    failed_ops = len(failed) + len(unreached) + (0 if probe["ok"] else 1)
    print(f"{w:10s} {'failed_ops':46s} {failed_ops:16d} count (of ops={ops}, "
          f"including the advertised-size probe)")
    record["counters"] = {"ops": ops, "failed_ops": failed_ops,
                          "passes": len(record["passes"])}
    return {"correct": not (failed or unreached),
            "attempted": len(commands) + len(unreached),
            "failed": len(failed) + len(unreached), "metrics": metrics}


def write_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"],
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "qmetro" / "cli.py").is_file():
        print(f"perfbench: no qmetro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        references = json.load(fh)
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    for workload in names:
        record = measure(spec.WORKLOADS[workload], args.seed, args.seconds,
                         bool(args.trace), references)
        result = report(record)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps(dict(record, result=result), indent=1) + "\n")
        print(f"# full record: .bench_out/{name}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
