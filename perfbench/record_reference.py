"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs, through the CLI, every command that any seed can draw (each input
set in ``spec.py`` is enumerated), extracts each output with the same code
``check.py`` uses, and writes ``perfbench/reference.json``.  Run it only
on a commit whose outputs are trusted; the benchmark never rewrites it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spec  # noqa: E402
from run import ROOT, SRC, Runner  # noqa: E402


class Picks:
    """Stands in for random.Random: choice() returns the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def choice(self, seq):
        value = self.values.pop(0)
        if value not in seq:
            raise ValueError(f"{value!r} is not a drawable input")
        return value

    def randrange(self, lo, hi):
        return lo


def drawn_passes():
    """(workload, commands) for every value each workload can draw."""
    for lam in spec.SYM_LAMBDAS:
        yield "symmetric", spec.WORKLOADS["symmetric"].build(Picks(lam))
    for p, lam in zip(spec.MIXED_PURITIES, spec.FULL_LAMBDAS, strict=True):
        yield "full", spec.WORKLOADS["full"].build(Picks(p, lam))
    yield "battery", spec.WORKLOADS["battery"].build(Picks())


def frontier_polarizations(n: int, points: int) -> list[float]:
    sys.path.insert(0, str(SRC))
    from qmetro.metrology import frontier_lambda_grid, squeezing_frontier
    rows = squeezing_frontier(n, frontier_lambda_grid(n, points))
    return [r.polarization for r in sorted(rows, key=lambda r: r.lam)]


def ghz_reference(n: int) -> dict:
    """GHZ along x: <J_z> = 0 and <J_z^2> = N/4, because the two branches
    differ in every spin and J_z^2 flips at most two."""
    return {"header": {"format": "qmetro-state/1", "kind": "pure",
                       "label": f"ghz_x({n})", "n_qubits": n,
                       "representation": "symmetric"},
            "signature": [1.0, 0.0, n / 4.0, 1.0]}


def main() -> int:
    refs = {}
    work = ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name, commands in drawn_passes():
            runner = Runner(spec.WORKLOADS[name], work, time.monotonic() + 3600, refs)
            for cmd in commands:
                if cmd.ref is None or cmd.ref in refs:
                    continue
                res = runner.process([sys.executable, "-m", "qmetro.cli", *cmd.argv])
                if res["rc"] != 0:
                    raise SystemExit(f"{' '.join(cmd.argv)} failed:\n{res['stderr']}")
                record = check.EXTRACT[cmd.check](work / cmd.out)
                if cmd.check == "frontier":
                    record = {"rows": record,
                              "polarization": frontier_polarizations(1000, 64)}
                elif cmd.check == "noise":
                    record = {"rows": record}
                refs[cmd.ref] = record
                print(f"recorded {cmd.ref}", flush=True)
        # the analytic GHZ signature, confirmed at an N the CLI builds today
        probe_small = spec._state("ghz", 60, "ghz60.json")
        runner.process([sys.executable, "-m", "qmetro.cli", *probe_small.argv])
        check.check_state(check.state_record(work / "ghz60.json"), ghz_reference(60))
        refs[spec.PROBE.ref] = ghz_reference(1000)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(refs)} references)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
