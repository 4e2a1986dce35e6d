"""What the benchmark runs and what it reports.

Each workload is a sequence of qmetro CLI commands with fixed thread
settings.  The seed draws the free inputs (squeezing weight, purity,
selftest seed) from the finite sets below, so every drawn input has a
reference recorded in ``reference.json``.  The metric catalogue says, for
every per-layer metric, which end-to-end metric and workload it should
move; ``BENCHMARK.json`` is generated from this file.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Seeded input sets.  Every value keeps the squeezing Hamiltonian's ground
# state well separated (gap > 8 at N=10, > 90 at N=1000), so references
# are stable to round-off.
SYM_LAMBDAS = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
FULL_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)
MIXED_PURITIES = (0.5, 0.6, 0.7, 0.8, 0.9)
SELFTEST_SAMPLES = 100

# Whole passes run until this many seconds have passed: on a 2-vCPU VM one
# pass of symmetric (20-28 s) or full (34-48 s), two of battery.  Passes within
# a run agree to a few percent; the run-to-run spread comes from slower
# drift in machine speed, which more passes per run would not remove.
RUN_SECONDS = 15


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``qmetro <argv>``, its kind and its output check.

    ``check`` names the checker in ``check.py``; ``ref`` is the key of the
    recorded reference; ``out`` is the file the command writes, if any.
    """

    kind: str
    argv: tuple
    check: str
    ref: str | None = None
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    qmetro_threads: int
    blas_threads: int
    build: object = field(repr=False)  # rng -> list[Command]


def _state(kind, n, out, *extra, ref=None):
    return Command("state", ("state", "--kind", kind, "--n", str(n), *extra,
                             "--out", out), "state", ref, out)


def _witness(src, out, ref):
    return Command("witness", ("witness", src, "--all", "--out", out),
                   "report", ref, out)


def _symmetric(rng: random.Random) -> list[Command]:
    lam = rng.choice(SYM_LAMBDAS)
    return [
        _state("squeezed", 1000, "sq.json", "--lam", f"{lam:g}",
               ref=f"state/squeezed-1000-{lam:g}"),
        _witness("sq.json", "sq_w.json", f"witness/squeezed-1000-{lam:g}"),
        Command("scenario", ("scenario", "--family", "dicke", "--n", "1000",
                             "--theta0", "0.01", "--out", "dicke.json"),
                "report", "scenario/dicke-1000", "dicke.json"),
        Command("frontier", ("sweep", "--kind", "frontier", "--n", "1000",
                             "--points", "64", "--out", "frontier.csv"),
                "frontier", "sweep/frontier-1000", "frontier.csv"),
    ]


def _full(rng: random.Random) -> list[Command]:
    p = rng.choice(MIXED_PURITIES)
    lam = rng.choice(FULL_LAMBDAS)
    return [
        _state("mixed", 10, "mixed.json", "--rep", "full", "--p", f"{p:g}",
               ref=f"state/mixed-10-{p:g}"),
        _state("squeezed", 10, "sqf.json", "--lam", f"{lam:g}", "--rep", "full",
               ref=f"state/squeezed-full-10-{lam:g}"),
        _witness("mixed.json", "mixed_w.json", f"witness/mixed-10-{p:g}"),
        _witness("sqf.json", "sqf_w.json", f"witness/squeezed-full-10-{lam:g}"),
        Command("noise_sweep", ("sweep", "--kind", "noise", "--p", "0.25",
                                "--n-list", "4,6,8,10", "--points", "16",
                                "--out", "noise.csv"),
                "noise", "sweep/noise-0.25", "noise.csv"),
    ]


def _battery(rng: random.Random) -> list[Command]:
    seed = rng.randrange(1, 1_000_000)
    return [
        Command("selftest", ("selftest", "--seed", str(seed),
                             "--samples", str(SELFTEST_SAMPLES)), "selftest"),
        _state("singlet", 8, "singlet.json", "--rep", "full", ref="state/singlet-8"),
        _witness("singlet.json", "singlet_w.json", "witness/singlet-8"),
        Command("scenario", ("scenario", "--family", "gradient", "--n", "8",
                             "--theta0", "0.1", "--out", "gradient.json"),
                "report", "scenario/gradient-8", "gradient.json"),
    ]


# Thread settings are part of each workload: pool workers x BLAS threads
# stays within nproc (tuned on a 2-vCPU VM).  symmetric runs the frontier pool
# with 2 workers on single-threaded BLAS, the faster frontier setting and
# the one that exercises the pool; full has no pool work and gives BLAS both
# cores (its witnesses take 14 s instead of 26 s on one); battery's matrices
# are at most 16x16, where BLAS threads only add noise.  BLAS threads spin
# while waiting, so these settings assume nothing else runs alongside: with
# a second benchmark process competing, one full pass took 78 s, not 31 s.
WORKLOADS = {
    "symmetric": Workload(
        "symmetric",
        "Dicke-sector pipeline at N=1000: dense (N+1)^2 operators, squeezing "
        "eigh, rotate and moments dominate; no noise, no 2^N work",
        qmetro_threads=2, blas_threads=1, build=_symmetric),
    "full": Workload(
        "full",
        "2^N space at N=10: per-qubit noise on 1024^2 densities, repeated "
        "eigensolves of one mixed state and 15 MB JSON parsing dominate",
        qmetro_threads=1, blas_threads=2, build=_full),
    "battery": Workload(
        "battery",
        "thousands of Fisher/linalg calls on 2..16-dim matrices: per-call "
        "Python overhead, not LAPACK, sets the time",
        qmetro_threads=1, blas_threads=1, build=_battery),
}

# Untimed probe of a size the README advertises (symmetric N <= 4096) at
# the GHZ default axis x.  It is reported as failed while it fails.
PROBE = _state("ghz", 1000, "ghz.json", ref="state/ghz-1000")


def thread_env(workload: Workload, nproc: int) -> dict:
    """Thread variables for the workload, capped so workers x BLAS <= nproc."""
    blas = max(1, min(workload.blas_threads, nproc))
    workers = max(1, min(workload.qmetro_threads, nproc // blas))
    env = {"QMETRO_THREADS": str(workers)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# metric catalogue
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """A reported metric.  ``listed`` metrics go into BENCHMARK.json, whose
    format requires every listed metric on every workload and never 0: a
    count or time that is 0 on some workload, or a time from a command
    kind a workload lacks, is printed and recorded but not listed.
    ``moves`` is printed beside each per-layer value and kept in the run's
    record."""

    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None       # end-to-end only
    layer: str = "end_to_end"
    moves: tuple = ()                # (end-to-end metric, workload) pairs
    listed: bool = True


def _e2e(name, unit, bound=None, listed=True):
    return Metric(name, unit, "lower", bound, listed=listed)


# Bounds: on a shared 2-vCPU VM (Python 3.11, NumPy 2.4, OpenBLAS 0.3.31)
# speed drifted between phases minutes long that differed by up to ~50%.
# Ten-seed spreads (IQR/median) measured 0.06-0.20 for the times, 0.07-0.13
# for setup_s and at most 0.003 for peak RSS; an earlier series reached 0.31
# on battery when a phase change fell inside the ten runs.  So the times get
# the largest bound the format allows.
END_TO_END = (
    _e2e("setup_s", "s", 0.25),
    _e2e("wall_s", "s", 0.25),
    _e2e("witness_s", "s", 0.25),
    _e2e("peak_rss_mb", "MB", 0.05),
    # on symmetric and battery state_s is one interpreter start plus a few
    # milliseconds, so it repeats setup_s with more noise; it is reported,
    # not gated
    _e2e("state_s", "s", listed=False),
    # present only on workloads with a command of that kind
    _e2e("frontier_s", "s", listed=False),
    _e2e("scenario_s", "s", listed=False),
    _e2e("noise_sweep_s", "s", listed=False),
    _e2e("selftest_s", "s", listed=False),
)

ALL = ("symmetric", "full", "battery")


def _layer(name, unit, layer, moves, listed=True):
    return Metric(name, unit, "lower", None, layer, tuple(moves), listed)


def _calls(fn, layer, moves, listed=True):
    return _layer(f"{fn}.calls", "count", layer, moves, listed)


PER_LAYER = (
    # states: the squeezing eigensolve and the frontier around it
    # battery builds no squeezed state
    _calls("states.squeezed_ground_state", "states", [("frontier_s", "symmetric")],
           listed=False),
    _layer("states.squeezed_ground_state.self_s", "s", "states",
           [("frontier_s", "symmetric"), ("wall_s", "full")], listed=False),
    _layer("states.squeezed_ground_state.busy_s", "s", "states",
           [("frontier_s", "symmetric"), ("wall_s", "full")], listed=False),
    _layer("metrology.squeezing_frontier.self_s", "s", "states",
           [("frontier_s", "symmetric")], listed=False),
    _layer("metrology.frontier_lambda_grid.self_s", "s", "states",
           [("frontier_s", "symmetric")], listed=False),
    # linalg/states: rotations in scenarios (full runs no scenario)
    _calls("states.rotate", "linalg", [("scenario_s", "symmetric")], listed=False),
    _layer("states.rotate.self_s", "s", "linalg",
           [("scenario_s", "symmetric")], listed=False),
    _calls("linalg.unitary_exp", "linalg", [("scenario_s", "symmetric")],
           listed=False),
    _layer("linalg.unitary_exp.self_s", "s", "linalg",
           [("scenario_s", "symmetric")], listed=False),
    _layer("metrology.error_propagation.self_s", "s", "metrology",
           [("scenario_s", "symmetric")], listed=False),
    # witnesses/fisher
    _calls("witnesses.moments", "witnesses", [("witness_s", "symmetric"), ("witness_s", "full")]),
    _layer("witnesses.moments.self_s", "s", "witnesses",
           [("witness_s", "symmetric"), ("witness_s", "full")]),
    _calls("fisher.fisher_matrix", "fisher", [("witness_s", "symmetric"), ("witness_s", "full")]),
    _layer("fisher.fisher_matrix.self_s", "s", "fisher",
           [("witness_s", "symmetric"), ("witness_s", "full")]),
    _layer("witnesses.avg_qfi.self_s", "s", "witnesses",
           [("witness_s", "symmetric"), ("witness_s", "full")]),
    _layer("witnesses.macroscopicity.self_s", "s", "witnesses",
           [("witness_s", "symmetric"), ("witness_s", "full")]),
    # linalg/fisher: eigensolves
    _calls("linalg.eigh_hermitian", "linalg", [("witness_s", "full")]),
    _layer("linalg.eigh_hermitian.self_s", "s", "linalg", [("witness_s", "full")]),
    _calls("fisher.qfi", "fisher", [("witness_s", "full"), ("selftest_s", "battery")]),
    _layer("fisher.qfi.self_s", "s", "fisher", [("witness_s", "full")]),
    _layer("fisher.qfi.us_per_call", "us", "fisher", [("selftest_s", "battery")]),
    # metrology: noise (only full runs the noise sweep)
    _calls("metrology.apply_noise", "metrology", [("noise_sweep_s", "full")],
           listed=False),
    _layer("metrology.apply_noise.self_s", "s", "metrology",
           [("noise_sweep_s", "full")], listed=False),
    _layer("states.to_full.self_s", "s", "states", [("noise_sweep_s", "full")], listed=False),
    _layer("metrology.noisy_scaling_sweep.self_s", "s", "metrology",
           [("noise_sweep_s", "full")], listed=False),
    # spin/states: operators and state validation
    _calls("spin.collective_op", "spin", [("noise_sweep_s", "full"), ("peak_rss_mb", "full")]),
    _layer("spin.collective_op.self_s", "s", "spin",
           [("noise_sweep_s", "full"), ("peak_rss_mb", "full")]),
    _calls("states.QuantumState.init", "states", [("noise_sweep_s", "full")]),
    _layer("states.QuantumState.init.self_s", "s", "states",
           [("noise_sweep_s", "full"), ("peak_rss_mb", "full")]),
    _layer("states.QuantumState.init.busy_s", "s", "states", [("frontier_s", "symmetric")]),
    _layer("spin.op_bytes_computed", "B", "spin",
           [("noise_sweep_s", "full"), ("peak_rss_mb", "full")]),
    # serialize
    _layer("serialize.read_state.self_s", "s", "serialize", [("witness_s", "full")]),
    _layer("serialize.read_state.bytes", "B", "serialize", [("witness_s", "full")]),
    _layer("serialize.write_state.self_s", "s", "serialize", [("state_s", "full")]),
    _layer("serialize.write_state.bytes", "B", "serialize", [("state_s", "full")]),
    _layer("serialize.write_sweep_csv.self_s", "s", "serialize",
           [("frontier_s", "symmetric"), ("noise_sweep_s", "full")], listed=False),
    # selftest
    _layer("selftest.qfi_property_battery.self_s", "s", "selftest",
           [("selftest_s", "battery")], listed=False),
    _layer("selftest.witness_soundness_battery.self_s", "s", "selftest",
           [("selftest_s", "battery")], listed=False),
    # cli
    _layer("cli.main.self_s", "s", "cli", [("wall_s", w) for w in ALL]),
    # traced minus untraced wall_s: the cost of the tracer itself
    _layer("trace.overhead_s", "s", "trace", []),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json.

    Its schema admits only name/unit/better(/bound).  Metrics not listed,
    and each per-layer metric's ``layer`` and ``moves``, are printed and
    kept in each run's record.
    """
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END if m.listed],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER if m.listed],
    }
