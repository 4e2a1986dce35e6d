"""Peak memory of the CLI at the advertised size limits.

Symmetric states up to N = 4096 and full vectors up to N = 12 are pure, so
their collective operators are applied, never stored: each command below
stays under 200 MB (a dense 4096 x 4096 operator alone is 268 MB).

Full densities go up to N = 10 (1024 x 1024).  A real one (white-noise
GHZ, the singlet) is parsed straight into an 8 MB float64 payload, a
complex one held in 16 MB.  They meet J_x and J_y through real factors,
one dense factor at a time, and J_z through its diagonal, and are read,
checked, eigendecomposed and contracted in blocks of rows.  The
odd-parity indices of a mixed N = 10 state are uncoupled, so LAPACK sees
a 512^2 block and its spectrum is kept as that block's eigenvectors: its
``witness --all`` holds the payload, one real factor, the block and a
few MB more, under 64 MB (59 MB here).  A singlet's indices are all but
three coupled by round-off, so its block is nearly the whole matrix.
Building the singlet (a dense projector product) and its witnesses stay
under 90 MB (85 MB here), building and writing the mixed state under
60 MB.

The SLD of a mixed N = 10 state is a complex 1024^2 matrix.  Printed
without a report it is dropped after its trace check: ``qfi --wy --sld
--zeno`` stays under 150 MB (137 MB here, 265 MB when every run turned it
into nested Python lists).  A report written with ``--out`` keeps the array
and streams its [re, im] pairs to the file one row at a time: under 150 MB
too (265 MB with the whole array as nested lists, 557 MB with the whole
text in memory).

The gradient scenario at N = 10 rotates the float64 singlet by the
gradient's product of 2x2 rotations, with no 2^N generator spectrum and
no dense propagator: under 130 MB (181 MB with both).

Squeezed ground states come from NumPy alone, so building one at N = 4096
or a 64-point frontier at N = 1000 stays under 45 MB; importing
``scipy.linalg`` alone would add 26 MB.

Each command runs in its own process, and its peak RSS is ``ru_maxrss``
from ``os.wait4``.  A small launcher process starts it: Linux carries the
parent's peak RSS over fork and exec into the child's ``ru_maxrss``, so a
child started straight from the test process would report at least the
test process's own size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmetro
from qmetro.serialize import write_state
from qmetro.spin import full_rep
from qmetro.states import (SqueezingSpec, ghz, mix_white_noise, singlet_pi,
                           squeezed_ground_state)

LIMIT_MB = 200
DENSITY_LIMIT_MB = 64
SINGLET_LIMIT_MB = 90
MIXED_STATE_LIMIT_MB = 60
GRADIENT_LIMIT_MB = 130
SLD_LIMIT_MB = 150
SLD_REPORT_LIMIT_MB = 150
# squeezed ground states take NumPy alone (no SciPy import): 31-35 MB here
SQUEEZING_LIMIT_MB = 45

_LAUNCHER = """
import json, os, subprocess, sys
p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(p.pid, 0)
print(json.dumps({"status": status, "maxrss_kb": usage.ru_maxrss}))
"""


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    root = tmp_path_factory.mktemp("limits")
    write_state(squeezed_ground_state(SqueezingSpec(4096, 100.0)), str(root / "sq4096.json"))
    write_state(ghz(12, full_rep(12)), str(root / "ghz12.json"))
    write_state(mix_white_noise(ghz(10, full_rep(10)), 0.6), str(root / "mixed10.json"))
    write_state(singlet_pi(10), str(root / "singlet10.json"))
    return root


def _peak_rss_mb(argv, cwd) -> float:
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-m",
                          "qmetro.cli", *argv], cwd=cwd, env=env, check=True,
                         capture_output=True, text=True).stdout
    rec = json.loads(out)
    assert rec["status"] == 0, argv
    return rec["maxrss_kb"] / 1024.0


@pytest.mark.parametrize("argv,limit", [
    (["witness", "sq4096.json", "--all"], LIMIT_MB),
    (["sweep", "--kind", "frontier", "--n", "4096", "--points", "4", "--out", "f.csv"], LIMIT_MB),
    (["qfi", "ghz12.json"], LIMIT_MB),
    (["witness", "ghz12.json", "--all"], LIMIT_MB),
    (["witness", "mixed10.json", "--all"], DENSITY_LIMIT_MB),
    (["witness", "singlet10.json", "--all"], SINGLET_LIMIT_MB),
    (["state", "--kind", "mixed", "--n", "10", "--rep", "full", "--p", "0.6", "--out", "m.json"],
     MIXED_STATE_LIMIT_MB),
    (["state", "--kind", "singlet", "--n", "10", "--rep", "full", "--out", "sg.json"],
     SINGLET_LIMIT_MB),
    (["state", "--kind", "squeezed", "--n", "4096", "--lam", "100", "--out", "s.json"],
     SQUEEZING_LIMIT_MB),
    (["sweep", "--kind", "frontier", "--n", "1000", "--points", "64", "--out", "f1000.csv"],
     SQUEEZING_LIMIT_MB),
    (["scenario", "--family", "gradient", "--n", "10", "--theta0", "0.1"], GRADIENT_LIMIT_MB),
    (["qfi", "mixed10.json", "--wy", "--sld", "--zeno"], SLD_LIMIT_MB),
    (["qfi", "mixed10.json", "--sld", "--out", "sld.json"], SLD_REPORT_LIMIT_MB),
], ids=["witness-symmetric-4096", "frontier-4096", "qfi-full-ghz-12", "witness-full-ghz-12",
        "witness-full-mixed-10", "witness-full-singlet-10", "state-mixed-10",
        "state-singlet-10",
        "state-squeezed-4096", "frontier-1000", "scenario-gradient-10",
        "qfi-sld-full-mixed-10", "qfi-sld-report-full-mixed-10"])
def test_cli_peak_rss_at_advertised_limits(states, argv, limit):
    peak = _peak_rss_mb(argv, states)
    assert peak < limit, f"{' '.join(argv)}: peak RSS {peak:.0f} MB"
