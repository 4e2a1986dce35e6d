"""Peak memory of the CLI at the advertised size limits.

Symmetric states up to N = 4096 and full vectors up to N = 12 are pure, so
their collective operators are applied, never stored: each command below
stays under 200 MB (a dense 4096 x 4096 operator alone is 268 MB).

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
from qmetro.states import SqueezingSpec, ghz, squeezed_ground_state

LIMIT_MB = 200

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
    return root


def _peak_rss_mb(argv, cwd) -> float:
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-m",
                          "qmetro.cli", *argv], cwd=cwd, env=env, check=True,
                         capture_output=True, text=True).stdout
    rec = json.loads(out)
    assert rec["status"] == 0, argv
    return rec["maxrss_kb"] / 1024.0


@pytest.mark.parametrize("argv", [
    ["witness", "sq4096.json", "--all"],
    ["sweep", "--kind", "frontier", "--n", "4096", "--points", "4", "--out", "f.csv"],
    ["qfi", "ghz12.json"],
    ["witness", "ghz12.json", "--all"],
], ids=["witness-symmetric-4096", "frontier-4096", "qfi-full-ghz-12", "witness-full-ghz-12"])
def test_cli_peak_rss_at_advertised_limits(states, argv):
    peak = _peak_rss_mb(argv, states)
    assert peak < LIMIT_MB, f"{' '.join(argv)}: peak RSS {peak:.0f} MB"
