"""Every threshold in qmetro.config keeps its value: moving, renaming or
adding a threshold must not loosen one without this table changing."""

from qmetro import config

PINNED = {
    "HERMITICITY": 1e-12,
    "PSD_FLOOR": -1e-10,
    "STATE_NORM": 1e-10,
    "DIRECTION_NORM": 1e-9,
    "QFI_PAIR_FLOOR": 1e-12,
    "FLOOR_WIDTH": 1e-13,
    "PROB_FLOOR": 1e-12,
    "FISHER_FLOOR": 1e-12,
    "CRB_RCOND": 1e-10,
    "FD_STEP": 1e-5,
    "DERIV_FLOOR": 1e-12,
    "VERDICT_TOL": 1e-9,
    "CRB_TOL": 1e-8,
    "SPEED_BOUND_TOL": 1e-9,
    "ROOF_TOL": 1e-8,
}


def test_every_threshold_is_pinned():
    assert {name for name in vars(config) if name.isupper()} == set(PINNED)
    for name, value in PINNED.items():
        assert getattr(config, name) == value, name
