import csv

import pytest

from vxsim.config import parse_config
from vxsim.runner import run
from vxsim.two_flavor import _LANCZOS_MAX

SMALL = """
grid.nx = 32
grid.ny = 32
physics.tf_radius = 5.0
run.dt = 0.004
"""

pytestmark = pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning")


def run_text(tmp_path, text, name="out"):
    return run(parse_config(SMALL + text), out_dir=tmp_path / name)


@pytest.mark.parametrize("mode", ["full", "effective", "compare"])
def test_empty_background_is_a_config_error(tmp_path, mode):
    rep = run_text(
        tmp_path, f"physics.rho0 = 0\nrun.mode = {mode}\nrun.n_steps = 4\nrun.ramp_time = 0.008\n"
    )
    assert rep.exit_code == 2
    assert "physics.rho0" in rep.values["error"]


def test_core_singularity_is_a_config_error(tmp_path):
    text = ("grid.nx = 64\ngrid.ny = 64\ngrid.lx = 0.05\ngrid.ly = 0.05\n"
            "run.mode = effective\nrun.dt = 1e-8\nrun.n_steps = 1\n")
    rep = run(parse_config(text), out_dir=tmp_path / "out")
    assert rep.exit_code == 2
    assert "refine the grid" in rep.values["error"]


def test_summary_rows_match_header(tmp_path):
    # snapshot_every divides both the full and the hold step counts, so the
    # last snapshot of each branch falls on its final step
    rep = run_text(tmp_path, "run.mode = compare\nrun.n_steps = 20\nrun.ramp_time = 0.04\n"
                             "run.snapshot_every = 5\n")
    assert rep.exit_code == 0
    with open(rep.out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 11
    assert all(len(row) == 11 for row in rows)
    keys = [(row[0], int(row[1])) for row in rows[1:]]
    assert len(keys) == len(set(keys))
    assert ("full", 20) in keys and ("effective", 10) in keys


@pytest.mark.parametrize("mode", ["effective", "compare"])
def test_krylov_work_reported_and_repeatable(tmp_path, mode):
    text = f"run.mode = {mode}\nrun.n_steps = 20\nrun.ramp_time = 0.04\n"
    a = run_text(tmp_path, text, "a")
    b = run_text(tmp_path, text, "b")
    assert a.exit_code == b.exit_code == 0
    steps, matvecs = a.values["effective.krylov_steps"], a.values["effective.matvecs"]
    assert steps > 0
    assert (steps, matvecs) == (b.values["effective.krylov_steps"], b.values["effective.matvecs"])
    assert matvecs <= _LANCZOS_MAX * steps
    assert f"effective.matvecs = {matvecs}" in (a.out_dir / "report.txt").read_text()
