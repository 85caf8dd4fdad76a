import csv
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vxsim.evolution as evolution
import vxsim.gauge as gauge
import vxsim.runner as runner
import vxsim.two_flavor as two_flavor
from vxsim.config import MODES, TRAP_MODES, parse_config
from vxsim.fieldio import read_field
from vxsim.grid import make_grid
from vxsim.runner import run

SMALL = """
grid.nx = 32
grid.ny = 32
physics.tf_radius = 5.0
run.dt = 0.004
"""

pytestmark = [
    pytest.mark.filterwarnings("ignore::vxsim.errors.AdiabaticityWarning"),
    pytest.mark.filterwarnings("ignore::vxsim.errors.WeakProbeWarning"),
]


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
            "physics.tf_radius = 0.01\n"
            "run.mode = effective\nrun.dt = 1e-8\nrun.n_steps = 1\n")
    rep = run(parse_config(text), out_dir=tmp_path / "out")
    assert rep.exit_code == 2
    assert "refine the grid" in rep.values["error"]


@pytest.mark.parametrize("every", [0, 5, 7])
def test_summary_rows_match_header(tmp_path, every):
    # 5 divides both the 20 full and the 10 hold steps, so the last snapshot
    # of each branch falls on its final step; 7 divides neither
    rep = run_text(tmp_path, "run.mode = compare\nrun.n_steps = 20\nrun.ramp_time = 0.04\n"
                             f"run.snapshot_every = {every}\n")
    assert rep.exit_code == 0
    with open(rep.out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 11
    assert all(len(row) == 11 for row in rows)
    keys = Counter((row[0], int(row[1])) for row in rows[1:])
    assert max(keys.values()) == 1
    assert keys["full", 20] == 1 and keys["effective", 10] == 1


@pytest.mark.parametrize("mode", ["effective", "compare"])
def test_krylov_work_reported_and_repeatable(tmp_path, mode):
    # snapshots every 5 steps cut the 20 (effective) or 10 (compare) hold
    # steps into 4 or 2 observed stretches, which one Chebyshev recurrence
    # serves
    text = f"run.mode = {mode}\nrun.n_steps = 20\nrun.ramp_time = 0.04\nrun.snapshot_every = 5\n"
    a = run_text(tmp_path, text, "a")
    b = run_text(tmp_path, text, "b")
    assert a.exit_code == b.exit_code == 0
    steps, matvecs = a.values["effective.krylov_steps"], a.values["effective.matvecs"]
    assert steps == 1
    assert matvecs > 0
    assert (steps, matvecs) == (b.values["effective.krylov_steps"], b.values["effective.matvecs"])
    assert f"effective.matvecs = {matvecs}" in (a.out_dir / "report.txt").read_text()


def test_series_terms_reported_and_repeatable(tmp_path):
    text = "run.mode = full\nrun.n_steps = 6\nrun.ramp_time = 0.012\n"
    first = run_text(tmp_path, text, "first")
    second = run_text(tmp_path, text, "second")
    assert first.exit_code == second.exit_code == 0
    assert first.values["full.series_terms"] == second.values["full.series_terms"] > 0
    assert "full.series_terms = " in (first.out_dir / "report.txt").read_text()


def test_snapshots_off_the_ramp_end_leave_the_comparison_unchanged(tmp_path, monkeypatch):
    # 7 does not divide the 12 ramp steps: the snapshots at 7, 14 and 21, the
    # ramp end and the last step are observed, where without snapshots only
    # the ramp end and the last step are; each step makes one forward
    # transform, and each observed step one more
    text = "run.mode = compare\nrun.n_steps = 24\nrun.ramp_time = 0.048\n"
    calls = Counter()

    def counted(a, _fn=evolution.fft2, **kwargs):
        calls["fft2"] += 1
        return _fn(a, **kwargs)

    monkeypatch.setattr(evolution, "fft2", counted)
    fused = run_text(tmp_path, text + "run.snapshot_every = 0\n", "fused")
    assert calls.pop("fft2") == 24 + 2
    observed = run_text(tmp_path, text + "run.snapshot_every = 7\n", "observed")
    assert calls.pop("fft2") == 24 + 5
    assert fused.exit_code == observed.exit_code == 0
    for key in ("compare2.l2_error", "compare3.l2_error", "analytic2.l2_error",
                "analytic3.l2_error", "full.dark_state_error"):
        assert observed.values[key] == pytest.approx(fused.values[key], rel=1e-12, abs=1e-12)
    for alpha in (1, 2, 3):
        assert (observed.out_dir / f"phi{alpha}_00007.vxf").is_file()


def test_loading_calls_through_traced_module_names(tmp_path, monkeypatch):
    # bench/spans.py counts five-field work by rebinding these module-level
    # names; calls that bypass them would read as zero work
    calls = Counter()
    for module, name in ((runner, "run_adiabatic_loading"), (evolution, "step"),
                         (evolution, "fft2"), (evolution, "ifft2")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rep = run_text(tmp_path, "run.mode = full\nrun.n_steps = 9\nrun.ramp_time = 0.02\n")
    assert rep.exit_code == 0
    assert calls == {"run_adiabatic_loading": 1, "step": 9, "fft2": 10, "ifft2": 10}


def test_reduced_branch_calls_through_traced_module_names(tmp_path, monkeypatch):
    # bench/spans.py counts two-flavor work by rebinding these names: one
    # bound estimate per evolve call, and per matvec four one-axis
    # transforms, a forward and an inverse along each axis
    calls = Counter()
    axes = set()
    for module, name in ((runner, "evolve_two_flavor"), (two_flavor, "eigh_tridiagonal"),
                         (two_flavor, "fft2"), (two_flavor, "ifft2")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if "fft2" in _name:
                axes.add(tuple(kwargs["axes"]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rep = run_text(tmp_path, "run.mode = effective\nrun.n_steps = 9\n")
    assert rep.exit_code == 0
    matvecs = rep.values["effective.matvecs"]
    assert calls["evolve_two_flavor"] == calls["eigh_tridiagonal"] == 1
    assert calls["fft2"] == calls["ifft2"] == 2 * matvecs
    assert axes == {(-2,), (-1,)}


REDUCED_RUN_PROBE = """
import sys
import warnings
from vxsim.config import parse_config
from vxsim.runner import run
warnings.simplefilter("ignore")
print(run(parse_config(sys.argv[1]), out_dir=sys.argv[2]).exit_code)
print(",".join(m for m in ("numpy.random", "secrets", "hmac") if m in sys.modules))
"""


def test_reduced_run_loads_no_numpy_random(tmp_path):
    # every run is a fresh process: the Lanczos start of the spectral bound
    # comes from the stdlib generator, so numpy.random, with its nine
    # extension modules and secrets and hmac, is never imported
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    text = SMALL + "run.mode = effective\nrun.n_steps = 9\n"
    out = subprocess.run([sys.executable, "-c", REDUCED_RUN_PROBE, text, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["0", ""]


def test_series_divergence_names_its_entry_not_dt(tmp_path):
    # a strong interaction puts dt*u*rho = 20 on the lower diagonals, while
    # dt = 0.004 is far below the advisory bound
    rep = run_text(tmp_path, "physics.u = 5000\nrun.mode = full\nrun.n_steps = 4\n")
    assert rep.exit_code == 3
    error = rep.values["error"]
    assert re.search(r"dt\*max\|M\| = \S+, set by the level-\d diagonal \(trap V\d = ", error)
    assert "mean field" in error
    assert "grid point" in error
    assert "is within the advisory bound" in error
    assert "far above" not in error and "exceeds" not in error


NONDEGENERATE = """
grid.nx = 64
grid.ny = 64
beam.c1.peak = 12.0
beam.c2.peak = 12.0
physics.u = 0.02
run.mode = full
run.dt = 0.016
run.n_steps = 375
run.ramp_time = 6.0
"""


def _raise_if_called(*args, **kwargs):
    raise AssertionError("no run needs the trap solve, the paper's potentials or a "
                         "spectral phase gradient, and a full run needs no ratio fields")


@pytest.mark.parametrize("probes, l, stubbed", [
    pytest.param((0.8, 0.6), (1, -1), True, id="0.8/0.6"),
    pytest.param((1.0, 0.5), (1, -1), False, id="1.0/0.5"),
    pytest.param((0.8, 0.8), (1, 2), False, id="l=1,2"),
])
def test_non_degenerate_full_runs_load(tmp_path, monkeypatch, probes, l, stubbed):
    # engineered traps are V1 alone, so an unequal or non-opposite probe pair
    # loads both flavors with the windings its probes carry
    text = NONDEGENERATE + "".join(
        f"beam.{name}.peak = {peak}\nbeam.{name}.l = {charge}\n"
        for name, peak, charge in zip(("p1", "p2"), probes, l)
    )
    if stubbed:
        # the reduced branch takes each ratio's phase gradient in closed form
        for module, name in ((runner, "gauge_potentials"), (gauge, "gauge_potentials"),
                             (gauge, "_phase_current"), (runner, "solve_traps")):
            monkeypatch.setattr(module, name, _raise_if_called)
        held = run(parse_config(text.replace("run.mode = full", "run.mode = effective")),
                   out_dir=tmp_path / "held")
        assert held.exit_code == 0, held.values.get("error")
        assert (held.values["effective.winding2"], held.values["effective.winding3"]) == l
        monkeypatch.setattr(runner, "xi_ratios", _raise_if_called)
    rep = run(parse_config(text), out_dir=tmp_path / "out")
    assert rep.exit_code == 0, rep.values.get("error")
    values = rep.values
    assert (values["full.winding2"], values["full.winding3"]) == l
    assert (values["full.expected_winding2"], values["full.expected_winding3"]) == l
    assert values["full.dark_state_error"] < 1e-2
    assert values["full.p4"] + values["full.p5"] < 1e-4
    assert "trap_residual" not in values


PAIR = """
grid.nx = 64
grid.ny = 64
beam.p1.peak = 0.8
beam.c1.peak = 12.0
beam.c2.peak = 12.0
physics.u = 0.02
run.mode = compare
run.dt = 0.016
run.n_steps = 500
run.ramp_time = 6.0
"""


@pytest.mark.parametrize("pair, tilted", [
    pytest.param("beam.p2.peak = 0.8\nbeam.p2.l = -1\n", False, id="degenerate"),
    pytest.param("beam.p2.peak = 0.6\nbeam.p2.l = -1\n", False, id="p2-peak-0.6"),
    pytest.param("beam.p2.peak = 0.8\nbeam.p2.l = -2\n", False, id="l=1,-2"),
    pytest.param("beam.p2.peak = 0.8\nbeam.p2.l = -1\nbeam.c2.kx = -0.2\n", True,
                 id="c2-tilted"),
])
def test_reduced_branch_tracks_any_pair(tmp_path, pair, tilted):
    # each flavor sees its own ratio's phase gradient and geometric scalar
    # potential, so the reduced branch follows the full one for any pair
    cfg = parse_config(PAIR + pair)
    rep = run(cfg, out_dir=tmp_path / "out")
    assert rep.exit_code == 0, rep.values.get("error")
    values = rep.values
    assert (values["effective.winding2"], values["effective.winding3"]) == (cfg.p1.l, cfg.p2.l)
    for alpha in (2, 3):
        assert values[f"compare{alpha}.l2_error"] < 5e-2
        assert values[f"compare{alpha}.windings_agree"]
    # the analytic reference needs untilted beams; a tilted run says why it
    # has none
    if tilted:
        assert "tilts" in values["analytic.skipped"]
        assert "analytic2.l2_error" not in values
    else:
        assert "analytic.skipped" not in values
        assert max(values["analytic2.l2_error"], values["analytic3.l2_error"]) < 5e-2
    names = {path.name for path in rep.artifacts}
    exports = {"eff_a2_x.vxf", "eff_a2_y.vxf", "eff_w2.vxf",
               "eff_a3_x.vxf", "eff_a3_y.vxf", "eff_w3.vxf"}
    assert exports <= names
    assert not any(name.startswith("gauge_") for name in names)
    # each flavor's gauge field is its probe's l grad(phi) plus the tilt
    grid = make_grid(cfg.grid.nx, cfg.grid.ny, cfg.grid.lx, cfg.grid.ly)
    for alpha, probe, control in ((2, cfg.p1, cfg.c1), (3, cfg.p2, cfg.c2)):
        want = gauge.vortex_gauge_field(grid, probe.l)
        want[0] += probe.kx - control.kx
        want[1] += probe.ky - control.ky
        for comp, axis in enumerate("xy"):
            got = read_field(tmp_path / "out" / f"eff_a{alpha}_{axis}.vxf").values
            assert np.array_equal(got, want[comp])


def test_reduced_gap_does_not_depend_on_the_mean_field(tmp_path):
    # V1 holds the background against its own mean field, so the ground
    # component stands still at any u and the reduced branch, which sees
    # each flavor's W alone, tracks the full one as well at u = 0.05 as at
    # u = 0: 0.01402 at both, where a V1 that cancels only the quantum
    # pressure reads 0.0467 at u = 0.05
    text = PAIR + "beam.p2.peak = 0.8\nbeam.p2.l = -1\n"
    gaps = []
    for u in (0.0, 0.05):
        cfg = parse_config(text.replace("physics.u = 0.02", f"physics.u = {u}"))
        rep = run(cfg, out_dir=tmp_path / f"u{u}")
        assert rep.exit_code == 0, rep.values.get("error")
        gaps.append(rep.values["compare2.l2_error"])
    assert abs(gaps[1] - gaps[0]) <= 1e-3


SHORT = SMALL + "run.n_steps = 4\nrun.ramp_time = 0.008\n"


@pytest.mark.parametrize("text, cause", [
    pytest.param(SHORT + "beam.p1.peak = 0\nbeam.p2.peak = 0\nrun.mode = effective\n",
                 "MaskError", id="zero-probes-mask"),
    pytest.param(SHORT + "beam.p1.peak = 0\nbeam.p2.peak = 0\nrun.mode = compare\n",
                 "MaskError", id="zero-probes-mask-compare"),
    pytest.param(SHORT + "beam.p2.peak = 0\nrun.mode = effective\n",
                 "MaskError", id="zero-p2-mask"),
    pytest.param(SHORT + "beam.p1.peak = 0\nbeam.p2.peak = 0\nphysics.traps = none\n"
                 "run.mode = full\n", "PhaseUndefinedError", id="zero-probes-winding"),
    pytest.param("grid.nx = 16\ngrid.ny = 16\nphysics.tf_radius = 3.0\nrun.mode = full\n"
                 "run.dt = 0.004\nrun.n_steps = 4\n", "under-resolved", id="loop-16"),
    pytest.param("grid.nx = 4\ngrid.ny = 4\nrun.mode = full\nrun.dt = 0.004\n"
                 "run.n_steps = 4\n", "under-resolved", id="loop-4"),
    pytest.param(SHORT + "beam.c1.peak = 0\nbeam.c2.peak = 0\n",
                 "control underflows", id="dead-controls"),
    pytest.param(SHORT + "beam.c1.peak = 1.0\nbeam.c2.peak = 1.0\n",
                 "ratio_max", id="strong-probes"),
    pytest.param(SHORT + "beam.p1.peak = 0\nrun.mode = outcouple\n",
                 "out-couple", id="outcouple-zero-probe"),
    pytest.param(SHORT + "beams.eps12 = 0.1\nrun.mode = effective\n",
                 "two-photon detunings beams.eps12", id="detuned-effective"),
    pytest.param(SHORT + "physics.traps = none\nrun.mode = compare\n",
                 "physics.traps = engineered", id="untrapped-compare"),
])
def test_setup_failures_are_exit_2(tmp_path, text, cause):
    rep = run(parse_config(text), out_dir=tmp_path / "out")
    assert rep.exit_code == 2
    assert cause in rep.values["error"]
    # no run gets as far as the end of either branch
    assert not list((tmp_path / "out").glob("*phi*_final.vxf"))


@pytest.mark.parametrize("blocked", [None, "phi1_final.vxf", "summary.csv", "report.txt",
                                     "manifest.txt"])
def test_unwritable_output_is_exit_2(tmp_path, blocked):
    # an output directory under a regular file cannot be made; a directory
    # standing where an artifact goes cannot be written over
    if blocked is None:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        named = out
    else:
        out = tmp_path / "out"
        named = out / blocked
        named.mkdir(parents=True)
    rep = run(parse_config(SHORT + "run.mode = full\n"), out_dir=out)
    assert rep.exit_code == 2
    assert rep.values["error"].startswith(f"output: {out}: ")
    assert str(named) in rep.values["error"]


def test_non_finite_config_built_in_code_is_exit_2(tmp_path):
    cfg = parse_config(SHORT)
    cfg = replace(cfg, run=replace(cfg.run, dt=float("nan")))
    rep = run(cfg, out_dir=tmp_path / "out")
    assert rep.exit_code == 2
    assert rep.values["error"].startswith("config:")
    assert "run.dt = nan: must be finite" in rep.values["error"]


PEAKS = (0.0, 0.3, 1.0)


@st.composite
def run_configs(draw):
    n = draw(st.sampled_from((16, 32)))
    p1 = draw(st.sampled_from(PEAKS))
    p2 = p1 if draw(st.booleans()) else draw(st.sampled_from(PEAKS))
    # 10 is the default control peak: it keeps every probe peak weak
    c1 = draw(st.sampled_from(PEAKS + (10.0,)))
    c2 = c1 if draw(st.booleans()) else draw(st.sampled_from(PEAKS + (10.0,)))
    lines = [
        f"grid.nx = {n}",
        f"grid.ny = {n}",
        f"physics.tf_radius = {draw(st.sampled_from((3.0, 5.0)))}",
        f"physics.rho0 = {draw(st.sampled_from((0.0, 0.5, 1.0)))}",
        f"physics.traps = {draw(st.sampled_from(TRAP_MODES))}",
        f"beam.p1.peak = {p1}",
        f"beam.p2.peak = {p2}",
        f"beam.c1.peak = {c1}",
        f"beam.c2.peak = {c2}",
        f"run.mode = {draw(st.sampled_from(MODES))}",
        "run.dt = 0.004",
        f"run.n_steps = {draw(st.integers(1, 6))}",
        # compare needs the ramp to end within the run; 0 and 7 steps do not
        f"run.ramp_time = {0.004 * draw(st.integers(0, 7))}",
        f"run.snapshot_every = {draw(st.integers(0, 2))}",
    ]
    return parse_config("\n".join(lines) + "\n")


@settings(max_examples=50, deadline=None)
@given(cfg=run_configs())
def test_run_maps_every_failure_to_an_exit_code(cfg):
    with tempfile.TemporaryDirectory() as out_dir:
        rep = run(cfg, out_dir=out_dir, override_dt=True)
    assert rep.exit_code in (0, 2, 3, 4)
    if rep.exit_code:
        assert rep.values["error"]
