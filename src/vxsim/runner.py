"""Run orchestration: scenario assembly, one dynamics pipeline, artifact export.

Modes:
  full       five-field split-step loading run
  effective  reduced two-flavor run on the engineered background
  compare    full run, then the reduced run seeded from it at ramp end,
             plus analytic-solution comparisons
  outcouple  slow-light delay tables and the exit-face output map

The first three share one pipeline: the mode only chooses which of the
five-field and reduced branches run, and whether the comparisons follow.

Exit codes: 0 success, 2 configuration error, any other simulator error
(:class:`~vxsim.errors.VxsimError`) or an output that cannot be written,
3 numerical divergence, 4 hard invariant failure (norm drift).  All
artifacts land under the output directory with a manifest listing each
file's digest and the digest of the canonical serialized parameters.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .beams import BeamSet, lg_amplitude, ratio_factors, xi_ratios
from .config import SimConfig, parse_config, serialize_config
from .diagnostics import (
    LoopSpec,
    analytic_state,
    circulation,
    compare_states,
    winding,
)
from .errors import ConfigError, CoreSingularityError, DivergenceError, MaskError, VxsimError
from .evolution import (
    MatterState,
    Ramp,
    advisory_dt,
    initial_state,
    qp_cancel_potential,
    run_adiabatic_loading,
    thomas_fermi_density,
)
from .fieldio import write_field
from .gauge import flavor_fields
# runs call neither; kept importable here for bench/spans.py, which rebinds both
from .gauge import gauge_potentials, solve_traps  # noqa: F401
from .grid import Field, SpectralGrid, make_grid
from .outcoupling import (
    EnvelopeHistory,
    delay,
    delay_table,
    output_field,
    output_map,
    time_flux,
)
from .two_flavor import KrylovWork, evolve_two_flavor

__all__ = ["RunReport", "run"]

#: allowed relative norm drift per 1000 steps (hard invariant)
NORM_DRIFT_PER_KSTEP = 1e-8

# ``values["error"]`` prefix of an exit-2 error; other classes give their name
_ERROR_PREFIX = {ConfigError: "config", CoreSingularityError: "core singularity"}


@dataclass
class RunReport:
    """Everything a caller needs to inspect a finished (or failed) run."""

    exit_code: int
    values: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    out_dir: Path | None = None

    def lines(self) -> list[str]:
        out = []
        for k, v in self.values.items():
            if isinstance(v, bool):
                out.append(f"{k} = {str(v).lower()}")
            elif isinstance(v, float):
                # float() strips numpy scalar subclasses whose repr is
                # np.float64(...) rather than the bare number
                out.append(f"{k} = {float(v)!r}")
            else:
                out.append(f"{k} = {v}")
        return out


@dataclass
class _Scenario:
    grid: SpectralGrid
    # None once nothing reads the beams again
    beams: BeamSet | None
    rho: np.ndarray


def _build_beams(cfg: SimConfig, grid: SpectralGrid) -> BeamSet:
    def envelope(beam):
        return lg_amplitude(grid.r_map, beam.l, beam.waist, beam.peak)

    try:
        return BeamSet(
            grid=grid,
            p1=envelope(cfg.p1),
            p2=envelope(cfg.p2),
            c1=envelope(cfg.c1),
            c2=envelope(cfg.c2),
            l1=cfg.p1.l,
            l2=cfg.p2.l,
            kp1=(cfg.p1.kx, cfg.p1.ky),
            kp2=(cfg.p2.kx, cfg.p2.ky),
            kc1=(cfg.c1.kx, cfg.c1.ky),
            kc2=(cfg.c2.kx, cfg.c2.ky),
            eps12=cfg.eps12,
            eps13=cfg.eps13,
            eps14=cfg.eps14,
            eps15=cfg.eps15,
        )
    except ValueError as exc:
        raise ConfigError(f"beams: {exc}") from None


def _build_scenario(cfg: SimConfig, grid: SpectralGrid) -> _Scenario:
    # the background comes first so that the beams' planes, which an
    # effective run drops before it steps, lie together above it
    rho = thomas_fermi_density(grid, cfg.physics.rho0, cfg.physics.tf_radius, cfg.physics.rim)
    beams = _build_beams(cfg, grid)
    if not rho.any():
        raise ConfigError(f"physics.rho0 = {cfg.physics.rho0} leaves no atoms to evolve")
    if cfg.run.mode != "full":
        # the reduced branch builds its ratios and fields after the five-field
        # branch; a ratio undefined (MaskError here) or zero stops the run first
        for q, (modulus, _, _) in enumerate(ratio_factors(beams), 1):
            if not modulus.any():
                raise MaskError(f"no evaluable points: ratio xi{q} = p{q}/c{q} is zero")
    return _Scenario(grid=grid, beams=beams, rho=rho)


def _require_reducible(cfg: SimConfig):
    """Reduced modes take any beam pair, but only on the engineered
    background and with no two-photon detuning."""
    problems = []
    if cfg.eps12 != 0.0 or cfg.eps13 != 0.0:
        problems.append("two-photon detunings beams.eps12 and beams.eps13 must vanish")
    if cfg.physics.traps != "engineered":
        problems.append("reduced dynamics assumes physics.traps = engineered")
    if problems:
        raise ConfigError("effective/compare modes: " + "; ".join(problems))


def _default_loop(cfg: SimConfig) -> LoopSpec:
    return LoopSpec(center=(0.0, 0.0), radius=0.5 * cfg.physics.tf_radius, n_samples=512)


class _Out:
    """Artifact sink; collects written paths for the manifest."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def field(self, name: str, fld: Field) -> Path:
        path = self.dir / name
        write_field(path, fld)
        self.paths.append(path)
        return path

    def text(self, name: str, content: str) -> Path:
        path = self.dir / name
        path.write_text(content)
        self.paths.append(path)
        return path


def _write_flavor_fields(out: _Out, grid: SpectralGrid, a: np.ndarray, w: np.ndarray):
    for q, alpha in enumerate((2, 3)):
        for comp, axis in enumerate("xy"):
            values = a[q, comp].astype(np.complex128)
            out.field(f"eff_a{alpha}_{axis}.vxf", Field(grid=grid, values=values))
        values = w[q].astype(np.complex128)
        out.field(f"eff_w{alpha}.vxf", Field(grid=grid, values=values))


def _loading_rows(rows: list, branch: str, state: MatterState, step: int):
    pops = state.populations()
    rows.append(
        (branch, step, state.t, state.norm(), *[float(p) for p in pops],
         float("nan"), float("nan"))
    )


def _summary_csv(rows: list) -> str:
    header = "branch,step,t,norm,p1,p2,p3,p4,p5,n2,n3"
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _snapshot_steps(cfg: SimConfig, n_steps: int) -> range:
    """Step counts of a branch of ``n_steps`` steps that dump fields."""
    every = cfg.run.snapshot_every
    return range(every, n_steps + 1, every) if every else range(0)


def _run_full_branch(cfg: SimConfig, scenario: _Scenario, out: _Out, rows: list,
                     n_steps: int, capture_at: int | None = None):
    """Drive the five-field run; returns (final_state, captured, result), where
    ``captured`` is ``(ground component, time)`` after ``capture_at`` steps."""
    v1 = np.zeros(scenario.grid.shape)
    if cfg.physics.traps == "engineered":
        # V1 = qp_cancel(rho) - u rho holds the background against its quantum
        # pressure and its own mean field, so the ground component stands
        # still; the slaved levels need no trap of their own
        np.multiply(scenario.rho, -cfg.physics.u, out=v1)
        v1 += qp_cancel_potential(scenario.grid, scenario.rho)
    state = initial_state(scenario.grid, scenario.rho, v1, cfg.physics.u)
    snaps = _snapshot_steps(cfg, n_steps)
    captured = {}

    def snapshot(i, st):
        if i + 1 == capture_at:
            captured["ground"] = st.phi[0].copy(), st.t
        if i + 1 in snaps:
            for alpha in (1, 2, 3):
                out.field(
                    f"phi{alpha}_{i + 1:05d}.vxf",
                    Field(grid=st.grid, values=st.phi[alpha - 1]),
                )
        if i + 1 in snaps or i + 1 == n_steps:
            _loading_rows(rows, "full", st, i + 1)

    # the ramp-end capture needs the state at a step end, so that step is
    # observed too
    result = run_adiabatic_loading(
        state,
        scenario.beams,
        cfg.run.dt,
        n_steps,
        Ramp(cfg.run.ramp_time),
        snapshot_cb=snapshot,
        observe={*snaps, capture_at} - {None},
    )
    return result.state, captured.get("ground"), result


def _winding_values(values: dict, prefix: str, cfg: SimConfig, grid: SpectralGrid,
                    flavors: np.ndarray, loop: LoopSpec):
    """Winding keys of the stacked flavor pair ``flavors`` (2, nx, ny)."""
    for alpha, phi, probe in zip((2, 3), flavors, (cfg.p1, cfg.p2)):
        fld = Field(grid=grid, values=phi)
        w = winding(fld, loop)
        values[f"{prefix}.winding{alpha}"] = w.value
        values[f"{prefix}.winding{alpha}_residual"] = w.residual
        values[f"{prefix}.circulation{alpha}"] = circulation(fld, loop)
        values[f"{prefix}.expected_winding{alpha}"] = probe.l


def _drift_ok(drift: float, n_steps: int) -> bool:
    return drift <= NORM_DRIFT_PER_KSTEP * max(n_steps, 1) / 1000.0


def _run_effective_branch(cfg: SimConfig, scenario: _Scenario, out: _Out, rows: list,
                          seed: np.ndarray, a: np.ndarray, w: np.ndarray, n_steps: int,
                          t0: float):
    """Drive the reduced run from the stacked ``seed`` in the fields ``a`` and
    ``w`` (:func:`~vxsim.gauge.flavor_fields`); returns (phi, solver work).
    The run overwrites ``seed`` and ``w``."""
    grid = scenario.grid
    snaps = _snapshot_steps(cfg, n_steps)

    def snapshot(i, phi):
        # runs on the snapshot steps and the last step
        rows.append(("effective", i + 1, t0 + (i + 1) * cfg.run.dt, float("nan"),
                     *([float("nan")] * 5), *(Field(grid, p).norm() for p in phi)))
        if i + 1 in snaps:
            for alpha, p in zip((2, 3), phi):
                out.field(f"eff_phi{alpha}_{i + 1:05d}.vxf", Field(grid=grid, values=p))

    work = KrylovWork()
    phi = evolve_two_flavor(seed, a, w, scenario.rho, cfg.run.dt, n_steps, grid,
                            callback=snapshot, observe=snaps, work=work)
    return phi, work


def _run_dynamics(cfg: SimConfig, out: _Out, grid: SpectralGrid) -> RunReport:
    """Run the five-field branch unless the mode is effective, the reduced
    branch unless it is full, and the comparisons of the two in compare mode."""
    mode = cfg.run.mode
    if mode != "full":
        _require_reducible(cfg)
    scenario = _build_scenario(cfg, grid)
    n_steps = hold_steps = cfg.run.n_steps
    ramp_steps = None
    if mode == "compare":
        ramp_steps = int(round(cfg.run.ramp_time / cfg.run.dt))
        if ramp_steps < 1 or ramp_steps > n_steps:
            raise ConfigError(
                f"run.ramp_time = {cfg.run.ramp_time} does not fit in "
                f"run.n_steps = {n_steps} steps of run.dt = {cfg.run.dt}"
            )
        hold_steps = n_steps - ramp_steps

    loop = _default_loop(cfg)
    rows: list = []
    values = {"mode": mode}
    gates = []  # (relative norm drift, steps it built up over)

    if mode != "effective":
        state, at_ramp_end, result = _run_full_branch(
            cfg, scenario, out, rows, n_steps, capture_at=ramp_steps
        )
        values["full.t_final"] = state.t
        values["full.dark_state_error"] = result.dark_state_error
        values["full.p4"] = result.p4
        values["full.p5"] = result.p5
        values["full.norm_drift"] = result.norm_drift
        values["full.series_terms"] = result.series_terms
        _winding_values(values, "full", cfg, grid, state.phi[1:3], loop)
        gates.append((result.norm_drift, n_steps))
        for alpha in (1, 2, 3):
            out.field(f"phi{alpha}_final.vxf", Field(grid=grid, values=state.phi[alpha - 1]))

    if mode != "full":
        # the fields each flavor sees: gauge (2, 2, nx, ny), scalar (2, nx, ny)
        a, w = flavor_fields(scenario.beams, scenario.rho)
        # the reduced run overwrites w
        _write_flavor_fields(out, grid, a, w)
        # the stacked ratios, for the seed
        xi = np.stack(xi_ratios(scenario.beams))
        if mode == "effective":
            # only compare mode's analytic state reads the beams again
            scenario.beams = None
        # dark-state seed: the static background, or in compare mode the
        # ground component the full branch held at ramp end
        if mode == "compare":
            background, t0 = at_ramp_end
        else:
            background, t0 = np.sqrt(scenario.rho), 0.0
        # the seed takes over the ratios' buffer; no copy of the background stays
        phi = np.negative(xi, out=xi)
        phi *= background
        del background
        # the drift gate keeps only the seed's norms
        norms_0 = [Field(grid, p).norm() for p in phi]
        work = KrylovWork()
        if hold_steps > 0:
            phi, work = _run_effective_branch(cfg, scenario, out, rows, phi, a, w, hold_steps,
                                              t0)
        for alpha, p, n_0 in zip((2, 3), phi, norms_0):
            drift = abs(Field(grid, p).norm() - n_0) / n_0
            values[f"effective.norm_drift{alpha}"] = drift
            gates.append((drift, hold_steps))
        values["effective.krylov_steps"] = work.krylov_steps
        values["effective.matvecs"] = work.matvecs
        _winding_values(values, "effective", cfg, grid, phi, loop)
        for alpha, p in zip((2, 3), phi):
            out.field(f"eff_phi{alpha}_final.vxf", Field(grid=grid, values=p))

    if mode == "compare":
        full_fields = {alpha: Field(grid=grid, values=state.phi[alpha - 1]) for alpha in (2, 3)}
        for alpha, p in zip((2, 3), phi):
            rep = compare_states(full_fields[alpha], Field(grid=grid, values=p), loops=(loop,))
            values[f"compare{alpha}.l2_error"] = rep.l2_error
            values[f"compare{alpha}.windings_agree"] = rep.windings_agree
        try:
            analytic = analytic_state(scenario.beams, scenario.rho)
        except ValueError as exc:
            values["analytic.skipped"] = str(exc)
            analytic = ()
        for alpha, ana in zip((2, 3), analytic):
            rep = compare_states(full_fields[alpha], ana, loops=(loop,))
            values[f"analytic{alpha}.l2_error"] = rep.l2_error
            values[f"analytic{alpha}.windings_agree"] = rep.windings_agree

    out.text("summary.csv", _summary_csv(rows))
    code = 0 if all(_drift_ok(drift, steps) for drift, steps in gates) else 4
    if code:
        values["invariant_failure"] = "norm_drift"
    return RunReport(exit_code=code, values=values)


def _run_outcouple(cfg: SimConfig, out: _Out, grid: SpectralGrid) -> RunReport:
    for name in ("p1", "p2"):
        if getattr(cfg, name).peak == 0.0:
            raise ConfigError(f"beam.{name}.peak = 0 leaves no probe light to out-couple")
    params = cfg.outcouple
    values = {"mode": "outcouple"}

    for pair in (1, 2):
        tau = delay(params, pair)
        values[f"delay_{pair}"] = tau
        values[f"delay_{pair}_lower_bound"] = params.length / params.c
        values[f"delay_{pair}_upper_bound"] = params.length / params.v0
        table = delay_table(params, pair)
        lines = ["z,v_g,tau"] + [f"{z!r},{vg!r},{t!r}" for z, vg, t in table]
        out.text(f"delay_table_{pair}.csv", "\n".join(lines) + "\n")

    # pulse scenario: OAM-free temporal Gaussian envelope per probe
    sigma, t_center = 1.0, 4.0
    times = np.linspace(0.0, 8.0, 81)
    pulse = np.exp(-((times - t_center) ** 2) / (2.0 * sigma**2))
    loop = _default_loop(cfg)
    for flavor, beam in ((2, cfg.p1), (3, cfg.p2)):
        transverse = lg_amplitude(grid.r_map, beam.l, beam.waist, beam.peak)
        history = EnvelopeHistory(grid=grid, times=times, pulse=pulse, transverse=transverse)
        mapped = output_map(history, params, flavor, beam.l * grid.phi_map)
        flux_in = time_flux(history, params.c)
        flux_out = time_flux(mapped, params.v0)
        values[f"flux_in_{flavor}"] = flux_in
        values[f"flux_out_{flavor}"] = flux_out
        values[f"flux_rel_err_{flavor}"] = abs(flux_out - flux_in) / flux_in
        peak = output_field(mapped, int(np.argmax(np.abs(pulse))))
        w = winding(peak, loop)
        values[f"output_winding{flavor}"] = w.value
        values[f"output_winding{flavor}_residual"] = w.residual
        values[f"expected_output_winding{flavor}"] = beam.l
        out.field(f"output_phi{flavor}_peak.vxf", peak)
    return RunReport(exit_code=0, values=values)


def _write_manifest(out: _Out, params_hash: str, report: RunReport):
    lines = [f"params_sha256 = {params_hash}"]
    for path in sorted(out.paths, key=lambda p: p.name):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{path.name} bytes={path.stat().st_size} sha256={digest}")
    (out.dir / "manifest.txt").write_text("\n".join(lines) + "\n")
    report.artifacts = sorted(out.paths, key=lambda p: p.name) + [out.dir / "manifest.txt"]


def run(cfg: SimConfig, out_dir: str | Path | None = None, override_dt: bool = False) -> RunReport:
    """Execute one configured run; never raises a :class:`~vxsim.errors.VxsimError`
    or an ``OSError`` from writing its outputs.

    Outcomes are encoded in :class:`RunReport.exit_code` (0/2/3/4) plus the
    ``error`` entry of the report values when nonzero.
    """
    t_start = time.perf_counter()
    directory = Path(out_dir) if out_dir is not None else Path(cfg.run.out_dir)
    params = serialize_config(cfg)
    try:
        # a config built in code gets the checks of a parsed one; a line
        # number here counts in the canonical text
        parse_config(params)
        grid = make_grid(cfg.grid.nx, cfg.grid.ny, cfg.grid.lx, cfg.grid.ly)
        advisory = advisory_dt(grid)
        if cfg.run.dt > advisory and not override_dt:
            raise ConfigError(
                f"run.dt = {cfg.run.dt} exceeds the advisory bound {advisory:.6g} "
                "= min(dx, dy)^2 / pi for this grid; shrink dt or pass --override-dt"
            )
        # every mode reads windings on this loop; reject it before any stepping
        try:
            _default_loop(cfg).points(grid)
        except ValueError as exc:
            raise ConfigError(
                f"physics.tf_radius = {cfg.physics.tf_radius} sets a winding loop "
                f"the grid cannot hold: {exc}"
            ) from None
        out = _Out(directory)
        run_mode = _run_outcouple if cfg.run.mode == "outcouple" else _run_dynamics
        report = run_mode(cfg, out, grid)
        report.values["run.seed"] = cfg.run.seed
        report.values["runtime_s"] = time.perf_counter() - t_start
        report.values["params_sha256"] = hashlib.sha256(params.encode()).hexdigest()
        report.out_dir = directory
        out.text("report.txt", "\n".join(report.lines()) + "\n")
        _write_manifest(out, report.values["params_sha256"], report)
    except DivergenceError as exc:
        return RunReport(exit_code=3, values={"error": f"divergence: {exc}"}, out_dir=directory)
    except VxsimError as exc:
        prefix = _ERROR_PREFIX.get(type(exc), type(exc).__name__)
        return RunReport(exit_code=2, values={"error": f"{prefix}: {exc}"}, out_dir=directory)
    except OSError as exc:
        # the output directory or an artifact in it cannot be written
        return RunReport(exit_code=2, values={"error": f"output: {directory}: {exc}"},
                         out_dir=directory)
    return report
