"""Run orchestration: scenario assembly, mode dispatch, artifact export.

Modes:
  full       five-field split-step loading run
  effective  reduced two-flavor run on the engineered background
  compare    full run, then the reduced run seeded from it at ramp end,
             plus analytic-solution comparisons
  outcouple  slow-light delay tables and the exit-face output map

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 hard invariant failure (norm drift).  All artifacts land under the output
directory with a manifest listing each file's digest and the digest of the
canonical serialized parameters.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .beams import BeamSet, lg_amplitude, xi_ratios
from .config import SimConfig, serialize_config
from .diagnostics import (
    AnalyticPhase,
    LoopSpec,
    analytic_state,
    circulation,
    compare_states,
    winding,
)
from .errors import ConfigError, CoreSingularityError, DivergenceError
from .evolution import (
    MatterState,
    Ramp,
    advisory_dt,
    dark_state_error,
    initial_state,
    qp_cancel_potential,
    run_adiabatic_loading,
    thomas_fermi_density,
)
from .fieldio import write_field
from .gauge import fill_masked, gauge_potentials, solve_traps, vortex_gauge_field
from .grid import Field, SpectralGrid, make_grid
from .outcoupling import (
    EnvelopeHistory,
    OutcouplingParams,
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
    beams: BeamSet
    rho: np.ndarray
    traps: np.ndarray
    trap_residual: float


def _build_beams(cfg: SimConfig, grid: SpectralGrid) -> BeamSet:
    def envelope(beam):
        return lg_amplitude(grid.r_map, beam.l, beam.waist, beam.peak)

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


def _build_scenario(cfg: SimConfig) -> _Scenario:
    grid = make_grid(cfg.grid.nx, cfg.grid.ny, cfg.grid.lx, cfg.grid.ly)
    beams = _build_beams(cfg, grid)
    rho = thomas_fermi_density(grid, cfg.physics.rho0, cfg.physics.tf_radius, cfg.physics.rim)
    if not rho.any():
        raise ConfigError(f"physics.rho0 = {cfg.physics.rho0} leaves no atoms to evolve")
    traps = np.zeros((5,) + grid.shape)
    trap_residual = 0.0
    if cfg.physics.traps == "engineered":
        v1 = qp_cancel_potential(grid, rho)
        traps[0] = v1
        xi1, xi2 = xi_ratios(beams)
        gauge = gauge_potentials(xi1, xi2, grid, hermitian_mode=True)
        sol = solve_traps(v1, gauge, eps21=-cfg.eps12, eps31=-cfg.eps13, rtol=np.inf)
        traps[1] = sol.v2
        traps[2] = sol.v3
        trap_residual = sol.max_residual
    return _Scenario(grid=grid, beams=beams, rho=rho, traps=traps, trap_residual=trap_residual)


def _require_degenerate(cfg: SimConfig):
    """Reduced modes assume the symmetric vortex pair; reject anything else."""
    problems = []
    if cfg.p1.l == 0:
        problems.append("beam.p1.l must be nonzero")
    if cfg.p2.l != -cfg.p1.l:
        problems.append("beam.p2.l must equal -beam.p1.l")
    if (cfg.p1.peak, cfg.p1.waist) != (cfg.p2.peak, cfg.p2.waist):
        problems.append("probe peaks/waists must match")
    if (cfg.c1.peak, cfg.c1.waist) != (cfg.c2.peak, cfg.c2.waist):
        problems.append("control peaks/waists must match")
    for name in ("p1", "p2", "c1", "c2"):
        beam = getattr(cfg, name)
        if beam.kx != 0.0 or beam.ky != 0.0:
            problems.append(f"beam.{name} wavevector tilts unsupported here")
    if cfg.eps12 != 0.0 or cfg.eps13 != 0.0:
        problems.append("two-photon detunings must vanish")
    if cfg.physics.traps != "engineered":
        problems.append("reduced dynamics assumes physics.traps = engineered")
    if problems:
        raise ConfigError(
            "effective/compare modes need the degenerate beam pair: " + "; ".join(problems)
        )


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


def _write_gauge_exports(out: _Out, grid: SpectralGrid, gauge):
    for label, vec in (("a1", gauge.a1), ("a2", gauge.a2), ("a3", gauge.a3)):
        for comp, axis in ((0, "x"), (1, "y")):
            values = fill_masked(vec[comp]).astype(np.complex128)
            out.field(f"gauge_{label}_{axis}.vxf", Field(grid=grid, values=values))


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


def _run_full_branch(cfg: SimConfig, scenario: _Scenario, out: _Out, rows: list,
                     n_steps: int, capture_at: int | None = None):
    """Drive the five-field run; returns (final_state, captured_state, result)."""
    state = initial_state(scenario.grid, scenario.rho, scenario.traps, cfg.physics.u)
    ramp = Ramp(cfg.run.ramp_time)
    captured = {}

    every = cfg.run.snapshot_every

    def snapshot(i, st):
        if capture_at is not None and i == capture_at - 1:
            captured["state"] = st.copy()
        if every and (i + 1) % every == 0:
            _loading_rows(rows, "full", st, i + 1)
            for alpha in (1, 2, 3):
                out.field(
                    f"phi{alpha}_{i + 1:05d}.vxf",
                    Field(grid=st.grid, values=st.phi[alpha - 1]),
                )

    result = run_adiabatic_loading(
        state,
        scenario.beams,
        cfg.run.dt,
        n_steps,
        ramp,
        snapshot_cb=snapshot,
    )
    if not (every and n_steps % every == 0):
        _loading_rows(rows, "full", result.state, n_steps)
    return result.state, captured.get("state"), result


def _full_values(cfg: SimConfig, scenario: _Scenario, state: MatterState, result,
                 loop: LoopSpec, prefix: str = "full") -> dict:
    values = {}
    values[f"{prefix}.t_final"] = state.t
    values[f"{prefix}.dark_state_error"] = result.dark_state_error
    values[f"{prefix}.p4"] = result.p4
    values[f"{prefix}.p5"] = result.p5
    values[f"{prefix}.norm_drift"] = result.norm_drift
    for alpha, sign in ((2, 1), (3, -1)):
        fld = Field(grid=state.grid, values=state.phi[alpha - 1])
        w = winding(fld, loop)
        values[f"{prefix}.winding{alpha}"] = w.value
        values[f"{prefix}.winding{alpha}_residual"] = w.residual
        values[f"{prefix}.circulation{alpha}"] = circulation(fld, loop)
        values[f"{prefix}.expected_winding{alpha}"] = sign * cfg.p1.l
    return values


def _drift_ok(drift: float, n_steps: int) -> bool:
    return drift <= NORM_DRIFT_PER_KSTEP * max(n_steps, 1) / 1000.0


def _run_full(cfg: SimConfig, out: _Out) -> RunReport:
    scenario = _build_scenario(cfg)
    rows: list = []
    state, _, result = _run_full_branch(cfg, scenario, out, rows, cfg.run.n_steps)
    loop = _default_loop(cfg)
    values = {"mode": "full", "trap_residual": scenario.trap_residual}
    values.update(_full_values(cfg, scenario, state, result, loop))
    for alpha in (1, 2, 3):
        out.field(f"phi{alpha}_final.vxf", Field(grid=state.grid, values=state.phi[alpha - 1]))
    out.text("summary.csv", _summary_csv(rows))
    code = 0 if _drift_ok(result.norm_drift, cfg.run.n_steps) else 4
    if code:
        values["invariant_failure"] = "norm_drift"
    return RunReport(exit_code=code, values=values)


def _dark_seed(beams: BeamSet, background: np.ndarray):
    xi1, xi2 = xi_ratios(beams)
    return -xi1 * background, -xi2 * background


def _run_effective_branch(cfg: SimConfig, scenario: _Scenario, out: _Out, rows: list,
                          phi2_0, phi3_0, n_steps: int, t0: float):
    """Drive the reduced run; returns (phi2, phi3, solver work)."""
    grid = scenario.grid
    a_common = vortex_gauge_field(grid, cfg.p1.l)
    zeros = np.zeros(grid.shape)
    every = cfg.run.snapshot_every

    def snapshot(i, p2, p3):
        rows.append(("effective", i + 1, t0 + (i + 1) * cfg.run.dt, float("nan"),
                     *([float("nan")] * 5), _flavor_norm(grid, p2), _flavor_norm(grid, p3)))
        out.field(f"eff_phi2_{i + 1:05d}.vxf", Field(grid=grid, values=p2))
        out.field(f"eff_phi3_{i + 1:05d}.vxf", Field(grid=grid, values=p3))

    work = KrylovWork()
    phi2, phi3 = evolve_two_flavor(
        phi2_0,
        phi3_0,
        a_common,
        zeros,
        zeros,
        scenario.rho,
        cfg.physics.u,
        cfg.run.dt,
        n_steps,
        grid,
        callback=snapshot if every else None,
        every=every or 1,
        work=work,
    )
    return phi2, phi3, work


def _flavor_norm(grid: SpectralGrid, phi) -> float:
    return float(np.sqrt(grid.integrate(np.abs(phi) ** 2)))


def _effective_values(cfg, grid, phi2, phi3, n2_0, n3_0, work: KrylovWork, loop,
                      prefix="effective") -> dict:
    values = {}
    drift2 = abs(_flavor_norm(grid, phi2) - n2_0) / n2_0
    drift3 = abs(_flavor_norm(grid, phi3) - n3_0) / n3_0
    values[f"{prefix}.norm_drift2"] = drift2
    values[f"{prefix}.norm_drift3"] = drift3
    values[f"{prefix}.krylov_steps"] = work.krylov_steps
    values[f"{prefix}.matvecs"] = work.matvecs
    for alpha, phi, sign in ((2, phi2, 1), (3, phi3, -1)):
        fld = Field(grid=grid, values=phi)
        w = winding(fld, loop)
        values[f"{prefix}.winding{alpha}"] = w.value
        values[f"{prefix}.winding{alpha}_residual"] = w.residual
        values[f"{prefix}.circulation{alpha}"] = circulation(fld, loop)
        values[f"{prefix}.expected_winding{alpha}"] = sign * cfg.p1.l
    return values


def _run_effective(cfg: SimConfig, out: _Out) -> RunReport:
    _require_degenerate(cfg)
    scenario = _build_scenario(cfg)
    grid = scenario.grid
    rows: list = []
    phi2_0, phi3_0 = _dark_seed(scenario.beams, np.sqrt(scenario.rho))
    n2_0 = _flavor_norm(grid, phi2_0)
    n3_0 = _flavor_norm(grid, phi3_0)
    phi2, phi3, work = _run_effective_branch(
        cfg, scenario, out, rows, phi2_0, phi3_0, cfg.run.n_steps, 0.0
    )
    loop = _default_loop(cfg)
    values = {"mode": "effective", "trap_residual": scenario.trap_residual}
    values.update(_effective_values(cfg, grid, phi2, phi3, n2_0, n3_0, work, loop))
    xi1, xi2 = xi_ratios(scenario.beams)
    gauge = gauge_potentials(xi1, xi2, grid, hermitian_mode=True)
    _write_gauge_exports(out, grid, gauge)
    out.field("eff_phi2_final.vxf", Field(grid=grid, values=phi2))
    out.field("eff_phi3_final.vxf", Field(grid=grid, values=phi3))
    out.text("summary.csv", _summary_csv(rows))
    ok = _drift_ok(values["effective.norm_drift2"], cfg.run.n_steps) and _drift_ok(
        values["effective.norm_drift3"], cfg.run.n_steps
    )
    code = 0 if ok else 4
    if code:
        values["invariant_failure"] = "norm_drift"
    return RunReport(exit_code=code, values=values)


def _run_compare(cfg: SimConfig, out: _Out) -> RunReport:
    _require_degenerate(cfg)
    scenario = _build_scenario(cfg)
    grid = scenario.grid
    ramp_steps = int(round(cfg.run.ramp_time / cfg.run.dt))
    if ramp_steps < 1 or ramp_steps > cfg.run.n_steps:
        raise ConfigError(
            f"run.ramp_time = {cfg.run.ramp_time} does not fit in "
            f"run.n_steps = {cfg.run.n_steps} steps of run.dt = {cfg.run.dt}"
        )
    hold_steps = cfg.run.n_steps - ramp_steps

    rows: list = []
    state, at_ramp_end, result = _run_full_branch(
        cfg, scenario, out, rows, cfg.run.n_steps, capture_at=ramp_steps
    )
    if at_ramp_end is None:
        at_ramp_end = state

    # reduced branch rides the captured ground component
    phi2_0, phi3_0 = _dark_seed(scenario.beams, at_ramp_end.phi[0])
    n2_0 = _flavor_norm(grid, phi2_0)
    n3_0 = _flavor_norm(grid, phi3_0)
    if hold_steps > 0:
        phi2, phi3, work = _run_effective_branch(
            cfg, scenario, out, rows, phi2_0, phi3_0, hold_steps, at_ramp_end.t
        )
    else:
        phi2, phi3, work = phi2_0, phi3_0, KrylovWork()

    loop = _default_loop(cfg)
    values = {"mode": "compare", "trap_residual": scenario.trap_residual}
    values.update(_full_values(cfg, scenario, state, result, loop))
    values.update(_effective_values(cfg, grid, phi2, phi3, n2_0, n3_0, work, loop))

    full2 = Field(grid=grid, values=state.phi[1])
    full3 = Field(grid=grid, values=state.phi[2])
    rep2 = compare_states(full2, Field(grid=grid, values=phi2), loops=(loop,))
    rep3 = compare_states(full3, Field(grid=grid, values=phi3), loops=(loop,))
    values["compare2.l2_error"] = rep2.l2_error
    values["compare2.windings_agree"] = rep2.windings_agree
    values["compare3.l2_error"] = rep3.l2_error
    values["compare3.windings_agree"] = rep3.windings_agree

    for alpha, q in ((2, 1), (3, -1)):
        phase = AnalyticPhase(q=q, l=cfg.p1.l, u=cfg.physics.u)
        ana = analytic_state(phase, scenario.beams, scenario.rho, grid, state.t)
        full_fld = full2 if alpha == 2 else full3
        rep = compare_states(full_fld, ana, loops=(loop,))
        values[f"analytic{alpha}.l2_error"] = rep.l2_error
        values[f"analytic{alpha}.windings_agree"] = rep.windings_agree

    xi1, xi2 = xi_ratios(scenario.beams)
    gauge = gauge_potentials(xi1, xi2, grid, hermitian_mode=True)
    _write_gauge_exports(out, grid, gauge)
    for alpha in (1, 2, 3):
        out.field(f"phi{alpha}_final.vxf", Field(grid=grid, values=state.phi[alpha - 1]))
    out.field("eff_phi2_final.vxf", Field(grid=grid, values=phi2))
    out.field("eff_phi3_final.vxf", Field(grid=grid, values=phi3))
    out.text("summary.csv", _summary_csv(rows))

    ok = (
        _drift_ok(result.norm_drift, cfg.run.n_steps)
        and _drift_ok(values["effective.norm_drift2"], max(hold_steps, 1))
        and _drift_ok(values["effective.norm_drift3"], max(hold_steps, 1))
    )
    code = 0 if ok else 4
    if code:
        values["invariant_failure"] = "norm_drift"
    return RunReport(exit_code=code, values=values)


def _run_outcouple(cfg: SimConfig, out: _Out) -> RunReport:
    grid = make_grid(cfg.grid.nx, cfg.grid.ny, cfg.grid.lx, cfg.grid.ly)
    oc = cfg.outcouple
    params = OutcouplingParams(
        g1=oc.g1,
        g2=oc.g2,
        omega0_1=oc.omega0_1,
        omega0_2=oc.omega0_2,
        n=oc.n,
        v0=oc.v0,
        c=oc.c,
        length=oc.length,
    )
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
        frames = pulse[:, None, None] * transverse[None, :, :]
        history = EnvelopeHistory(grid=grid, times=times, values=frames.astype(np.complex128))
        phase_j = beam.l * grid.phi_map
        mapped = output_map(history, params, flavor, phase_j)
        flux_in = time_flux(history, params.c)
        flux_out = time_flux(mapped, params.v0)
        values[f"flux_in_{flavor}"] = flux_in
        values[f"flux_out_{flavor}"] = flux_out
        values[f"flux_rel_err_{flavor}"] = abs(flux_out - flux_in) / flux_in
        peak_idx = int(np.argmax([np.max(np.abs(v)) for v in mapped.values]))
        w = winding(output_field(mapped, peak_idx), loop)
        values[f"output_winding{flavor}"] = w.value
        values[f"output_winding{flavor}_residual"] = w.residual
        values[f"expected_output_winding{flavor}"] = beam.l
        out.field(
            f"output_phi{flavor}_peak.vxf",
            Field(grid=grid, values=mapped.values[peak_idx]),
        )
    return RunReport(exit_code=0, values=values)


def _write_manifest(out: _Out, params_hash: str, report: RunReport):
    lines = [f"params_sha256 = {params_hash}"]
    for path in sorted(out.paths, key=lambda p: p.name):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{path.name} bytes={path.stat().st_size} sha256={digest}")
    (out.dir / "manifest.txt").write_text("\n".join(lines) + "\n")
    report.artifacts = sorted(out.paths, key=lambda p: p.name) + [out.dir / "manifest.txt"]


def run(cfg: SimConfig, out_dir: str | Path | None = None, override_dt: bool = False) -> RunReport:
    """Execute one configured run; never raises for config/numeric failures.

    Outcomes are encoded in :class:`RunReport.exit_code` (0/2/3/4) plus the
    ``error`` entry of the report values when nonzero.
    """
    t_start = time.perf_counter()
    directory = Path(out_dir) if out_dir is not None else Path(cfg.run.out_dir)
    try:
        grid_cfg = cfg.grid
        advisory = advisory_dt(make_grid(grid_cfg.nx, grid_cfg.ny, grid_cfg.lx, grid_cfg.ly))
        if cfg.run.dt > advisory and not override_dt:
            raise ConfigError(
                f"run.dt = {cfg.run.dt} exceeds the advisory bound {advisory:.6g} "
                "= min(dx, dy)^2 / pi for this grid; shrink dt or pass --override-dt"
            )
        out = _Out(directory)
        dispatch = {
            "full": _run_full,
            "effective": _run_effective,
            "compare": _run_compare,
            "outcouple": _run_outcouple,
        }
        report = dispatch[cfg.run.mode](cfg, out)
    except ConfigError as exc:
        return RunReport(exit_code=2, values={"error": f"config: {exc}"}, out_dir=directory)
    except CoreSingularityError as exc:
        return RunReport(exit_code=2, values={"error": f"core singularity: {exc}"},
                         out_dir=directory)
    except DivergenceError as exc:
        return RunReport(exit_code=3, values={"error": f"divergence: {exc}"}, out_dir=directory)

    report.values["run.seed"] = cfg.run.seed
    report.values["runtime_s"] = time.perf_counter() - t_start
    report.values["params_sha256"] = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
    report.out_dir = directory
    out.text("report.txt", "\n".join(report.lines()) + "\n")
    _write_manifest(out, report.values["params_sha256"], report)
    return report
