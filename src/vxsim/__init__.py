"""Spectral simulator for a five-level condensate driven by vortex beam pairs.

Two orbital-angular-momentum probe beams and two flat control beams couple
five internal components in an M-type linkage.  The package propagates the
full five-field mean-field dynamics (split-step spectral), reduces them to
the dark-state two-flavor gauge theory (effective vector and trap
potentials), and maps slowed probe pulses onto out-coupled vortex matter
waves.
"""

# A bare ``import scipy`` loads no scipy submodule.  It stays only because
# the benchmark worker reads ``sys.modules["scipy"].__version__`` after
# importing vxsim (bench/worker.py:152); ROADMAP item 3 removes that read,
# and this import with it.  Nothing in vxsim uses scipy at import time.
import scipy  # noqa: F401

from ._fft import get_workers, set_workers
from .beams import BeamSet, lg_amplitude, lg_beams, rabi_field, xi_ratios
from .config import SimConfig, default_config, parse_config, serialize_config
from .diagnostics import (
    CompareReport,
    LoopSpec,
    WindingResult,
    analytic_state,
    circulation,
    compare_states,
    loop_integral,
    winding,
)
from .errors import (
    AdiabaticityWarning,
    ConfigError,
    CoreSingularityError,
    DivergenceError,
    FieldFormatError,
    GridSizeError,
    MaskError,
    PhaseUndefinedError,
    QuadratureError,
    TrapSolveError,
    VxsimError,
    WeakProbeWarning,
)
from .evolution import (
    LoadingResult,
    MatterState,
    Ramp,
    SplitStepper,
    advisory_dt,
    dark_state_error,
    initial_state,
    qp_cancel_potential,
    run_adiabatic_loading,
    step,
    thomas_fermi_density,
)
from .fieldio import read_field, write_field
from .gauge import (
    EffectiveGauge,
    TrapSolution,
    effective_potentials,
    flavor_fields,
    gauge_potentials,
    solve_traps,
    vortex_gauge_field,
)
from .grid import Field, SpectralGrid, gradient, laplacian, make_grid
from .outcoupling import (
    EnvelopeHistory,
    OutcouplingParams,
    delay,
    delay_table,
    group_velocity,
    output_field,
    output_map,
    time_flux,
)
from .runner import RunReport, run
from .two_flavor import evolve_two_flavor

__version__ = "0.1.0"

__all__ = [
    "AdiabaticityWarning",
    "BeamSet",
    "CompareReport",
    "ConfigError",
    "CoreSingularityError",
    "DivergenceError",
    "EffectiveGauge",
    "EnvelopeHistory",
    "Field",
    "FieldFormatError",
    "GridSizeError",
    "LoadingResult",
    "LoopSpec",
    "MaskError",
    "MatterState",
    "OutcouplingParams",
    "PhaseUndefinedError",
    "QuadratureError",
    "Ramp",
    "RunReport",
    "SimConfig",
    "SpectralGrid",
    "SplitStepper",
    "TrapSolution",
    "TrapSolveError",
    "VxsimError",
    "WeakProbeWarning",
    "WindingResult",
    "advisory_dt",
    "analytic_state",
    "circulation",
    "compare_states",
    "dark_state_error",
    "default_config",
    "delay",
    "delay_table",
    "effective_potentials",
    "evolve_two_flavor",
    "flavor_fields",
    "gauge_potentials",
    "get_workers",
    "gradient",
    "group_velocity",
    "initial_state",
    "laplacian",
    "lg_amplitude",
    "lg_beams",
    "loop_integral",
    "make_grid",
    "output_field",
    "output_map",
    "parse_config",
    "qp_cancel_potential",
    "rabi_field",
    "read_field",
    "run",
    "run_adiabatic_loading",
    "serialize_config",
    "set_workers",
    "solve_traps",
    "step",
    "thomas_fermi_density",
    "time_flux",
    "vortex_gauge_field",
    "winding",
    "write_field",
    "xi_ratios",
]
