"""Spectra of radial anharmonic oscillators by ODE integration, WKB, and asymptotics."""

from .model import (
    CoverPoint,
    CriticalData,
    OscillatorParams,
    TurningPointSet,
    critical_data,
    eval_forcing,
    eval_reduced,
    to_hbar_coords,
    turning_points,
)
from .action import (
    PathSpec,
    asymptotic_reference,
    bohr_sommerfeld_energy,
    path_from_complex,
    reduced_wkb_integral,
    wkb_phase,
    wkb_phase_derivative,
)
from .spectral import (
    asymptotic_spectrum,
    eigenvalues,
    fock_goncharov,
    r_zero,
    sector_wronskian,
    semiclassical_r_zero,
    spectral_determinant,
    spectrum_table,
    stokes_multiplier,
)
from .volterra import volterra_solve
from .geometry import (
    check_admissible,
    stokes_complex,
    topology_signature,
    trace_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "CoverPoint",
    "CriticalData",
    "OscillatorParams",
    "PathSpec",
    "TurningPointSet",
    "asymptotic_reference",
    "asymptotic_spectrum",
    "bohr_sommerfeld_energy",
    "check_admissible",
    "critical_data",
    "eigenvalues",
    "eval_forcing",
    "eval_reduced",
    "fock_goncharov",
    "path_from_complex",
    "r_zero",
    "reduced_wkb_integral",
    "sector_wronskian",
    "semiclassical_r_zero",
    "spectral_determinant",
    "spectrum_table",
    "stokes_complex",
    "stokes_multiplier",
    "to_hbar_coords",
    "topology_signature",
    "trace_trajectory",
    "turning_points",
    "volterra_solve",
    "wkb_phase",
    "wkb_phase_derivative",
    "__version__",
]
