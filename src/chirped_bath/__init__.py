"""Decay of a two-level emitter coupled to a frequency-chirped bath of modes
under a fixed Lorentzian coupling envelope.

Three mutually cross-checking solution routes are provided: direct
integration of the discrete-bath amplitude equations (`dynamics`), a
product-integration solver for the memory-kernel equation (`volterra`), and
closed-form limits (`closedform`).  `spectra` and `analysis` extract
observables; `cli` exposes everything as a command-line tool.

Loading the package loads no scipy module: numpy's trapezoid and FFT match
scipy's and import in milliseconds, where `scipy.integrate` alone took about
0.45 s on a 2-CPU Xeon.
"""

from .analysis import (
    DecayFit,
    RabiMeasurement,
    RegimeReport,
    classify,
    dimensionless_chi,
    extract_rabi,
    fit_decay,
    mirror_chirp,
)
from .closedform import (
    bessel_k0i_abs2,
    gamma_infinity,
    gamma_infinity_asymptotic,
    markovian_ca,
    perturbed_rabi,
    pseudomode_solve,
    static_exact_ca,
    weak_gamma_t,
    weak_lowchirp_gamma,
)
from .dynamics import Trajectory, evolve
from .errors import (
    GridCoverageError,
    SolverError,
    StepSizeUnderflowError,
    ValidationError,
)
from .model import (
    BathGrid,
    ModelParams,
    build_grid,
    coupling,
    memory_kernel,
    rabi_frequency,
    structure_function,
    xi,
)
from .spectra import (
    SpectrumSeries,
    analytic_static_spectrum,
    detached_peak_area,
    longtime_spectrum,
    numeric_spectrum,
    spectrum_closure,
    static_ck,
)
from .volterra import VolterraSolution, solve_volterra

__version__ = "0.1.0"

__all__ = [
    "BathGrid",
    "DecayFit",
    "GridCoverageError",
    "ModelParams",
    "RabiMeasurement",
    "RegimeReport",
    "SolverError",
    "SpectrumSeries",
    "StepSizeUnderflowError",
    "Trajectory",
    "ValidationError",
    "VolterraSolution",
    "analytic_static_spectrum",
    "bessel_k0i_abs2",
    "build_grid",
    "classify",
    "coupling",
    "detached_peak_area",
    "dimensionless_chi",
    "evolve",
    "extract_rabi",
    "fit_decay",
    "gamma_infinity",
    "gamma_infinity_asymptotic",
    "longtime_spectrum",
    "markovian_ca",
    "memory_kernel",
    "mirror_chirp",
    "numeric_spectrum",
    "perturbed_rabi",
    "pseudomode_solve",
    "rabi_frequency",
    "solve_volterra",
    "spectrum_closure",
    "static_ck",
    "static_exact_ca",
    "structure_function",
    "weak_gamma_t",
    "weak_lowchirp_gamma",
    "xi",
]
