"""Sorting isospectral flow on zero-diagonal Jacobi matrices.

The flow preserves the spectrum of its initial matrix and converges to a
block-diagonal limit whose couplings are the eigenvalue magnitudes in
increasing order, each keeping the sign of the matching initial entry. The
package provides the closed-form componentwise integrator, a dense
double-bracket integrator for cross-validation and experiments, an
independent Sturm-bisection eigensolver, limit prediction, equilibrium
enumeration, a verification suite, and a CLI.
"""

from .errors import (
    DegenerateSpectrum,
    EquilibriumInput,
    KvmflowError,
    NonConvergence,
    ParseError,
    ValidationFailure,
)
from .flow import (
    DenseTrajectory,
    FlowTrajectory,
    IntegratorConfig,
    integrate,
    integrate_dense,
)
from .jacobi import (
    commutator,
    embed,
    equilibrium_residual,
    lyapunov_f,
    lyapunov_f_traceform,
    map_K,
    map_N,
    rhs_componentwise,
    rhs_matrix,
)
from .io import (
    MatrixInputDocument,
    parse_input,
    write_summary,
    write_trajectory_csv,
)
from .kernels import lane
from .spectral import (
    EquilibriumSet,
    Spectrum,
    eigenvalues_tridiagonal,
    enumerate_equilibria,
    predict_limit,
    spectrum_zero_diag,
)
from .verify import (
    VerificationReport,
    verify_equilibrium_counts,
    verify_identities,
    verify_run,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "lane",
    # jacobi
    "embed",
    "map_N",
    "map_K",
    "commutator",
    "rhs_componentwise",
    "rhs_matrix",
    "lyapunov_f",
    "lyapunov_f_traceform",
    "equilibrium_residual",
    # spectral
    "Spectrum",
    "EquilibriumSet",
    "eigenvalues_tridiagonal",
    "spectrum_zero_diag",
    "predict_limit",
    "enumerate_equilibria",
    # flow
    "IntegratorConfig",
    "FlowTrajectory",
    "DenseTrajectory",
    "integrate",
    "integrate_dense",
    # verify
    "VerificationReport",
    "verify_run",
    "verify_identities",
    "verify_equilibrium_counts",
    # io
    "MatrixInputDocument",
    "parse_input",
    "write_trajectory_csv",
    "write_summary",
    # errors
    "KvmflowError",
    "NonConvergence",
    "DegenerateSpectrum",
    "EquilibriumInput",
    "ValidationFailure",
    "ParseError",
]
