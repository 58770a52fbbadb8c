"""Exception hierarchy for kvmflow."""


class KvmflowError(Exception):
    """Base class for all kvmflow errors."""


class DimensionMismatch(KvmflowError):
    """Matrix or vector dimensions are incompatible."""


class StructureViolation(KvmflowError):
    """A matrix left the zero-diagonal tridiagonal manifold beyond tolerance."""


class NonConvergence(KvmflowError):
    """A bisection bracket failed to shrink, or a flow run diverged or stopped short."""


class PairingViolation(KvmflowError):
    """Spectrum of a zero-diagonal matrix is not (+/-)-symmetric; eigensolver fault."""


class DegenerateMagnitudes(KvmflowError):
    """Eigenvalue magnitudes are not strictly separated (or vanish for even n)."""


class ZeroEntry(KvmflowError):
    """Off-diagonal entry is zero where a sign is required."""


class EquilibriumInput(KvmflowError):
    """Input is a flow equilibrium; the limit formula does not apply."""


class ValidationFailure(KvmflowError):
    """Initial condition fails flow validation (zero entry / degenerate spectrum)."""


class DegenerateSpectrum(ValidationFailure):
    """Eigenvalues are not pairwise distinct within the gap tolerance."""


class StepUnderflow(KvmflowError):
    """Adaptive step fell below 1e-14 * t_max; tolerances are misconfigured."""


class ParseError(KvmflowError):
    """Input document is not valid JSON."""


class ValidationError(KvmflowError):
    """Input document violates the schema (dimensions, symmetry, types)."""
