"""Exception hierarchy for kvmflow."""


class KvmflowError(Exception):
    """Base class for all kvmflow errors."""


class DimensionMismatch(KvmflowError):
    """Matrix or vector dimensions are incompatible."""


class NonConvergence(KvmflowError):
    """A bisection bracket failed to shrink, or a flow run diverged or stopped short."""


class PairingViolation(KvmflowError):
    """Spectrum of a zero-diagonal matrix is not (+/-)-symmetric; eigensolver fault."""


class EquilibriumInput(KvmflowError):
    """Input is a flow equilibrium; the limit formula does not apply."""


class ValidationFailure(KvmflowError):
    """Input breaks a rule of the input contract (document schema, a finite
    nonzero off-diagonal, a symmetric matrix, a distinct spectrum, ranges)."""


class DegenerateSpectrum(ValidationFailure):
    """Eigenvalues are not pairwise distinct within the gap tolerance."""


class StepUnderflow(KvmflowError):
    """Adaptive step fell below 1e-14 of the run's time scale; tolerances too tight."""


class ParseError(KvmflowError):
    """Input document is not valid JSON."""
