"""Exception hierarchy for kvmflow."""


class KvmflowError(Exception):
    """Base class for all kvmflow errors."""


class NonConvergence(KvmflowError):
    """A numeric kernel failed: a bisection bracket failed to shrink
    (kernels._bisect), a flow run's step fell below its floor or spent its
    step budget (kernels._integrate), or a run diverged (flow._run)."""


class EquilibriumInput(KvmflowError):
    """Input is a flow equilibrium; the limit formula does not apply."""


class ValidationFailure(KvmflowError):
    """Input breaks a rule of the input contract (document schema, matching
    dimensions, a finite nonzero off-diagonal, a symmetric matrix, a
    (+/-)-paired and distinct spectrum, ranges)."""


class DegenerateSpectrum(ValidationFailure):
    """Eigenvalues are not pairwise distinct within the gap tolerance."""


class ParseError(KvmflowError):
    """Input document is not valid JSON."""
