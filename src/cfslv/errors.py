"""Exception types shared across the toolkit."""


class ResourceBudgetError(RuntimeError):
    """An enumeration would exceed its configured work budget.

    Raised before any large allocation happens, so callers can retry
    with a bigger budget or a smaller instance.
    """


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to reach its tolerance.

    No cfslv routine raises it now (eigenvalues come from LAPACK, whose
    failures surface as numpy.linalg.LinAlgError, a ValueError).  It
    stays public so callers that isolate per-trial failures by type can
    keep naming it.
    """
