"""Exception types shared across the package.

The CLI exits 2 on these numeric and infeasibility problems; a
configuration that fails validation exits 1.
"""


class NumericError(RuntimeError):
    """A numerical procedure failed to converge or exceeded its budget.

    Carries a human-readable diagnostic (the subdivision depth and panel
    error of the adaptive integrator).
    """


class InfeasibleError(RuntimeError):
    """A power-allocation target cannot be met with the given budget.

    The message names the binding target.
    """


class DegenerateGeometryError(InfeasibleError):
    """The closed-form allocation hit a vanishing denominator.

    Happens when the two downlink defining equations are (numerically)
    linearly dependent, e.g. identical moment ratios for both users.
    """
