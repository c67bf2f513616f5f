"""Exception hierarchy for robustflow.

``DataError`` subtypes signal problems with the problem data (infeasible or
disconnected instances); ``InputError`` subtypes signal malformed input files
or arguments; ``SolverError`` signals a simplex solve that stopped short of
an optimum.  The CLI maps these to exit codes 1, 2 and 3 respectively.
"""


class RobustFlowError(Exception):
    """Base class for all robustflow errors."""


class DataError(RobustFlowError):
    """The instance data admits no solution (infeasible / disconnected)."""


class InputError(RobustFlowError):
    """Malformed input file or invalid argument combination."""


# --- simplex engine -------------------------------------------------------

class NotPrimalFeasible(RobustFlowError):
    """Primal simplex was started from a tableau with a negative rhs entry."""


class NotDualFeasible(RobustFlowError):
    """Dual simplex was started from a tableau with a negative reduced cost."""


class UnknownConstraint(RobustFlowError):
    """The constraint id has no slack variable registered on the tableau."""


class DimensionMismatch(RobustFlowError):
    """A coefficient vector does not match the tableau's variable count."""


class SingularBasis(RobustFlowError):
    """The requested basis matrix is numerically singular."""


class SolverError(RobustFlowError):
    """A solve ended without an optimum: the pivot cap was reached or the
    status cannot occur for that LP.  ``scenario`` holds the deleted edges
    when the solve belonged to a failure scenario, else None."""

    def __init__(self, message, scenario=None):
        self.scenario = None if scenario is None else tuple(scenario)
        super().__init__(message)


# --- network / flow LPs ---------------------------------------------------

class InfeasibleSystem(DataError):
    """The balance equations are inconsistent with the demand Laplacian."""


class NoIndependentColumns(DataError):
    """No regular column subset of the reduced incidence matrix exists."""


class ZeroThroughput(DataError):
    """An operation required a strictly positive optimal throughput."""


class SaturatedEdge(DataError):
    """A nonlinear latency was evaluated at a flow at or above capacity."""


class NoDemand(DataError):
    """The demand matrix is identically zero."""


# --- robust evaluation ----------------------------------------------------

class ScenarioInfeasible(DataError):
    """One or more failure scenarios disconnect a demand pair."""

    def __init__(self, scenarios):
        self.scenarios = [tuple(s) for s in scenarios]
        super().__init__(
            "infeasible failure scenarios: "
            + ", ".join(str(s) for s in self.scenarios)
        )


class ScenarioLimitExceeded(InputError):
    """The scenario count exceeds the enumeration gate and no override was given."""


class NoTableau(RobustFlowError):
    """The worst-scenario tableau was not retained by the evaluation."""


# --- ingestion ------------------------------------------------------------

class ParseError(InputError):
    """A document could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)


class SchemaError(InputError):
    """A JSON instance violates the schema."""

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid field: {field}")


class UnknownNode(InputError):
    """A link or demand references a node that was never declared."""


class NonPositiveCapacity(InputError):
    """A link carries a capacity that is not strictly positive."""
