"""Dense tableau simplex engine with dual-simplex warm starting.

The tableau stores the dictionary form

    x_B + body @ x_N = rhs

together with the reduced costs of a minimization objective,

    value = -cost_corner + cost_row @ x_N,

so the current vertex (x_N = 0, x_B = rhs) has objective ``-cost_corner``.
The tableau is primal feasible when ``rhs >= 0`` and dual feasible when
``cost_row >= 0``, both within ``FEAS_TOL``.

Both solvers price by exact steepest edge (Forrest & Goldfarb 1992) through
one selection helper: primal simplex enters the column maximizing
``c_j**2 / (1 + ||body[:, j]||**2)`` and dual simplex removes the row
maximizing ``rhs_i**2 / (1 + ||body[i, :]||**2)``, with the norms recomputed
each iteration.  After ``NONIMPROVING_LIMIT`` consecutive pivots that leave
the objective unchanged, both fall back to Bland's smallest-index rule until
the objective moves, which guarantees termination on degenerate LPs.  Ratio
tests take the minimum ratio, ties broken by the smallest variable index.

Besides primal and dual simplex the module provides the two warm-start
transformations used throughout the package: a signed shift of the
right-hand sides of inequalities (via their slack variables; deleting an
edge is a shift by minus its capacity) and appending a new inequality row
to an optimal tableau, plus the sensitivity of the optimal value with
respect to a right-hand-side entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotDualFeasible,
    NotPrimalFeasible,
    SingularBasis,
    UnknownConstraint,
)

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
# consecutive pivots that leave the objective unchanged before both solvers
# switch from steepest-edge pricing to Bland's rule until the objective moves
NONIMPROVING_LIMIT = 200


class Status(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


class SimplexTableau:
    """Dense simplex dictionary over a basic/non-basic variable partition.

    Variables are identified by global integer indices; ``basic_vars[r]`` is
    the variable expressed by row ``r`` and ``nonbasic_vars[j]`` the variable
    of column ``j``.  ``constraint_slacks`` maps constraint ids of the
    original inequalities to the global index of their slack variable, which
    is what ``shift_rhs`` and ``rhs_sensitivity`` operate on.
    """

    def __init__(self, basic_vars, nonbasic_vars, body, rhs, cost_row,
                 cost_corner=0.0, constraint_slacks=None, n_original=None):
        self.basic_vars = np.asarray(basic_vars, dtype=int).copy()
        self.nonbasic_vars = np.asarray(nonbasic_vars, dtype=int).copy()
        self.body = np.array(body, dtype=float, ndmin=2).copy()
        self.rhs = np.asarray(rhs, dtype=float).copy()
        self.cost_row = np.asarray(cost_row, dtype=float).copy()
        self.cost_corner = float(cost_corner)
        self.constraint_slacks = dict(constraint_slacks or {})
        self.n_original = (self.n_total if n_original is None else int(n_original))
        if self.body.shape != (len(self.basic_vars), len(self.nonbasic_vars)):
            raise DimensionMismatch("body shape does not match the variable partition")
        if self.rhs.shape != (len(self.basic_vars),):
            raise DimensionMismatch("rhs length does not match the row count")
        if self.cost_row.shape != (len(self.nonbasic_vars),):
            raise DimensionMismatch("cost row length does not match the column count")

    # -- bookkeeping --------------------------------------------------

    @property
    def n_rows(self):
        return len(self.basic_vars)

    @property
    def n_nonbasic(self):
        return len(self.nonbasic_vars)

    @property
    def n_total(self):
        return len(self.basic_vars) + len(self.nonbasic_vars)

    @property
    def objective(self):
        """Objective value at the current vertex."""
        return -self.cost_corner

    def copy(self):
        # the arrays are already validated, so skip __init__
        t = object.__new__(SimplexTableau)
        t.basic_vars = self.basic_vars.copy()
        t.nonbasic_vars = self.nonbasic_vars.copy()
        t.body = self.body.copy()
        t.rhs = self.rhs.copy()
        t.cost_row = self.cost_row.copy()
        t.cost_corner = self.cost_corner
        t.constraint_slacks = dict(self.constraint_slacks)
        t.n_original = self.n_original
        return t

    def is_primal_feasible(self, tol=FEAS_TOL):
        return bool((self.rhs >= -tol).all())

    def is_dual_feasible(self, tol=FEAS_TOL):
        return bool((self.cost_row >= -tol).all())

    def basic_row_of(self, var):
        """Row index of a basic variable, or None if it is non-basic."""
        hits = np.nonzero(self.basic_vars == var)[0]
        return int(hits[0]) if hits.size else None

    def nonbasic_col_of(self, var):
        hits = np.nonzero(self.nonbasic_vars == var)[0]
        return int(hits[0]) if hits.size else None

    def solution_point(self):
        """Full variable vector of the current vertex (non-basics at zero)."""
        point = np.zeros(int(max(self.basic_vars.max(initial=-1),
                                 self.nonbasic_vars.max(initial=-1))) + 1)
        point[self.basic_vars] = self.rhs
        return point

    def set_cost(self, full_cost):
        """Replace the objective by ``full_cost`` over the global variables.

        Variables beyond ``len(full_cost)`` (slacks of later cut rows) get
        zero cost.  Reduced costs and the corner are recomputed for the
        current basis; feasibility of the vertex is unaffected.
        """
        full_cost = np.asarray(full_cost, dtype=float)
        c = np.zeros(int(max(self.basic_vars.max(initial=-1),
                             self.nonbasic_vars.max(initial=-1))) + 1)
        c[: len(full_cost)] = full_cost
        c_b = c[self.basic_vars]
        self.cost_row = c[self.nonbasic_vars] - c_b @ self.body
        self.cost_corner = -float(c_b @ self.rhs)

    # -- pivoting -----------------------------------------------------

    def pivot(self, row, col):
        """Exchange basic_vars[row] with nonbasic_vars[col]."""
        piv = self.body[row, col]
        if abs(piv) <= PIVOT_TOL:
            raise SingularBasis(f"pivot element {piv!r} below tolerance")
        new_row = self.body[row] / piv
        new_row[col] = 1.0 / piv
        leaving_col = self.body[:, col].copy()
        self.body[:, col] = 0.0
        self.body -= np.outer(leaving_col, new_row)
        self.body[row] = new_row
        new_rhs = self.rhs[row] / piv
        self.rhs -= leaving_col * new_rhs
        self.rhs[row] = new_rhs
        c_col = self.cost_row[col]
        self.cost_row[col] = 0.0
        self.cost_row -= c_col * new_row
        self.cost_corner -= c_col * new_rhs
        self.basic_vars[row], self.nonbasic_vars[col] = (
            self.nonbasic_vars[col],
            self.basic_vars[row],
        )


@dataclass
class SolveOutcome:
    status: Status
    tableau: SimplexTableau
    objective: float
    pivot_count: int


def default_max_pivots(tableau):
    return 10 * (tableau.n_rows + tableau.n_nonbasic) ** 2


def _pivot(t, row, col, nonimproving):
    """Pivot and return the updated count of consecutive non-improving pivots."""
    corner = t.cost_corner
    t.pivot(row, col)
    return nonimproving + 1 if abs(t.cost_corner - corner) <= FEAS_TOL else 0


def _choose(values, lines, labels, bland):
    """Position of the pricing choice among ``values < -FEAS_TOL``, or None.

    ``lines`` holds the tableau line of each candidate as a column: ``body``
    for the primal entering column, ``body.T`` for the dual leaving row.
    Steepest edge takes the argmax of ``values**2 / (1 + ||line||**2)``, with
    the norms recomputed exactly over the whole array; ``bland`` takes the
    candidate with the smallest variable index in ``labels`` instead.
    """
    eligible = values < -FEAS_TOL
    if not eligible.any():
        return None
    if bland:
        return int(np.flatnonzero(eligible)[np.argmin(labels[eligible])])
    norms = np.einsum("ij,ij->j", lines, lines)
    return int(np.argmax(np.where(eligible, values * values / (1.0 + norms), -1.0)))


def primal_simplex(tableau, max_pivots=None):
    """Run primal simplex on a primal-feasible tableau.

    The entering column is priced by steepest edge, falling back to Bland's
    smallest index after ``NONIMPROVING_LIMIT`` consecutive pivots that
    leave the objective unchanged.  The ratio test takes the minimum ratio
    with ties broken by the smallest variable index.
    """
    t = tableau.copy()
    if not t.is_primal_feasible():
        raise NotPrimalFeasible(f"rhs has negative entries: min={t.rhs.min()}")
    if max_pivots is None:
        max_pivots = default_max_pivots(t)
    pivots = nonimproving = 0
    while True:
        col = _choose(t.cost_row, t.body, t.nonbasic_vars,
                      nonimproving >= NONIMPROVING_LIMIT)
        if col is None:
            return SolveOutcome(Status.OPTIMAL, t, t.objective, pivots)
        column = t.body[:, col]
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return SolveOutcome(Status.UNBOUNDED, t, t.objective, pivots)
        ratios = t.rhs[rows] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + FEAS_TOL]
        row = int(ties[np.argmin(t.basic_vars[ties])])
        if pivots >= max_pivots:
            return SolveOutcome(Status.ITERATION_LIMIT, t, t.objective, pivots)
        nonimproving = _pivot(t, row, col, nonimproving)
        pivots += 1


def dual_simplex(tableau, max_pivots=None):
    """Run dual simplex on a dual-feasible tableau.

    The leaving row is priced by steepest edge over the rows with negative
    rhs, falling back to Bland's smallest basic index after
    ``NONIMPROVING_LIMIT`` consecutive pivots that leave the objective
    unchanged.  The entering column is chosen by the dual ratio test with
    ties broken by the smallest variable index.  On INFEASIBLE the returned
    tableau contains a certificate row (negative rhs, all coefficients >= 0).
    """
    t = tableau.copy()
    if not t.is_dual_feasible():
        raise NotDualFeasible(f"cost row has negative entries: min={t.cost_row.min()}")
    if max_pivots is None:
        max_pivots = default_max_pivots(t)
    pivots = nonimproving = 0
    while True:
        row = _choose(t.rhs, t.body.T, t.basic_vars,
                      nonimproving >= NONIMPROVING_LIMIT)
        if row is None:
            return SolveOutcome(Status.OPTIMAL, t, t.objective, pivots)
        neg = np.nonzero(t.body[row] < -PIVOT_TOL)[0]
        if neg.size == 0:
            return SolveOutcome(Status.INFEASIBLE, t, t.objective, pivots)
        ratios = t.cost_row[neg] / (-t.body[row, neg])
        best = ratios.min()
        ties = neg[ratios <= best + FEAS_TOL]
        col = int(ties[np.argmin(t.nonbasic_vars[ties])])
        if pivots >= max_pivots:
            return SolveOutcome(Status.ITERATION_LIMIT, t, t.objective, pivots)
        nonimproving = _pivot(t, row, col, nonimproving)
        pivots += 1


def shift_rhs(tableau, increase):
    """Add ``increase[c]`` to the right-hand side of each original inequality
    ``c``, in place; the amounts are signed.

    A constraint whose slack is basic only moves that slack's value:
    ``rhs[row] += d``.  Over the constraints whose slacks are non-basic, at
    columns ``cols``, the whole rhs column shifts by ``body[:, cols] @ d`` and
    the corner by ``cost_row[cols] @ d``.  The basis and the cost row are
    untouched, so a dual-feasible tableau stays dual feasible and is ready
    for ``dual_simplex``.
    """
    try:
        slacks = np.array([tableau.constraint_slacks[c] for c in increase], dtype=int)
    except KeyError as missing:
        raise UnknownConstraint(
            f"no slack registered for constraint {missing.args[0]!r}") from None
    d = np.fromiter(increase.values(), dtype=float, count=slacks.size)
    which, rows = (slacks[:, None] == tableau.basic_vars).nonzero()
    if rows.size:
        tableau.rhs[rows] += d[which]
    if rows.size < slacks.size:
        which, cols = (slacks[:, None] == tableau.nonbasic_vars).nonzero()
        d = d[which]
        tableau.rhs += tableau.body[:, cols].dot(d)
        tableau.cost_corner += float(tableau.cost_row[cols].dot(d))


def tighten_rhs(tableau, constraint_id, delta):
    """Reduce the right-hand side of an original inequality by ``delta``.

    Returns a new tableau for the daughter LP: a copy shifted by
    ``shift_rhs`` with ``-delta``.  If the constraint's slack is basic only
    its value shrinks, and the tableau stays optimal while that value stays
    non-negative; otherwise the rhs column and the corner shift.  Either way
    the result is dual feasible and ready for ``dual_simplex``.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if constraint_id not in tableau.constraint_slacks:
        raise UnknownConstraint(f"no slack registered for constraint {constraint_id!r}")
    t = tableau.copy()
    if delta != 0:
        shift_rhs(t, {constraint_id: -delta})
    return t


def rhs_sensitivity(tableau, constraint_id):
    """d(optimal value)/d(b_i) under the fixed-basis assumption.

    Zero when the constraint's slack is basic (the inequality is inactive);
    minus the slack's reduced cost when it is non-basic.  At basis
    breakpoints this is the one-sided derivative implied by the current
    tableau.
    """
    if constraint_id not in tableau.constraint_slacks:
        raise UnknownConstraint(f"no slack registered for constraint {constraint_id!r}")
    slack = tableau.constraint_slacks[constraint_id]
    if tableau.basic_row_of(slack) is not None:
        return 0.0
    col = tableau.nonbasic_col_of(slack)
    return -float(tableau.cost_row[col])


def add_cut_row(tableau, a_coeffs, b0, constraint_id=None):
    """Append the inequality <a_coeffs, x> <= b0 to an optimal tableau.

    ``a_coeffs`` ranges over the tableau's original variables; slacks of
    previously added cuts implicitly get coefficient zero.  The new row is
    expressed over the current non-basic variables and its fresh slack
    enters the basis, so the cost row is unchanged and the result is dual
    feasible.  If the new rhs entry is negative, run ``dual_simplex``.
    """
    a_coeffs = np.asarray(a_coeffs, dtype=float)
    if a_coeffs.shape != (tableau.n_original,):
        raise DimensionMismatch(
            f"cut has {a_coeffs.size} coefficients, expected {tableau.n_original}"
        )
    if not tableau.is_dual_feasible():
        raise NotDualFeasible("cut rows may only be added to an optimal tableau")
    t = tableau.copy()
    hi = int(max(t.basic_vars.max(initial=-1), t.nonbasic_vars.max(initial=-1))) + 1
    a = np.zeros(hi)
    a[: a_coeffs.size] = a_coeffs
    a_basic = a[t.basic_vars]
    a_nonbasic = a[t.nonbasic_vars]
    new_row = a_nonbasic - t.body.T @ a_basic
    new_rhs = float(b0) - float(a_basic @ t.rhs)
    slack = hi
    t.basic_vars = np.append(t.basic_vars, slack)
    t.body = np.vstack([t.body, new_row])
    t.rhs = np.append(t.rhs, new_rhs)
    if constraint_id is not None:
        t.constraint_slacks[constraint_id] = slack
    return t
