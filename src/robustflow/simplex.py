"""Dense tableau simplex engine with dual-simplex warm starting.

A tableau stores the dictionary form ``x_B + body @ x_N = rhs`` together
with the reduced costs of a minimization objective,
``value = -cost_corner + cost_row @ x_N``, so the current vertex
(x_N = 0, x_B = rhs) has objective ``-cost_corner``.  The four pieces live
in one float array ``tab = [[body, rhs], [cost_row, cost_corner]]``: a pivot
is one rank-1 update of ``tab`` and a copy copies one array.  The tableau is
primal feasible when ``rhs >= 0`` and dual feasible when ``cost_row >= 0``,
both within ``FEAS_TOL``.

Primal and dual simplex run one loop, and both solve the tableau they are
given in place.  The dual simplex is the primal simplex on the transposed
array ``tab.T`` (Chvatal 1983, ch. 10): there the rhs prices the columns and
a negated tableau row is the ratio line.  Pricing is exact steepest edge
(Forrest & Goldfarb 1992), the argmax of ``c_j**2 / (1 + ||line_j||**2)``
with the norms recomputed each iteration.  Ratio ties go to the largest
variable index.  While the objective stays put each basis is recorded, and
when one recurs pricing falls back to Bland's rule under that same order
until the objective moves, which guarantees termination (Bland 1977).

The warm-start transformations used throughout the package are a signed
shift of the right-hand sides of inequalities via their slack variables
(``shift_rhs`` in place, ``tighten_rhs`` on a copy; deleting an edge is a
shift by minus its capacity) and appending an inequality row to an optimal
tableau; ``rhs_sensitivity`` reads the derivative of the optimal value with
respect to a right-hand side.
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
# pricing values beyond this are scaled before they are squared
SCALE_ABOVE = 1e150


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
    is what ``shift_rhs`` and ``rhs_sensitivity`` operate on.  The numbers
    live in one array ``tab``; ``body``, ``rhs`` and ``cost_row`` are
    read-only views of it.
    """

    def __init__(self, basic_vars, nonbasic_vars, body, rhs, cost_row,
                 cost_corner=0.0, constraint_slacks=None, n_original=None):
        self.basic_vars = np.asarray(basic_vars, dtype=int).copy()
        self.nonbasic_vars = np.asarray(nonbasic_vars, dtype=int).copy()
        shape = (len(self.basic_vars), len(self.nonbasic_vars))
        body = np.atleast_2d(np.asarray(body, dtype=float))
        if body.shape != shape:
            raise DimensionMismatch("body shape does not match the variable partition")
        if np.shape(rhs) != shape[:1]:
            raise DimensionMismatch("rhs length does not match the row count")
        if np.shape(cost_row) != shape[1:]:
            raise DimensionMismatch("cost row length does not match the column count")
        self.tab = np.empty((shape[0] + 1, shape[1] + 1))
        self.tab[:-1, :-1] = body
        self.tab[:-1, -1] = rhs
        self.tab[-1, :-1] = cost_row
        self.tab[-1, -1] = cost_corner
        self.constraint_slacks = dict(constraint_slacks or {})
        self.n_original = (self.n_total if n_original is None else int(n_original))

    # -- bookkeeping --------------------------------------------------

    @property
    def body(self):
        return _read_only(self.tab[:-1, :-1])

    @property
    def rhs(self):
        return _read_only(self.tab[:-1, -1])

    @property
    def cost_row(self):
        return _read_only(self.tab[-1, :-1])

    @property
    def cost_corner(self):
        return float(self.tab[-1, -1])

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
        return self._with(self.basic_vars.copy(), self.tab.copy())

    def _with(self, basic_vars, tab):
        """A tableau of ``basic_vars`` and ``tab`` (owned, already valid)
        over copies of the other fields."""
        t = object.__new__(SimplexTableau)
        t.basic_vars = basic_vars
        t.nonbasic_vars = self.nonbasic_vars.copy()
        t.tab = tab
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

    def _n_vars(self):
        """One past the largest variable index."""
        return int(max(self.basic_vars.max(initial=-1),
                       self.nonbasic_vars.max(initial=-1))) + 1

    def solution_point(self):
        """Full variable vector of the current vertex (non-basics at zero)."""
        point = np.zeros(self._n_vars())
        point[self.basic_vars] = self.rhs
        return point

    # -- pivoting -----------------------------------------------------

    def pivot(self, row, col):
        """Exchange basic_vars[row] with nonbasic_vars[col] by one rank-1
        update of ``tab``."""
        tab = self.tab
        piv = tab[row, col]
        if abs(piv) <= PIVOT_TOL:
            raise SingularBasis(f"pivot element {piv!r} below tolerance")
        new_row = tab[row] / piv
        new_row[col] = 1.0 / piv
        leaving_col = tab[:, col].copy()
        tab[:, col] = 0.0
        tab -= np.outer(leaving_col, new_row)
        tab[row] = new_row
        self.basic_vars[row], self.nonbasic_vars[col] = (
            self.nonbasic_vars[col],
            self.basic_vars[row],
        )


def _read_only(view):
    view.flags.writeable = False
    return view


@dataclass
class SolveOutcome:
    status: Status
    tableau: SimplexTableau
    objective: float
    pivot_count: int


def default_max_pivots(tableau):
    return 10 * (tableau.n_rows + tableau.n_nonbasic) ** 2


def _choose(values, lines, labels, bland):
    """Position of the pricing choice among ``values < -FEAS_TOL``, or None.

    ``lines`` holds the tableau line of each candidate as a column.
    Steepest edge takes the argmax of ``values**2 / (1 + ||line||**2)``, with
    the norms recomputed exactly over the whole array; ``bland`` takes the
    candidate with the largest variable index in ``labels`` instead.  When some
    |value| exceeds ``SCALE_ABOVE``, all values are first scaled by one
    power of two: every score scales by its square, exactly, so the squares
    cannot overflow and the argmax stays put.
    """
    eligible = values < -FEAS_TOL
    if not eligible.any():
        return None
    if bland:
        return int(np.flatnonzero(eligible)[np.argmax(labels[eligible])])
    largest = np.abs(values).max()
    if largest > SCALE_ABOVE:
        values = np.ldexp(values, -np.frexp(largest)[1])
    norms = np.einsum("ij,ij->j", lines, lines)
    return int(np.argmax(np.where(eligible, values * values / (1.0 + norms), -1.0)))


def _simplex(t, max_pivots, dual):
    """Primal simplex on ``a = t.tab``, or on ``a = t.tab.T`` when ``dual``.

    A column j of ``a`` with a negative price ``a[-1, j]`` enters, and the
    minimum ratio ``a[i, -1] / line[i]`` over the positive entries of its
    line picks the row i that leaves.  On the transpose the prices are the
    rhs, the ratio numerators the reduced costs and the line is the negated
    tableau row: the dual simplex, with ``basic_vars`` labelling the columns.
    A dual row with no eligible entry proves infeasibility unless its rhs is
    negative only by rounding, at most ``FEAS_TOL`` times the largest |rhs|:
    such an rhs is set to zero and the loop goes on.
    """
    a = t.tab.T if dual else t.tab
    col_vars, row_vars = (t.basic_vars, t.nonbasic_vars) if dual else (
        t.nonbasic_vars, t.basic_vars)
    sign = -1.0 if dual else 1.0
    if max_pivots is None:
        max_pivots = default_max_pivots(t)
    pivots, visited, bland = 0, set(), False
    while True:
        j = _choose(a[-1, :-1], a[:-1, :-1], col_vars, bland)
        if j is None:
            return SolveOutcome(Status.OPTIMAL, t, t.objective, pivots)
        line = sign * a[:-1, j]
        rows = np.nonzero(line > PIVOT_TOL)[0]
        if rows.size == 0:
            if dual and -a[-1, j] <= FEAS_TOL * max(1.0, np.abs(a[-1, :-1]).max()):
                a[-1, j] = 0.0
                continue
            status = Status.INFEASIBLE if dual else Status.UNBOUNDED
            return SolveOutcome(status, t, t.objective, pivots)
        ratios = a[rows, -1] / line[rows]
        ties = rows[ratios <= ratios.min() + FEAS_TOL]
        i = int(ties[np.argmax(row_vars[ties])])
        if pivots >= max_pivots:
            return SolveOutcome(Status.ITERATION_LIMIT, t, t.objective, pivots)
        corner = t.cost_corner
        t.pivot(*((j, i) if dual else (i, j)))
        pivots += 1
        if abs(t.cost_corner - corner) > FEAS_TOL:
            visited, bland = set(), False
        elif not bland:
            basis = np.sort(t.basic_vars).tobytes()
            bland = basis in visited
            visited.add(basis)


def primal_simplex(tableau, max_pivots=None):
    """Run primal simplex on a primal-feasible tableau, in place; the
    outcome holds ``tableau`` itself."""
    if not tableau.is_primal_feasible():
        raise NotPrimalFeasible(f"rhs has negative entries: min={tableau.rhs.min()}")
    return _simplex(tableau, max_pivots, dual=False)


def dual_simplex(tableau, max_pivots=None):
    """Run dual simplex on a dual-feasible tableau, in place; the outcome
    holds ``tableau`` itself.  On INFEASIBLE it contains a certificate row
    (negative rhs, all coefficients >= 0)."""
    if not tableau.is_dual_feasible():
        raise NotDualFeasible(
            f"cost row has negative entries: min={tableau.cost_row.min()}")
    return _simplex(tableau, max_pivots, dual=True)


def _slacks(tableau, constraint_ids):
    """Global indices of the slacks of ``constraint_ids``, in order."""
    try:
        return np.array([tableau.constraint_slacks[c] for c in constraint_ids], dtype=int)
    except KeyError as missing:
        raise UnknownConstraint(
            f"no slack registered for constraint {missing.args[0]!r}") from None


def shift_rhs(tableau, increase):
    """Add ``increase[c]`` to the right-hand side of each original inequality
    ``c``, in place; the amounts are signed.

    A constraint whose slack is basic only moves that slack's value:
    ``rhs[row] += d``.  Over the constraints whose slacks are non-basic, at
    columns ``cols``, the last column of ``tab`` (the rhs and the corner)
    shifts by ``tab[:, cols] @ d``.  The basis and the cost row are
    untouched, so a dual-feasible tableau stays dual feasible and is ready
    for ``dual_simplex``.
    """
    slacks = _slacks(tableau, increase)
    d = np.fromiter(increase.values(), dtype=float, count=slacks.size)
    tab = tableau.tab
    which, rows = (slacks[:, None] == tableau.basic_vars).nonzero()
    if rows.size:
        tab[rows, -1] += d[which]
    if rows.size < slacks.size:
        which, cols = (slacks[:, None] == tableau.nonbasic_vars).nonzero()
        tab[:, -1] += tab[:, cols] @ d[which]


def tighten_rhs(tableau, constraint_id, delta):
    """Reduce the right-hand side of an original inequality by ``delta``.

    Returns a new tableau for the daughter LP, even for ``delta = 0``: a
    copy shifted by ``shift_rhs`` with ``-delta``, which the in-place
    solvers may then pivot.  If the constraint's slack is basic only
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


def rhs_sensitivity(tableau, constraint_ids):
    """d(optimal value)/d(b_i) under the fixed-basis assumption.

    Zero when the constraint's slack is basic (the inequality is inactive);
    minus the slack's reduced cost when it is non-basic.  At basis
    breakpoints this is the one-sided derivative implied by the current
    tableau.  One constraint id gives a float; a list, range or array of
    them gives an array, read in one pass over their slacks.
    """
    single = not isinstance(constraint_ids, (list, range, np.ndarray))
    slacks = _slacks(tableau, [constraint_ids] if single else constraint_ids)
    which, cols = (slacks[:, None] == tableau.nonbasic_vars).nonzero()
    sensitivities = np.zeros(slacks.size)
    sensitivities[which] = -tableau.cost_row[cols]
    return float(sensitivities[0]) if single else sensitivities


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
    slack = tableau._n_vars()
    a = np.zeros(slack)
    a[: a_coeffs.size] = a_coeffs
    a_basic = a[tableau.basic_vars]
    new_row = np.append(a[tableau.nonbasic_vars], b0) - a_basic @ tableau.tab[:-1]
    t = tableau._with(np.append(tableau.basic_vars, slack),
                      np.insert(tableau.tab, tableau.n_rows, new_row, axis=0))
    if constraint_id is not None:
        t.constraint_slacks[constraint_id] = slack
    return t
