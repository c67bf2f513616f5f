"""Worst-case throughput and latency over edge-failure scenarios.

A scenario deletes q failure groups: disjoint tuples of edges that fail
together, single edges ``(e,)`` by default or both directions of each SNDlib
link.  One walk (``_Walk``) enumerates the q-subsets of the groups as a
tree in lexicographic order; each tree node deletes one more group than its
parent by tightening its edges' capacity slacks to zero and re-optimizing
with the dual simplex method, so every solve is warm-started from a
parent's optimal basis.  A leaf has q parents, one per group it deletes
last; at q = 1 the root is the only one.  The walk goes depth-first down to
the parents and scores each by the total primal infeasibility
sum(max(0, -rhs')) that deleting each group leaves in it.  Each leaf is
then re-solved from its parent with the smallest score, ties going to the
lexicographic (depth-first) parent.  The parents are held when all
C(g, q - 1) of them fit in ``MAX_WARM_BYTES``; otherwise each is re-solved
along its own depth-first path just before its leaves, so values and leaf
pivots do not depend on that limit.  A scenario is reported as the sorted
tuple of its deleted edges.  With several workers both phases run on the
threads of one pool per evaluation; the result does not depend on how many.
Throughput is monotone in capacities, so the worst case over at-most-q
failures is attained by an exactly-q scenario.

Budget allocation evaluates the same tree at many capacity vectors.  A
``WarmStart`` carries the optimal node tableaux of one tree level from one
evaluation to the next: a capacity change moves only right-hand sides, so
each kept node stays dual feasible after ``shift_rhs`` and is re-optimized
from its own basis instead of being rebuilt and reached again from the root.
When the kept nodes are the leaves and only the worst scenario is wanted, a
leaf's old optimal flows bound its new value: scaled into the new
capacities for throughput, as they are where they fit them for latency.
The leaves are then re-solved serially in bound order, and a leaf whose
bound already sorts after the worst case found so far is not re-solved.
At q = 1 the first evaluation visits its leaves the same way: a solved
node's optimal flows are feasible in every leaf whose group they leave
unloaded, so they bound that leaf's value (the pessimizing-oracle idea of
Mutapcic & Boyd 2009 inside one evaluation).  A leaf skipped that way is
kept with no tableau, by the value and loads of the flows that bound it,
and the warm start keeps the root to build it from when a later
evaluation must solve it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NoTableau, ScenarioInfeasible, ScenarioLimitExceeded, SolverError
from .flows import (
    build_throughput_tableau,
    pin_throughput_tableau,
    solve_throughput,
    LatencyKind,
)
from .simplex import (
    FEAS_TOL,
    Status,
    dual_simplex,
    primal_simplex,
    shift_rhs,
    tighten_rhs,
)

MAX_SCENARIOS = 10 ** 6
# bytes of node tableaux one warm start may keep between evaluations
MAX_WARM_BYTES = 256 * 2 ** 20


@dataclass
class EvalContext:
    """Worst-scenario solver state retained for sensitivity extraction."""

    worst_tableau: object
    deleted: tuple
    capacities: np.ndarray
    scale: float = 1.0


@dataclass
class WarmStart:
    """Optimal scenario-tree nodes kept between the evaluations of one run
    at changing capacities.

    Empty until the first evaluation fills it for the tree ``tree`` =
    (q, failure groups).  ``nodes`` maps each kept node's sorted group
    indices to its optimal tableau, and ``caps`` maps them to the capacities
    that tableau is optimal at: those of the last evaluation, or of an
    earlier one for a leaf that its bound let the later ones skip.  ``caps``
    is None until an evaluation succeeds.  The kept nodes sit ``below``
    levels above the leaves.  They are the next evaluation's start nodes,
    and the base nodes from which it re-solves any parent it does not hold.

    When q = 1 leaves are visited in bound order from the start, a leaf
    that no evaluation has solved has no tableau.  ``records`` maps it to
    its witness record (value, loads, witness): the value and edge loads of
    the optimal flows of the node ``witness`` (a leaf, or the root ``()``),
    which leave its group unloaded and so are feasible in it.  ``root``,
    (tableau, the capacities it is optimal at), is the node such a leaf is
    built from when an evaluation must solve it.
    """

    caps: dict | None = None
    nodes: dict = field(default_factory=dict)
    below: int = 0
    tree: tuple = ()
    records: dict = field(default_factory=dict)
    root: tuple | None = None


@dataclass
class RobustReport:
    worst_value: float
    worst_scenario: tuple
    per_scenario_values: dict | None
    pivots_total: int
    scenarios_evaluated: int
    per_scenario_pivots: dict | None = field(default=None, repr=False)
    per_scenario_seconds: dict | None = field(default=None, repr=False, compare=False)
    context: EvalContext | None = field(default=None, repr=False, compare=False)


def _capacities(net, b_override):
    """The capacities of an evaluation: ``b_override``, else the network's."""
    return net.capacities if b_override is None else np.asarray(b_override, dtype=float)


def _check_gate(m, groups, q, allow_large, max_scenarios):
    """The failure groups, singletons ``(e,)`` of the m edges when ``groups``
    is None, once q and the scenario count C(len(groups), q) pass the gate."""
    groups = tuple((e,) for e in range(m)) if groups is None else tuple(map(tuple, groups))
    g = len(groups)
    if not (0 <= q <= g):
        raise ValueError(f"q must lie in [0, {g}]")
    count = math.comb(g, q)
    if count > max_scenarios and not allow_large:
        raise ScenarioLimitExceeded(
            f"C({g},{q}) = {count} scenarios exceeds the gate of {max_scenarios}; "
            "pass the override to proceed"
        )
    return groups


def scenario_key(value, scenario, sense):
    """Sort key under which the worst scenario is the smallest.

    The value is snapped to 0 when ``|value| <= 1e-9`` and otherwise rounded
    to 10 significant digits, so values equal up to float noise tie and the
    tie resolves to the lexicographically smallest scenario.
    """
    rounded = 0.0 if abs(value) <= 1e-9 else float(f"{value:.9e}")
    return (rounded if sense == "min" else -rounded, scenario)


class _TreeAccumulator:
    """Order-insensitive reduction of scenario values.

    Combining by ``scenario_key`` makes the result independent of
    evaluation order: ties in value resolve to the lexicographically
    smallest scenario.
    """

    def __init__(self, sense, keep_values):
        self.sense = sense  # "min" or "max"
        self.best = None
        self.values = {} if keep_values else None
        self.pivots = {}
        self.seconds = {}
        self.count = 0
        self.total_pivots = 0

    def record(self, scenario, value, tableau, pivots, seconds=0.0):
        if abs(value) <= 1e-9:
            value = 0.0  # float noise around zero, never -0.0
        self.count += 1
        if self.values is not None:
            self.values[scenario] = value
            self.pivots[scenario] = pivots
            self.seconds[scenario] = seconds
        key = scenario_key(value, scenario, self.sense)
        if self.best is None or key < self.best[0]:
            self.best = (key, value, scenario, tableau)

    def merge(self, other):
        self.count += other.count
        self.total_pivots += other.total_pivots
        if self.values is not None and other.values is not None:
            self.values.update(other.values)
            self.pivots.update(other.pivots)
            self.seconds.update(other.seconds)
        if other.best is not None and (self.best is None or other.best[0] < self.best[0]):
            self.best = other.best

    def report(self, pivots, caps, scale):
        """Report of the recorded scenarios; ``pivots`` were spent before the
        tree, whose root LP was built at capacities ``caps``.  The report
        holds a copy of the worst tableau, which a warm start may shift."""
        _, value, scenario, tableau = self.best
        return RobustReport(
            worst_value=value,
            worst_scenario=scenario,
            per_scenario_values=self.values,
            pivots_total=pivots + self.total_pivots,
            scenarios_evaluated=self.count,
            per_scenario_pivots=self.pivots,
            per_scenario_seconds=self.seconds,
            context=EvalContext(tableau.copy(), scenario, caps, scale=scale),
        )


class _Parents:
    """The nodes one level above the leaves, which the leaves are built from.

    ``scores`` maps each optimal parent's sorted group indices to the total
    primal infeasibility that deleting each group leaves in it; ``held``
    maps it to its tableau as well when ``hold`` is set.  ``member`` tells
    which groups the edges ``edges`` belong to.
    """

    def __init__(self, caps, groups, hold):
        self.edges = [e for group in groups for e in group]
        # column h: whether each edge belongs to group h, and the capacity
        # that deleting group h removes, per edge
        self.member = np.zeros((len(self.edges), len(groups)), dtype=bool)
        self.member[np.arange(len(self.edges)),
                    [h for h, group in enumerate(groups) for _ in group]] = True
        self.drops = np.where(self.member, caps[self.edges][:, None], 0.0)
        self.hold = hold
        self.scores = {}
        self.held = {}

    def score(self, picked, tableau):
        """Score ``tableau`` by sum(max(0, -rhs')) after deleting each group,
        priced by one product ``rhs[:, None] - W @ drops``: a column of W is
        an edge's non-basic slack column, or the unit row of its basic slack."""
        slacks = np.array([tableau.constraint_slacks[e] for e in self.edges], dtype=int)
        which, rows = (slacks[:, None] == tableau.basic_vars).nonzero()
        spread, cols = (slacks[:, None] == tableau.nonbasic_vars).nonzero()
        after = tableau.rhs[:, None] - tableau.tab[:-1, cols] @ self.drops[spread]
        after[rows] -= self.drops[which]
        self.scores[picked] = np.maximum(-after, 0.0).sum(axis=0)
        if self.hold:
            self.held[picked] = tableau

    def assign(self, q):
        """Assign each leaf of q groups to the parent (the leaf minus one
        group) that deleting that group leaves least primal infeasible; ties
        go to the lexicographic parent, which lacks the last group.

        Returns the work items, one per first group of a parent (of a leaf
        at q = 1), each a list of (parent, its (added group, leaf) pairs) in
        depth-first order; and the leaves with a missing, infeasible parent.
        """
        items, infeasible = {}, []
        for leaf in combinations(range(self.drops.shape[1]), q):
            # each parent with the group its leaf adds, the lexicographic first
            adds = {leaf[:k] + leaf[k + 1:]: leaf[k] for k in range(q - 1, -1, -1)}
            if not adds.keys() <= self.scores.keys():
                infeasible.append(leaf)
                continue
            parent = min(adds, key=lambda parent: self.scores[parent][adds[parent]])
            by_parent = items.setdefault((parent or leaf)[0], {})
            by_parent.setdefault(parent, []).append((adds[parent], leaf))
        return [sorted(item.items()) for _, item in sorted(items.items())], infeasible


class _Walk:
    """Warm-started walk of the scenario tree of q groups at capacities
    ``caps``, in two phases: ``tree`` walks depth-first down to the parents
    and scores each in ``parents``; ``leaves`` builds each leaf from the
    parent that ``parents.assign`` chose, re-solving a parent that is not
    held from its deepest ancestor in ``bases`` (the root, or a warm start's
    kept nodes).  A node copies its parent, tightens one more group and runs
    one dual solve.  Nodes are named by their sorted group indices,
    scenarios by their sorted edges, in ``acc`` or ``infeasible``.  With a
    ``warm`` start, the optimal nodes of its kept level go to ``warm.nodes``.
    """

    def __init__(self, caps, groups, q, value_of, acc, parents, bases, max_pivots=None,
                 warm=None):
        self.caps = caps
        self.groups = groups
        self.q = q
        self.value_of = value_of
        self.acc = acc
        self.infeasible = []
        self.parents = parents
        self.bases = bases
        self.max_pivots = max_pivots
        self.warm = warm
        self.keep = None if warm is None else q - warm.below

    def tree(self, node, picked):
        """Walk below ``node``, optimal with the groups ``picked`` deleted,
        down to the parents, and score each; at q = 0 the root is the one
        leaf."""
        depth = len(picked)
        if depth == self.q:
            self.acc.record((), self.value_of(node), node, 0)
        elif depth == self.q - 1:
            self.parents.score(picked, node)
        else:
            for g in range(picked[-1] + 1 if picked else 0,
                           len(self.groups) - self.q + depth + 2):
                child = self.node(self.child(node, g), picked + (g,))
                if child is not None:
                    self.tree(child, picked + (g,))

    def child(self, parent, g):
        """A copy of ``parent`` with group g deleted: ``tighten_rhs`` on its
        first edge (the one copy), a single-edge shift for each other edge."""
        first, *rest = self.groups[g]
        child = tighten_rhs(parent, first, self.caps[first])
        for e in rest:
            shift_rhs(child, {e: -self.caps[e]})
        return child

    def node(self, child, picked):
        """Re-optimize ``child``, dual feasible with the groups ``picked``
        deleted, and record it if it is a leaf: its optimal tableau, or None
        when the scenario is infeasible."""
        began = time.perf_counter()
        out = dual_simplex(child, self.max_pivots)
        seconds = time.perf_counter() - began
        self.acc.total_pivots += out.pivot_count
        leaf = len(picked) == self.q
        if out.status is Status.INFEASIBLE:
            if leaf:
                self.infeasible.append(self.path(picked))
            return None
        if out.status is not Status.OPTIMAL:
            path = self.path(picked)
            raise SolverError(f"scenario {path} solve ended with status {out.status.value}",
                              scenario=path)
        if len(picked) == self.keep:
            self.warm.nodes[picked] = out.tableau
        if leaf:
            self.acc.record(self.path(picked), self.value_of(out.tableau), out.tableau,
                            out.pivot_count, seconds)
        return out.tableau

    def leaves(self, item):
        """Build the leaves of one work item of ``parents.assign``.  The
        nodes re-solved to reach a parent stay held until a later parent
        leaves their path."""
        resolved = []
        for parent, pairs in item:
            tableau = self.parents.held.get(parent)
            if tableau is None:
                tableau = self.reach(parent, resolved)
            for g, leaf in pairs:
                self.node(self.child(tableau, g), leaf)

    def reach(self, parent, resolved):
        """``parent`` re-solved along its depth-first path from the deepest
        node that it shares with ``resolved``, the (groups, tableau) pairs
        re-solved for the previous parent, else from its deepest base node."""
        while resolved and parent[:len(resolved[-1][0])] != resolved[-1][0]:
            resolved.pop()
        if not resolved:
            base = next(parent[:k] for k in range(len(parent), -1, -1)
                        if parent[:k] in self.bases)
            resolved.append((base, self.bases[base]))
        for g in parent[len(resolved[-1][0]):]:
            picked, tableau = resolved[-1]
            resolved.append((picked + (g,), self.node(self.child(tableau, g), picked + (g,))))
        return resolved[-1][1]

    def path(self, picked):
        """The sorted edges of the groups ``picked``."""
        return tuple(sorted(e for g in picked for e in self.groups[g]))


def _run_tree(new_walk, task, items, pool):
    """``task(walk, item)`` for every item: the walks that ran them.  On a
    thread ``pool`` each item runs on a walk of its own; the result does not
    depend on how many threads."""
    if pool is None or len(items) <= 1:
        walk = new_walk()
        for item in items:
            task(walk, item)
        return [walk]

    def run(item):
        walk = new_walk()
        task(walk, item)
        return walk

    return list(pool.map(run, items))


def _fits(tableau, count):
    """Whether ``count`` tableaux the size of ``tableau`` fit in
    ``MAX_WARM_BYTES``."""
    size = sum(a.nbytes for a in (tableau.tab, tableau.basic_vars, tableau.nonbasic_vars))
    return count * size <= MAX_WARM_BYTES


def _keep_level(warm, root, groups, q):
    """Make ``warm`` keep the nodes of the deepest level d <= q whose
    C(len(groups), d) tableaux, each the size of ``root``, fit in
    ``MAX_WARM_BYTES``; the root itself when no level d >= 1 fits."""
    depth = next((d for d in range(q, 0, -1) if _fits(root, math.comb(len(groups), d))), 0)
    warm.tree = (q, groups)
    warm.below = q - depth
    warm.nodes = {(): root} if depth == 0 else {}
    warm.records, warm.root = {}, None


def _scaled_throughput(values, loads, caps):
    """Throughput that each leaf's old optimal flows keep once scaled into
    ``caps``: its value times min(1, caps / load) over its loaded edges."""
    ratios = np.divide(caps, loads, out=np.full(loads.shape, np.inf), where=loads > 0)
    return values * np.minimum(1.0, ratios.min(axis=1))


def _fitting_latency(values, loads, caps):
    """Delay of each leaf's old optimal flows where they fit ``caps``; NaN,
    no bound, where some edge's load exceeds its new capacity."""
    return np.where((loads <= caps).all(axis=1), values, np.nan)


def _flows(walk, picked, tableaux, caps):
    """(values, loads) of the optimal flows of ``tableaux``, the nodes
    ``picked`` optimal at the capacities ``caps`` (a vector, or one row per
    node): a node's loads are those capacities less its slack values, and
    zero on its deleted edges."""
    slacks = [tableaux[0].constraint_slacks[e] for e in range(walk.caps.size)]
    point = np.zeros((len(tableaux), tableaux[0]._n_vars()))
    point[np.arange(len(tableaux))[:, None], [t.basic_vars for t in tableaux]] = [
        t.tab[:-1, -1] for t in tableaux]
    loads = caps - point[:, slacks]
    paths = [walk.path(p) for p in picked]
    loads[[row for row, path in enumerate(paths) for _ in path],
          [e for path in paths for e in path]] = 0.0
    return np.array([walk.value_of(t) for t in tableaux]), loads


def _bounded_leaves(walk, leaves, bounds, solve, order=None, witness=None):
    """Visit the leaves ``leaves[k]`` on ``walk``: first the unbounded ones
    in ``order`` (by default that of ``leaves``), then the others from the
    most to the least likely worst, skipping each whose bound ``bounds[k]``
    (NaN: none), moved a relative ``FEAS_TOL`` toward the worse side, sorts
    after the worst case found so far: its value cannot be the worst.
    ``solve(k)`` solves leaf k (its optimal tableau, or None when it is
    infeasible), and then ``witness(leaves[k], tableau)`` may tighten the
    bounds.  The skipped leaves count as evaluated scenarios; returns their
    positions."""
    sense = walk.acc.sense
    toward = 1.0 if sense == "min" else -1.0

    def key(k):
        bound = float(bounds[k])
        if math.isnan(bound):
            return None
        return scenario_key(bound - FEAS_TOL * abs(bound) * toward, walk.path(leaves[k]), sense)

    keys = {k: key(k) for k in (range(len(leaves)) if order is None else order)}
    order = ([k for k in keys if keys[k] is None]
             + sorted((k for k in keys if keys[k] is not None), key=keys.get))
    skipped = []
    for k in order:
        best, bound_key = walk.acc.best, key(k)
        if best is not None and bound_key is not None and bound_key > best[0]:
            skipped.append(k)
            continue
        tableau = solve(k)
        if tableau is not None and witness is not None:
            witness(leaves[k], tableau)
    walk.acc.count += len(skipped)
    return skipped


def _shifted(tableau, change, deleted=()):
    """``tableau``, shifted in place by the capacity ``change`` except on its
    ``deleted`` edges."""
    shift_rhs(tableau, {e: change[e] for e in np.flatnonzero(change).tolist()
                        if e not in deleted})
    return tableau


def _leafwise(walk, parents, bound_of, root, nodes, kept_caps, records, warm):
    """Visit every leaf on ``walk`` in bound order (``_bounded_leaves``) and
    solve only those that their bounds cannot rule out as the worst case.

    A leaf in ``nodes`` is shifted from the capacities ``kept_caps`` it is
    optimal at and bounded by its own old flows, one in ``records`` by its
    witness record, both through ``bound_of``.  Any other leaf is built
    from ``root`` = (tableau, the capacities it is optimal at): a copy with
    the group deleted at those capacities, shifted by the change on the
    other edges, so that no capacity given to a deleted edge since the root
    was solved cancels against its load.  A cold evaluation holds no leaf
    and visits them in descending root score.  At q = 1 a solved node's
    flows are feasible in every leaf whose group they leave unloaded, so
    its value bounds those leaves: the root's from the start, each leaf's
    once solved.  ``warm`` gets the solved leaves (on ``walk``), the skipped
    ones with their tableaux or witness records, and ``root``; returns the
    skipped leaves that keep tableaux, with the capacities those are
    optimal at.
    """
    caps, sense = walk.caps, walk.acc.sense
    leaves = list(combinations(range(len(walk.groups)), walk.q))
    bounds = np.full(len(leaves), np.nan)
    # the witness of each bound: -1 for none or the old one, else in seen
    source, seen = np.full(len(leaves), -1), []
    if nodes:
        held = [k for k, picked in enumerate(leaves) if picked in nodes]
        tableaux = [nodes[leaves[k]] for k in held]
        bounds[held] = bound_of(*_flows(walk, [leaves[k] for k in held], tableaux,
                                        np.array([kept_caps[leaves[k]] for k in held])), caps)
    if records:
        recorded = [k for k, picked in enumerate(leaves) if picked in records]
        values, loads, _ = zip(*(records[leaves[k]] for k in recorded))
        bounds[recorded] = bound_of(np.array(values), np.array(loads), caps)

    def witness(picked, tableau):
        (value,), (loads,) = _flows(walk, [picked], [tableau], caps)
        # at q = 1 leaf k deletes group k alone
        avoided = ~((loads[parents.edges] > 0) @ parents.member)
        tighter = avoided & ~(bounds >= value if sense == "min" else bounds <= value)
        bounds[tighter] = value
        source[tighter] = len(seen)
        seen.append((value, loads, picked))

    def solve(k):
        picked = leaves[k]
        if picked in nodes:
            return walk.node(_shifted(nodes.pop(picked), caps - kept_caps[picked],
                                      walk.path(picked)), picked)
        tableau, root_caps = root
        if root_caps is caps:
            return walk.node(walk.child(tableau, picked[0]), picked)
        deleted = walk.path(picked)
        child = _shifted(tableau.copy(), caps - root_caps, deleted)
        shift_rhs(child, {e: -root_caps[e] for e in deleted})
        return walk.node(child, picked)

    order = None
    if not nodes and not records:
        parents.score((), root[0])
        order = np.argsort(-parents.scores[()], kind="stable").tolist()
        witness((), root[0])
    skipped = _bounded_leaves(walk, leaves, bounds, solve, order,
                              witness if walk.q == 1 else None)
    if warm is None:
        return {}
    skipped_caps = {}
    for k in skipped:
        picked = leaves[k]
        if picked in nodes:
            warm.nodes[picked], skipped_caps[picked] = nodes[picked], kept_caps[picked]
        else:
            warm.records[picked] = seen[source[k]] if source[k] >= 0 else records[picked]
    warm.root = root
    return skipped_caps


def _evaluate(root, caps, groups, q, value_of, bound_of, sense, keep_values, workers,
              max_pivots=None, warm=None):
    """The scenario tree at capacities ``caps``: (pivots spent before the
    tree, accumulator, sorted infeasible scenarios).

    ``root()`` returns the optimal tableau with nothing deleted and its
    pivots.  A ``warm`` start that holds nodes skips it: each kept node is
    shifted by the capacity change since it was solved (zero on its deleted
    edges) and re-optimized by dual simplex from its own basis.  Otherwise
    the tree starts at ``root()`` and fills ``warm``.  The first phase walks
    from these start nodes down to the parents and scores them; the second
    builds the leaves, each from its chosen parent, held when all
    C(len(groups), q - 1) parents fit in ``MAX_WARM_BYTES`` and re-solved
    from the start nodes otherwise.  Both phases share one thread pool.

    When no per-scenario values are kept and the leaves are, or are to be,
    the kept nodes, ``_leafwise`` visits the leaves instead, serially and
    with no pool: those of a warm start that keeps them, and at q = 1 those
    of a cold evaluation too.  ``bound_of(values, loads, caps)`` bounds a
    leaf's value at ``caps`` by flows optimal at other capacities, and a
    leaf whose bound rules it out is not solved.
    """
    primed = warm is not None and warm.caps is not None
    if primed and warm.tree != (q, groups):
        raise ValueError("a warm start serves the scenario tree it was filled for")
    # a leaf kept by its witness record alone is solved only in bound order
    primed = primed and not (keep_values and warm.records)
    if primed:
        # taken out first, so that an evaluation that fails leaves no stale node
        nodes, kept_caps, records, kept_root = warm.nodes, warm.caps, warm.records, warm.root
        warm.nodes, warm.caps, warm.records, warm.root = {}, None, {}, None
        # the kept nodes, re-solved in the first phase, are the base nodes
        pivots, bases, tableau = 0, warm.nodes, next(iter(nodes.values()))

        def start(walk, picked):
            kept = nodes.pop(picked)
            node = walk.node(_shifted(kept, caps - kept_caps[picked], walk.path(picked)),
                             picked)
            if node is not None and len(picked) < q:
                walk.tree(node, picked)
    else:
        tableau, pivots = root()
        if warm is not None:
            _keep_level(warm, tableau, groups, q)
        nodes, kept_caps, records, kept_root = {}, None, {}, (tableau, caps)
        bases = {(): tableau}

        def start(walk, picked):
            walk.tree(tableau, picked)

    parents = _Parents(caps, groups, q > 0 and _fits(tableau, math.comb(len(groups), q - 1)))

    def new_walk():
        return _Walk(caps, groups, q, value_of, _TreeAccumulator(sense, keep_values),
                     parents, bases, max_pivots, warm)

    skipped = {}
    if not keep_values and (primed or q == 1) and (warm is None or warm.below == 0):
        walks = [new_walk()]
        skipped = _leafwise(walks[0], parents, bound_of, kept_root, nodes, kept_caps,
                            records, warm)
    else:
        starts = sorted(nodes) if primed else [()]
        pool = None
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            pool = ThreadPoolExecutor(max_workers=workers)
        try:
            walks = _run_tree(new_walk, start, starts, pool)
            if len(starts[0]) < q:  # the start nodes sit above the leaves
                items, missing = parents.assign(q)
                walks[0].infeasible.extend(map(walks[0].path, missing))
                walks += _run_tree(new_walk, lambda walk, item: walk.leaves(item), items, pool)
        finally:
            if pool is not None:
                pool.shutdown()
    acc, infeasible = walks[0].acc, walks[0].infeasible
    for walk in walks[1:]:
        acc.merge(walk.acc)
        infeasible.extend(walk.infeasible)
    if warm is not None:
        # an infeasible node is not kept, so the next evaluation starts cold
        warm.caps = None if infeasible else {picked: skipped.get(picked, caps)
                                             for picked in warm.nodes}
    return pivots, acc, sorted(infeasible)


def _solve_cold(net, demands, caps, max_pivots, scenario=None):
    """Cold primal solve of the throughput LP at capacities ``caps``; the
    optimal ``SolveOutcome``, or SolverError naming ``scenario``."""
    tableau, _ = build_throughput_tableau(net, demands, caps)
    out = primal_simplex(tableau, max_pivots)
    if out.status is not Status.OPTIMAL:
        what = "nominal throughput" if scenario is None else f"cold scenario {scenario}"
        raise SolverError(f"{what} solve ended with status {out.status.value}",
                          scenario=scenario)
    return out


def _throughput_tree(net, demands, q, b_override, groups, keep_values, workers,
                     allow_large, max_scenarios, max_pivots, warm=None):
    """Nominal solve and scenario tree of the throughput LP: (report,
    pivots spent before the tree)."""
    groups = _check_gate(net.n_edges, groups, q, allow_large, max_scenarios)
    caps = _capacities(net, b_override)

    def nominal():
        out = _solve_cold(net, demands, caps, max_pivots)
        return out.tableau, out.pivot_count

    pivots, acc, infeasible = _evaluate(
        nominal, caps, groups, q, value_of=lambda t: -t.objective,
        bound_of=_scaled_throughput, sense="min", keep_values=keep_values, workers=workers,
        max_pivots=max_pivots, warm=warm,
    )
    if infeasible:
        raise SolverError(f"throughput scenario {infeasible[0]} solve ended with "
                          "status infeasible", scenario=infeasible[0])
    return acc.report(pivots, caps, scale=1.0), pivots


def robust_throughput(net, demands, q, b_override=None, keep_per_scenario=True,
                      workers=1, allow_large=False, max_scenarios=MAX_SCENARIOS,
                      max_pivots=None, groups=None, warm=None):
    """Worst-case throughput after deleting q failure groups (by default q
    single edges).

    The worst value is zero iff q deletions can disconnect a demand pair.
    The returned report retains the worst scenario's optimal tableau for
    sensitivity extraction.  ``warm``, one ``WarmStart`` shared by the
    evaluations of a run, re-optimizes the nodes kept at earlier
    capacities instead of solving the nominal LP again; without
    ``keep_per_scenario``, of the kept leaves only those that their bounds
    leave open.
    """
    report, _ = _throughput_tree(net, demands, q, b_override, groups, keep_per_scenario,
                                 workers, allow_large, max_scenarios, max_pivots, warm)
    return report


def _robust_latency(net, demands, q, target, denom, b_override=None,
                    keep_per_scenario=True, workers=1, allow_large=False,
                    max_scenarios=MAX_SCENARIOS, max_pivots=None, groups=None,
                    warm=None):
    """Worst-case total delay divided by ``denom`` with the throughput fixed
    at ``target``.  The root is the linear latency LP at capacities
    ``b_override``, solved by dual simplex from shortest-delay trees
    (``pin_throughput_tableau``); a root that cannot route ``target``
    raises ScenarioInfeasible for the empty scenario.  A ``warm`` start
    that holds nodes skips the root; it assumes ``target`` and ``denom``
    stay as they were when it was filled.
    """
    groups = _check_gate(net.n_edges, groups, q, allow_large, max_scenarios)
    caps = _capacities(net, b_override)

    def pinned():
        tableau, pivots = pin_throughput_tableau(net, demands, target, caps, max_pivots)
        if tableau is None:
            raise ScenarioInfeasible([()])
        return tableau, pivots

    pivots, acc, infeasible = _evaluate(
        pinned, caps, groups, q, value_of=lambda t: t.objective / denom,
        bound_of=_fitting_latency, sense="max", keep_values=keep_per_scenario,
        workers=workers, max_pivots=max_pivots, warm=warm,
    )
    if infeasible:
        raise ScenarioInfeasible(infeasible)
    return acc.report(pivots, caps, scale=denom)


def robust_latency_linear(net, demands, q, cfg, b_override=None, **kwargs):
    """Worst-case normalized linear latency after deleting q failure groups
    (``groups`` among the keyword arguments; by default q single edges).

    The routed fraction is pinned at beta times the nominal maximal
    throughput in every scenario; a scenario that cannot carry that load
    raises ScenarioInfeasible listing the offending edge sets.  The reported
    pivots leave out the throughput solve that finds that maximum.
    """
    if cfg.kind is not LatencyKind.LINEAR:
        raise ValueError("robust latency is only solvable for the linear model")
    caps = _capacities(net, b_override)
    throughput = solve_throughput(net, demands, caps, kwargs.get("max_pivots"))
    target = cfg.beta * throughput.lambda_star
    denom = target * demands.total()
    return _robust_latency(net, demands, q, target, denom, caps, **kwargs)


def worst_scenario_subgradient(context, b_current):
    """Subgradient of the robust value with respect to the capacity vector.

    Component e is the right-hand-side sensitivity of the worst scenario's
    LP for edge e's capacity constraint (``rhs_sensitivity``): zero where
    the slack is basic, minus its reduced cost where it is non-basic, read
    for every edge in one pass over the slack indices.  Entries of deleted
    edges are forced to zero because the scenario value does not depend on
    them.
    """
    if context is None or context.worst_tableau is None:
        raise NoTableau("the worst-scenario tableau was not retained")
    b_current = np.asarray(b_current, dtype=float)
    if b_current.shape != context.capacities.shape or not np.allclose(
        b_current, context.capacities, atol=1e-12
    ):
        raise ValueError("b_current does not match the evaluated capacity vector")
    tableau = context.worst_tableau
    slacks = np.array([tableau.constraint_slacks[e] for e in range(b_current.size)], dtype=int)
    edges, cols = (slacks[:, None] == tableau.nonbasic_vars).nonzero()
    grad = np.zeros(b_current.size)
    grad[edges] = -tableau.cost_row[cols] / context.scale
    grad[list(context.deleted)] = 0.0
    return grad


def bench_robust_throughput(net, demands, q, b_override=None, allow_large=False,
                            max_scenarios=MAX_SCENARIOS, max_pivots=None, groups=None):
    """Warm-started tree versus per-scenario cold solves, with pivot counts.

    Returns (rows, totals): one row per scenario the tree recorded, with the
    leaf dual-simplex pivot count and wall time next to a cold primal solve
    of the same scenario, and totals where the warm side includes internal
    tree nodes.
    """
    report, nominal = _throughput_tree(net, demands, q, b_override, groups, True, 1,
                                       allow_large, max_scenarios, max_pivots)
    rows = []
    for scenario, value in sorted(report.per_scenario_values.items()):
        scenario_caps = report.context.capacities.copy()
        scenario_caps[list(scenario)] = 0.0
        began = time.perf_counter()
        cold = _solve_cold(net, demands, scenario_caps, max_pivots, scenario)
        cold_time = time.perf_counter() - began
        if abs(value - (-cold.objective)) > 1e-7:
            raise RuntimeError(f"warm/cold value mismatch on scenario {scenario}")
        rows.append({
            "scenario_edges": scenario,
            "value": value,
            "warm_pivots": report.per_scenario_pivots[scenario],
            "cold_pivots": cold.pivot_count,
            "warm_time_s": report.per_scenario_seconds[scenario],
            "cold_time_s": cold_time,
        })
    totals = {key: sum(row[key] for row in rows)
              for key in ("cold_pivots", "warm_time_s", "cold_time_s")}
    return rows, {"warm_pivots": report.pivots_total - nominal, **totals}
