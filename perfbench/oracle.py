"""Reference answers from an independent LP solver (scipy's HiGHS).

The flow LPs are formulated here from the generated instance data alone,
without any robustflow code: one commodity per demand source, balance rows
per vertex, and a shared capacity row per directed edge.  SNDlib links
become two directed edges in link order, matching the parser's numbering
(link k -> edges 2k and 2k+1).

Scenario values reuse one exact shortcut: deleting an edge that carries no
flow in an optimal solution of the parent scenario leaves the optimal value
unchanged (the old optimum stays feasible and the feasible set only
shrinks), so such children are not re-solved.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, hstack, vstack

# an edge whose total optimal flow is below this is treated as unused
ZERO_FLOW = 1e-12
# the scenario LPs are small, so presolve costs more than it saves
SOLVER = {"method": "highs-ds", "options": {"presolve": False}}


class OracleError(RuntimeError):
    """The reference solver did not reach an optimum."""


class Instance:
    """Directed-edge view of a generated instance with cached LP blocks."""

    def __init__(self, n, links, demands):
        self.n = n
        tail, head, caps, delays = [], [], [], []
        for u, v, cap, cost in links:
            for a, b in ((u, v), (v, u)):
                tail.append(a)
                head.append(b)
                caps.append(float(cap))
                delays.append(float(cost))
        self.caps = np.array(caps)
        self.delays = np.array(delays)
        self.m = len(caps)
        self.n_links = len(links)
        self.demand = np.zeros((n, n))
        for s, t, value in demands:
            self.demand[s, t] += value
        self.sources = [s for s in range(n) if self.demand[s].sum() > 0]
        self._build_blocks(tail, head)

    def _build_blocks(self, tail, head):
        """Sparse balance rows (one block per source) and capacity rows.

        Variables are f[k, e] for source index k at k*m + e.  Balance of
        source s at vertex i reads in(i) - out(i) = lam * routed[k*n + i]
        with routed = D[s, i] - [i == s] * sum(D[s]).
        """
        m, n, ns = self.m, self.n, len(self.sources)
        rows, cols, vals = [], [], []
        for k in range(ns):
            for e in range(m):
                rows += [k * n + head[e], k * n + tail[e]]
                cols += [k * m + e, k * m + e]
                vals += [1.0, -1.0]
        self.balance = coo_matrix((vals, (rows, cols)), shape=(ns * n, ns * m)).tocsr()
        self.capacity = coo_matrix(
            (np.ones(ns * m), ([e for _ in range(ns) for e in range(m)], list(range(ns * m)))),
            shape=(m, ns * m),
        ).tocsr()
        self.routed = np.zeros(ns * n)
        for k, s in enumerate(self.sources):
            self.routed[k * n:(k + 1) * n] = self.demand[s]
            self.routed[k * n + s] -= self.demand[s].sum()
        nf = ns * m
        self._thr_eq = hstack([self.balance, coo_matrix(-self.routed.reshape(-1, 1))]).tocsr()
        self._thr_ub = hstack([self.capacity, coo_matrix((m, 1))]).tocsr()
        self._thr_cost = np.zeros(nf + 1)
        self._thr_cost[-1] = -1.0
        self._delay_cost = np.tile(self.delays, ns)

    def _edge_flow(self, x):
        return x[: len(self.sources) * self.m].reshape(len(self.sources), self.m).sum(axis=0)

    def throughput(self, caps):
        """(max lam with lam * D routable under ``caps``, per-edge flow)."""
        res = linprog(self._thr_cost, A_ub=self._thr_ub, b_ub=caps, A_eq=self._thr_eq,
                      b_eq=np.zeros(self._thr_eq.shape[0]), **SOLVER)
        if res.status != 0:
            raise OracleError(f"throughput LP: {res.message}")
        return -res.fun, self._edge_flow(res.x)

    def delay(self, caps, lam):
        """(minimal total delay routing lam * D under ``caps``, per-edge
        flow), or None when that load does not fit."""
        res = linprog(self._delay_cost, A_ub=self.capacity, b_ub=caps,
                      A_eq=self.balance, b_eq=lam * self.routed, **SOLVER)
        if res.status == 2:
            return None
        if res.status != 0:
            raise OracleError(f"latency LP: {res.message}")
        return res.fun, self._edge_flow(res.x)

    def scenarios(self, q, paired=False):
        """Failure scenarios as sorted directed-edge tuples, in CLI order."""
        if paired:
            return [tuple(sorted(e for k in chosen for e in (2 * k, 2 * k + 1)))
                    for chosen in combinations(range(self.n_links), q)]
        return list(combinations(range(self.m), q))

    def _scenario_values(self, solve, q, paired=False, caps=None):
        """{scenario: value} over all exactly-q scenarios.

        ``solve(caps)`` returns (value, edge_flow) or None.  Every prefix
        of a scenario is solved once and its flow decides whether the
        next deletion needs a solve of its own.
        """
        caps = self.caps if caps is None else np.asarray(caps, dtype=float)
        solved = {(): solve(caps)}

        def get(scenario):
            if scenario not in solved:
                # a scenario minus one deleted edge (or link) is a parent
                cut = 2 if paired else 1
                parents = [scenario[:i] + scenario[i + cut:]
                           for i in range(0, len(scenario), cut)]
                for parent in parents:
                    edges = [e for e in scenario if e not in parent]
                    known = get(parent) if parent == scenario[:-cut] else solved.get(parent)
                    if known is not None and all(known[1][e] <= ZERO_FLOW for e in edges):
                        solved[scenario] = known
                        break
                else:
                    failed = caps.copy()
                    failed[list(scenario)] = 0.0
                    solved[scenario] = solve(failed)
            return solved[scenario]

        out = {}
        for s in self.scenarios(q, paired):
            result = get(s)
            if result is None:
                raise OracleError(f"scenario {s} cannot carry its load")
            out[s] = result[0]
        return out

    def robust_throughput(self, q, paired=False, caps=None):
        """{scenario: lam} over all exactly-q failure scenarios."""
        return self._scenario_values(self.throughput, q, paired, caps)

    def robust_latency(self, q, beta):
        """{scenario: normalized linear latency} at load beta * lam_max,
        the CLI's robust-latency convention."""
        lam_max = self.throughput(self.caps)[0]
        target = beta * lam_max
        denom = target * self.demand.sum()
        values = self._scenario_values(lambda c: self.delay(c, target), q)
        return {s: v / denom for s, v in values.items()}

    def worst_delay(self, q, caps):
        """Worst total delay over q-failures routing the full demand."""
        return max(self._scenario_values(lambda c: self.delay(c, 1.0), q, caps=caps).values())

    def worst_throughput(self, q, caps):
        return min(self.robust_throughput(q, caps=caps).values())

    def _robustify_lp(self, q, budget, sense):
        """Joint LP of budgeted robustification over all q-scenarios.

        Variables: one flow block per scenario, then delta (m), then t.
        "throughput": max t with every scenario routing t * D.
        "latency": min t with every scenario routing D at total delay <= t.
        """
        scen = self.scenarios(q)
        nb, m, nrow = self.balance.shape[1], self.m, self.balance.shape[0]
        n_s = len(scen)
        nv = n_s * nb + m + 1
        eq_blocks, ub_blocks, b_eq, b_ub = [], [], [], []
        for i, s in enumerate(scen):
            pad_l, pad_r = coo_matrix((nrow, i * nb)), coo_matrix((nrow, (n_s - i - 1) * nb + m))
            if sense == "throughput":
                eq_blocks.append(hstack([pad_l, self.balance, pad_r,
                                         coo_matrix(-self.routed.reshape(-1, 1))]))
                b_eq.append(np.zeros(nrow))
            else:
                eq_blocks.append(hstack([pad_l, self.balance, pad_r, coo_matrix((nrow, 1))]))
                b_eq.append(self.routed)
            # sum_k f[k, e] - delta_e <= caps_e; a failed edge keeps 0 and no delta
            keep = np.ones(m)
            keep[list(s)] = 0.0
            ub_blocks.append(hstack([
                coo_matrix((m, i * nb)), self.capacity,
                coo_matrix((m, (n_s - i - 1) * nb)), coo_matrix(-np.diag(keep)),
                coo_matrix((m, 1)),
            ]))
            b_ub.append(self.caps * keep)
            if sense == "latency":
                row = np.zeros(nv)
                row[i * nb:(i + 1) * nb] = self._delay_cost
                row[-1] = -1.0
                ub_blocks.append(coo_matrix(row.reshape(1, -1)))
                b_ub.append(np.zeros(1))
        budget_row = np.zeros(nv)
        budget_row[n_s * nb:n_s * nb + m] = 1.0
        ub_blocks.append(coo_matrix(budget_row.reshape(1, -1)))
        b_ub.append(np.array([float(budget)]))
        cost = np.zeros(nv)
        cost[-1] = -1.0 if sense == "throughput" else 1.0
        res = linprog(cost, A_ub=vstack(ub_blocks).tocsr(), b_ub=np.concatenate(b_ub),
                      A_eq=vstack(eq_blocks).tocsr(), b_eq=np.concatenate(b_eq),
                      method="highs")
        if res.status != 0:
            raise OracleError(f"robustify LP: {res.message}")
        return -res.fun if sense == "throughput" else res.fun

    def robustify_throughput_optimum(self, q, budget):
        return self._robustify_lp(q, budget, "throughput")

    def robustify_latency_optimum(self, q, budget):
        return self._robustify_lp(q, budget, "latency")
