"""Seeded ring-plus-chords instances written in SNDlib native format.

An instance on n vertices (n even) is a ring 0-1-...-(n-1)-0 plus n/2 chords
that form a random perfect matching avoiding ring links, so every vertex has
degree exactly 3.  Arbitrary chords leave degree-2 vertices, and then q=2
robust throughput is 0 for every seed.  Link capacities are integers in
[20, 40], routing costs integers in [1, 3], and there are n demand pairs
with integer values in [1, 10].  The integer data is degenerate on purpose,
like real SNDlib data; it is never perturbed.
"""

from __future__ import annotations

import random


def _chords(rng, n):
    """Random perfect matching of range(n) with no pair adjacent on the ring."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pairs = [tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)]
        if all((b - a) not in (1, n - 1) for a, b in pairs):
            return sorted(pairs)


def make_instance(n, seed):
    """Return (links, demands) of one instance.

    ``links`` holds (u, v, capacity, routing_cost) per undirected link and
    ``demands`` holds (s, t, value) per ordered demand pair.
    """
    if n < 6 or n % 2:
        raise ValueError("n must be even and at least 6")
    rng = random.Random(seed)
    ring = [(i, (i + 1) % n) for i in range(n)]
    links = [(u, v, rng.randint(20, 40), rng.randint(1, 3))
             for u, v in ring + _chords(rng, n)]
    pairs = set()
    demands = []
    while len(demands) < n:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t and (s, t) not in pairs:
            pairs.add((s, t))
            demands.append((s, t, rng.randint(1, 10)))
    return links, demands


def to_sndlib(name, n, links, demands):
    """SNDlib native text of an instance; node i is named N<i>."""
    lines = [f"# {name}: ring of {n} plus {n // 2} chords", "", "NODES ("]
    lines += [f"  N{i} ( {i}.0 0.0 )" for i in range(n)]
    lines += [")", "", "LINKS ("]
    lines += [f"  L{k} ( N{u} N{v} ) {cap}.0 0.0 {cost}.0 0.0 ( )"
              for k, (u, v, cap, cost) in enumerate(links)]
    lines += [")", "", "DEMANDS ("]
    lines += [f"  D{k} ( N{s} N{t} ) 1 {value}.0"
              for k, (s, t, value) in enumerate(demands)]
    lines += [")", ""]
    return "\n".join(lines)
