r"""Bounded identity-space sweeps, vectorized.

Two terms s, t form an identity valid in a finite algebra A exactly when
their value vectors over all assignments coincide; so checking a property of
the form "A satisfies s = t iff s, t are related syntactically" over every
pair in a bounded term space reduces to comparing two partitions of the term
list — linear in the number of terms instead of quadratic.

Terms are enumerated over the fixed variable pool x1..xk with every labelling
(children always precede parents); value matrices evaluate every term on the
full assignment grid, one numpy row per term.  Assignments are in C order
with x1 slowest, matching the counterexample order of `finalg.satisfies`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

import numpy as np

from .finalg import FiniteAlgebra, _evaluate
from .terms import Identity, Meet, Join, Neg, Term, Var

__all__ = [
    "enumerate_terms",
    "partition_ids",
    "random_identity",
    "refines",
    "same_partition",
    "signatures",
    "value_matrix",
]

@lru_cache(maxsize=8)
def enumerate_terms(max_nodes: int = 7, num_vars: int = 3) -> tuple[Term, ...]:
    """Every term with at most `max_nodes` nodes over x1..x`num_vars`."""
    pool = [Var(f"x{i}") for i in range(1, num_vars + 1)]
    by_size: list[list[Term]] = [[]]  # index = node count
    by_size.append(list(pool))
    for n in range(2, max_nodes + 1):
        bucket: list[Term] = []
        bucket.extend(Neg(t) for t in by_size[n - 1])
        for left_n in range(1, n - 1):
            right_n = n - 1 - left_n
            for l in by_size[left_n]:
                for r in by_size[right_n]:
                    bucket.append(Meet(l, r))
            for l in by_size[left_n]:
                for r in by_size[right_n]:
                    bucket.append(Join(l, r))
        by_size.append(bucket)
    out: list[Term] = []
    for bucket in by_size[1:]:
        out.extend(bucket)
    return tuple(out)


def value_matrix(
    algebra: FiniteAlgebra, terms: Sequence[Term], num_vars: int = 3
) -> np.ndarray:
    """Rows of term values over the n^num_vars assignment grid (C order)."""
    n = algebra.size
    out = np.empty((len(terms), n ** num_vars), dtype=np.int8 if n <= 127 else np.int16)
    grid = out.reshape((len(terms),) + (n,) * num_vars)
    ar = np.arange(n, dtype=np.int16)
    # x1 varies slowest
    grids = {
        f"x{i + 1}": ar.reshape((-1,) + (1,) * (num_vars - 1 - i))
        for i in range(num_vars)
    }
    memo: dict = {}
    for idx, t in enumerate(terms):
        grid[idx] = _evaluate(algebra, t, grids, memo)
        # later terms read this row back instead of a second copy of it
        memo[id(t)] = grid[idx]
    return out


def signatures(terms: Sequence[Term]) -> list[tuple[int, int, int]]:
    """(variable, positive, negative) occurrence bitmasks per term."""
    memo: dict[Term, tuple[int, int]] = {}

    def masks(t: Term) -> tuple[int, int]:
        if t in memo:
            return memo[t]
        if isinstance(t, Var):
            bit = 1 << (int(t.name[1:]) - 1)
            res = (bit, 0)
        elif isinstance(t, Neg):
            p, m = masks(t.child)
            res = (m, p)
        else:
            pl, ml = masks(t.left)
            pr, mr = masks(t.right)
            res = (pl | pr, ml | mr)
        memo[t] = res
        return res

    out = []
    for t in terms:
        p, m = masks(t)
        out.append((p | m, p, m))
    return out


def partition_ids(keys: Sequence) -> np.ndarray:
    """Group labels by first occurrence; accepts any hashables (or a matrix,
    whose rows are grouped by content)."""
    if isinstance(keys, np.ndarray) and keys.ndim == 2:
        keys = [row.tobytes() for row in keys]
    groups: dict = {}
    out = np.empty(len(keys), dtype=np.int64)
    for i, k in enumerate(keys):
        out[i] = groups.setdefault(k, len(groups))
    return out


def refines(p: np.ndarray, q: np.ndarray) -> bool:
    """Does the partition labelled by p refine the one labelled by q?"""
    seen: dict[int, int] = {}
    for a, b in zip(p.tolist(), q.tolist()):
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    return True


def same_partition(p: np.ndarray, q: np.ndarray) -> bool:
    return refines(p, q) and refines(q, p)


def first_violation(p: np.ndarray, q: np.ndarray) -> tuple[int, int] | None:
    """First index pair grouped by p but split by q (for error reporting)."""
    first: dict[int, int] = {}
    rep: dict[int, int] = {}
    for i, (a, b) in enumerate(zip(p.tolist(), q.tolist())):
        if a in first:
            if first[a] != b:
                return rep[a], i
        else:
            first[a] = b
            rep[a] = i
    return None


def random_term(rng: random.Random, max_depth: int = 6, num_vars: int = 4) -> Term:
    if max_depth <= 0 or rng.random() < 0.3:
        return Var(f"x{rng.randint(1, num_vars)}")
    r = rng.random()
    if r < 0.25:
        return Neg(random_term(rng, max_depth - 1, num_vars))
    if r < 0.625:
        return Meet(
            random_term(rng, max_depth - 1, num_vars),
            random_term(rng, max_depth - 1, num_vars),
        )
    return Join(
        random_term(rng, max_depth - 1, num_vars),
        random_term(rng, max_depth - 1, num_vars),
    )


def random_identity(rng: random.Random, max_depth: int = 6, num_vars: int = 4) -> Identity:
    return Identity(
        random_term(rng, max_depth, num_vars), random_term(rng, max_depth, num_vars)
    )
