r"""Bounded identity-space sweeps, vectorized.

Two terms s, t form an identity valid in a finite algebra A exactly when
their value vectors over all assignments coincide; so checking a property of
the form "A satisfies s = t iff s, t are related syntactically" over every
pair in a bounded term space reduces to comparing two partitions of the term
list — linear in the number of terms instead of quadratic.

Terms are enumerated over the fixed variable pool x1..xk with every labelling
(children always precede parents).  A value row holds a term's values on the
full assignment grid, in C order with x1 slowest, matching the counterexample
order of `finalg.satisfies`; `value_matrix` stacks one row per term.

Equal value rows are a congruence of the term algebra: the row of f(s, t)
depends only on the rows of s and t.  So `theory_partition` labels terms by
class without the matrix.  A term's key is its variable, ``(Neg, class of
the child)`` or ``(Meet or Join, class of left, class of right)``; only a key
not seen before is evaluated, and its row is interned by content.  The 8427
terms of at most 7 nodes over x1..x3 fall into at most 235 classes in each
named algebra (235 in U), so one row per class is kept, not one per term.
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
    "theory_partition",
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


def _grids(n: int, num_vars: int) -> dict[str, np.ndarray]:
    # x1 varies slowest
    ar = np.arange(n, dtype=np.int16)
    return {
        f"x{i + 1}": ar.reshape((-1,) + (1,) * (num_vars - 1 - i))
        for i in range(num_vars)
    }


def value_matrix(
    algebra: FiniteAlgebra, terms: Sequence[Term], num_vars: int = 3
) -> np.ndarray:
    """Rows of term values over the n^num_vars assignment grid (C order)."""
    n = algebra.size
    out = np.empty((len(terms), n ** num_vars), dtype=np.int8 if n <= 127 else np.int16)
    grid = out.reshape((len(terms),) + (n,) * num_vars)
    grids = _grids(n, num_vars)
    memo: dict = {}
    for idx, t in enumerate(terms):
        grid[idx] = _evaluate(algebra, t, grids, memo)
        # later terms read this row back instead of a second copy of it
        memo[id(t)] = grid[idx]
    return out


def theory_partition(
    algebra: FiniteAlgebra, terms: Sequence[Term], num_vars: int = 3
) -> np.ndarray:
    """``partition_ids(value_matrix(algebra, terms, num_vars))``, computed one
    value row per term class.

    Terms are classified in order by their keys (see the module docstring);
    a child without a class yet is classified first.  A new key costs one
    `_evaluate` call whose memo holds each child's class row."""
    shape = (algebra.size,) * num_vars
    grids = _grids(algebra.size, num_vars)
    rows: list[np.ndarray] = []  # class -> int16 row over the full grid
    by_row: dict[bytes, int] = {}
    by_key: dict = {}
    # keyed by id(): every term reached is held by `terms` for the whole call
    class_of: dict[int, int] = {}

    def classify(t: Term) -> int:
        c = class_of.get(id(t))
        if c is not None:
            return c
        if isinstance(t, Var):
            children: tuple[Term, ...] = ()
        elif isinstance(t, Neg):
            children = (t.child,)
        elif isinstance(t, (Meet, Join)):
            children = (t.left, t.right)
        else:
            raise TypeError(f"not a term: {t!r}")
        classes = [classify(s) for s in children]
        key = (type(t), *classes) if children else t.name
        c = by_key.get(key)
        if c is None:
            memo = {id(s): rows[k] for s, k in zip(children, classes)}
            val = _evaluate(algebra, t, grids, memo)
            data = np.broadcast_to(val, shape).astype(np.int16).tobytes()
            c = by_row.setdefault(data, len(rows))
            if c == len(rows):
                rows.append(np.frombuffer(data, dtype=np.int16).reshape(shape))
            by_key[key] = c
        class_of[id(t)] = c
        return c

    classes = np.fromiter(map(classify, terms), dtype=np.int64, count=len(terms))
    return _first_occurrence(classes)


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


def _first_occurrence(codes: np.ndarray) -> np.ndarray:
    """Integer codes relabelled 0, 1, ... by first occurrence."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


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
