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

A term list is read as a graph of nodes, a `TermIndex`: one post-order walk
numbers children before parents, left before right, and a subterm object
shared by several terms once.  Each node has a level, 0 for a variable and
otherwise one more than its highest child.  The index of
``enumerate_terms(m, k)`` is walked once and cached by ``(m, k)``
(`term_index`).

Equal value rows are a congruence of the term algebra: the row of f(s, t)
depends only on the rows of s and t.  So `theory_partition` labels nodes by
class, level by level, without the matrix.  A node's code is its operation
and the classes of its children (its variable, for a variable); `np.unique`
groups the codes of one level, and only a code not seen at a lower level is
evaluated, by one flat-table gather per chunk of at most ``_VALUES`` values.
Its row is interned by content.  The 8427 terms of at most 7 nodes over
x1..x3 fall into at most 235 classes in each named algebra (235 in U) and
1216 codes in U, so one row per class is kept and one per code computed.  `signatures`
propagates occurrence bitmasks over the same levels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .finalg import FiniteAlgebra, ValidationError, _canonical, _least, _program, _run
from .terms import Identity, Meet, Join, Neg, Term, Var

__all__ = [
    "TermIndex",
    "enumerate_terms",
    "first_violation",
    "partition_ids",
    "random_identity",
    "refines",
    "same_partition",
    "signatures",
    "term_index",
    "theory_partition",
    "value_matrix",
]

def enumerate_terms(max_nodes: int = 7, num_vars: int = 3) -> tuple[Term, ...]:
    """Every term with at most `max_nodes` nodes over x1..x`num_vars`, built
    once per pair of ints."""
    return _enumerated_terms(max_nodes, num_vars)


@lru_cache(maxsize=8)
def _enumerated_terms(max_nodes: int, num_vars: int) -> tuple[Term, ...]:
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


# node operations of a TermIndex
VAR, NEG, MEET, JOIN = range(4)


@dataclass(frozen=True, eq=False)
class TermIndex:
    """A term list as a graph of nodes numbered in post order.

    Per node: `op` (VAR, NEG, MEET or JOIN), `left` (the argument of ``~``
    or the left one) and `right` node ids, -1 where there is none, `var`
    (an index into `names`, -1 for an operation) and `level`.  `roots` holds
    the node of each listed term, `names` the variable names in the order
    the walk first meets them."""

    op: np.ndarray
    left: np.ndarray
    right: np.ndarray
    var: np.ndarray
    level: np.ndarray
    roots: np.ndarray
    names: tuple[str, ...]

    def levels(self) -> list[np.ndarray]:
        """Node ids level by level, lowest level first."""
        order = np.argsort(self.level, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.level))[:-1])


def _walk(terms: Sequence[Term]) -> TermIndex:
    """The index of any term list, by one post-order walk."""
    # keyed by id(): `terms` holds every subterm for the whole walk
    node: dict[int, int] = {}
    names: dict[str, int] = {}
    rows: list[tuple[int, int, int, int, int]] = []  # op, left, right, var, level

    def visit(t: Term) -> int:
        k = node.get(id(t))
        if k is None:
            if isinstance(t, Var):
                row = (VAR, -1, -1, names.setdefault(t.name, len(names)), 0)
            elif isinstance(t, Neg):
                c = visit(t.child)
                row = (NEG, c, -1, -1, rows[c][4] + 1)
            elif isinstance(t, (Meet, Join)):
                l, r = visit(t.left), visit(t.right)
                op = MEET if isinstance(t, Meet) else JOIN
                row = (op, l, r, -1, max(rows[l][4], rows[r][4]) + 1)
            else:
                raise TypeError(f"not a term: {t!r}")
            k = node[id(t)] = len(rows)
            rows.append(row)
        return k

    roots = np.array([visit(t) for t in terms], dtype=np.int64)
    op, left, right, var, level = np.array(rows, dtype=np.int64).reshape(-1, 5).T.copy()
    return TermIndex(op.astype(np.int8), left, right, var, level, roots, tuple(names))


def term_index(max_nodes: int = 7, num_vars: int = 3) -> TermIndex:
    """The index of ``enumerate_terms(max_nodes, num_vars)``, walked once per
    pair of ints."""
    return _enumerated_index(max_nodes, num_vars)


@lru_cache(maxsize=8)
def _enumerated_index(max_nodes: int, num_vars: int) -> TermIndex:
    return _walk(enumerate_terms(max_nodes, num_vars))


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
    prog = _program(tuple(terms), False)
    grids = _grids(n, num_vars)
    _run(algebra, prog, [grids.get(v) for v in prog.names],
         out=out.reshape((len(terms),) + (n,) * num_vars))
    return out


def _check(algebra: FiniteAlgebra, index: TermIndex, num_vars: int) -> None:
    """Raise the ValidationError `value_matrix` raises first, if any: it
    meets the nodes in pre-order, checking a variable's name and a ``~``'s
    negation before it reads the argument."""
    pool = {f"x{i}" for i in range(1, num_vars + 1)}
    unknown = [i for i, name in enumerate(index.names) if name not in pool]
    bad = np.isin(index.var, unknown)
    if algebra.neg is None:
        bad |= index.op == NEG
    if not bad.any():
        return
    seen = np.zeros(len(bad), dtype=bool)
    for root in index.roots.tolist():
        stack = [root]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            if bad[v] and index.op[v] == VAR:
                name = index.names[index.var[v]]
                raise ValidationError(f"no assignment for variable {name!r}")
            if bad[v]:
                raise ValidationError(f"term uses ~ but {algebra.name} has no negation")
            stack.extend(int(k) for k in (index.right[v], index.left[v]) if k >= 0)


# most values one gather of `theory_partition` computes at once
_VALUES = 1 << 15


def theory_partition(
    algebra: FiniteAlgebra, terms: Sequence[Term] | TermIndex, num_vars: int = 3
) -> np.ndarray:
    """``partition_ids(value_matrix(algebra, terms, num_vars))``, computed one
    value row per term class.

    `terms` is a term list, in any order, or its `TermIndex`.  Nodes are
    classified level by level (see the module docstring): a code not seen
    before is evaluated from its children's class rows, ``_VALUES`` values
    at a time, and a new row gets a new class.  Raises the ValidationError
    `value_matrix` raises first."""
    index = terms if isinstance(terms, TermIndex) else _walk(terms)
    _check(algebra, index, num_vars)
    n = algebra.size
    dtype = np.int8 if n <= 127 else np.int16  # of values, as in value_matrix
    meet, join, neg = (None if t is None else t.astype(dtype) for t in algebra.arrays())
    flat = {MEET: meet.ravel(), JOIN: join.ravel()}
    grids = _grids(n, num_vars)
    shape = (n,) * num_vars
    width = n**num_vars
    rows = np.empty((16, width), dtype=dtype)  # class -> row, grown by doubling
    by_row: dict[bytes, int] = {}

    def intern(block: np.ndarray) -> list[int]:
        nonlocal rows
        fresh = len(by_row)
        out = [by_row.setdefault(row.tobytes(), len(by_row)) for row in block]
        if len(by_row) > fresh:
            while len(rows) < len(by_row):
                rows = np.concatenate((rows, np.empty_like(rows)))
            new = np.flatnonzero(np.array(out) >= fresh)
            rows[np.array(out)[new]] = block[new]
        return out

    def evaluate(op: int, a: np.ndarray, b: np.ndarray) -> list[int]:
        # classes of the codes (op, a[i], b[i]), in order
        if op == VAR:
            names = [index.names[v] for v in a.tolist()]
            return intern(np.array([np.broadcast_to(grids[x], shape).ravel() for x in names], dtype))
        out: list[int] = []
        step, span = max(1, _VALUES // width), min(width, _VALUES)
        for s in range(0, len(a), step):
            block = np.empty((len(a[s : s + step]), width), dtype=dtype)
            for lo in range(0, width, span):
                # one row, or whole rows: a contiguous slice either way
                dst = block[:, lo : lo + span]
                x = rows[a[s : s + step], lo : lo + span]
                if op == NEG:
                    neg.take(x, out=dst)
                else:
                    code = np.multiply(x, n, dtype=np.int16 if n * n <= 1 << 15 else np.int32)
                    code += rows[b[s : s + step], lo : lo + span]
                    flat[op].take(code, out=dst)
            out += intern(block)
        return out

    cls = np.empty(len(index.op), dtype=np.int64)  # node -> class
    radix = len(index.op) + 1  # exceeds every class and variable id
    # codes evaluated so far, sorted, behind a sentinel above every code
    seen = np.array([np.iinfo(np.int64).max])
    seen_cls = np.array([-1])
    for at in index.levels():
        op = index.op[at].astype(np.int64)
        # cls[-1], read for a missing child, is masked out
        a = np.where(op == VAR, index.var[at], cls[index.left[at]])
        b = np.where(op >= MEET, cls[index.right[at]], 0)
        codes, inverse = np.unique((op * radix + a) * radix + b, return_inverse=True)
        pos = np.searchsorted(seen, codes)
        known = seen[pos] == codes
        found = seen_cls[pos]
        new = codes[~known]
        # sorted codes group by operation, their leading digit
        bounds = np.searchsorted(new // (radix * radix), np.arange(JOIN + 2))
        new_cls: list[int] = []
        for o, lo, hi in zip(range(JOIN + 1), bounds, bounds[1:]):
            if hi > lo:
                new_cls += evaluate(o, new[lo:hi] // radix % radix, new[lo:hi] % radix)
        found[~known] = new_cls
        cls[at] = found[inverse]
        seen, seen_cls = np.concatenate((new, seen)), np.concatenate((found[~known], seen_cls))
        order = np.argsort(seen, kind="stable")
        seen, seen_cls = seen[order], seen_cls[order]
    return _canonical(_least(cls[index.roots]))


def signatures(terms: Sequence[Term] | TermIndex) -> list[tuple[int, int, int]]:
    """(variable, positive, negative) occurrence bitmasks per term, x_i at
    bit i - 1; `terms` is a term list or its `TermIndex`.  Level by level,
    ``~`` swaps its argument's positive and negative masks, and ``∧``, ``∨``
    take the union of their arguments' masks."""
    index = terms if isinstance(terms, TermIndex) else _walk(terms)
    bits = [1 << (int(name[1:]) - 1) for name in index.names]
    # Python ints beyond 62 variables
    dtype = np.int64 if max(bits, default=0) < 1 << 62 else object
    bit = np.array(bits + [0], dtype=dtype)  # bit[-1] = 0, read for operations
    pos = np.zeros(len(index.op), dtype=dtype)
    neg = np.zeros(len(index.op), dtype=dtype)
    for at in index.levels():
        op, l, r = index.op[at], index.left[at], index.right[at]
        # pos[-1] and neg[-1], read for a missing child, are masked out
        is_neg = op == NEG
        pos[at] = np.where(op == VAR, bit[index.var[at]], np.where(is_neg, neg[l], pos[l] | pos[r]))
        neg[at] = np.where(is_neg, pos[l], np.where(op == VAR, 0, neg[l] | neg[r]))
    p, m = pos[index.roots], neg[index.roots]
    return list(zip((p | m).tolist(), p.tolist(), m.tolist()))


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


def _aligned(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pairs up labels as zip does, up to the shorter array
    k = min(len(p), len(q))
    return np.asarray(p)[:k], np.asarray(q)[:k]


def refines(p: np.ndarray, q: np.ndarray) -> bool:
    """Does the partition labelled by p refine the one labelled by q?  It
    does when q is constant on each run of equal p-labels once the labels
    are sorted stably by p."""
    p, q = _aligned(p, q)
    order = np.argsort(p, kind="stable")
    p, q = p[order], q[order]
    return not ((p[1:] == p[:-1]) & (q[1:] != q[:-1])).any()


def same_partition(p: np.ndarray, q: np.ndarray) -> bool:
    return refines(p, q) and refines(q, p)


def first_violation(p: np.ndarray, q: np.ndarray) -> tuple[int, int] | None:
    """First index pair grouped by p but split by q (for error reporting):
    the least index i whose q-label differs from that of the first index
    with p-label p[i], after it."""
    p, q = _aligned(p, q)
    rep = _least(p)
    bad = np.flatnonzero(q[rep] != q)
    return (int(rep[bad[0]]), int(bad[0])) if len(bad) else None


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
