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

A term list is read as `finalg`'s program (``finalg._program``): one flat
list of hash-consed steps, children first, every ``s /\ (s \/ t)`` one step
of x.y.  One compiled program serves `finalg.satisfies`, `finalg.is_class`,
`value_matrix` and the sweeps here.  The program of ``enumerate_terms(m, k)``
is compiled once and cached by ``(m, k)`` (`term_index`).  Each step has a
level, 0 for a variable and otherwise one more than its highest child,
derived once per program.

Equal value rows are a congruence of the term algebra: the row of f(s, t)
depends only on the rows of s and t.  So `theory_partition` labels steps by
class, level by level, without the matrix.  A step's code is its operation
and the classes of its children (its variable, for a variable); `np.unique`
groups the codes of one level, and only a code not seen at a lower level is
evaluated, by the node step of `finalg._run` (``finalg._step``), in
batches of whole rows: as many as fit in one gather of ``finalg._CHUNK``
values, and at least one.  Its row is interned by content.  The 8427 terms of at most 7
nodes over x1..x3 fall into at most 235 classes in each named algebra (235
in U) and 1261 codes in U, so one row per class is kept and one per code
computed.  `signatures` propagates occurrence bitmasks over the same levels.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import finalg
from .finalg import FiniteAlgebra, ValidationError, _canonical, _checked_tables, _least
from .finalg import _DOT, _MEET, _NEG, _VAR, _Program, _program, _run, _step
from .terms import Identity, Meet, Join, Neg, Term, Var

__all__ = [
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


def term_index(max_nodes: int = 7, num_vars: int = 3) -> _Program:
    """The program of ``enumerate_terms(max_nodes, num_vars)``, compiled once
    per pair of ints."""
    return _enumerated_index(max_nodes, num_vars)


@lru_cache(maxsize=8)
def _enumerated_index(max_nodes: int, num_vars: int) -> _Program:
    # uncached: hashing thousands of terms for `_program`'s key costs more
    # than compiling them
    return _program.__wrapped__(enumerate_terms(max_nodes, num_vars), False)


def _compiled(terms: Sequence[Term] | _Program) -> _Program:
    return terms if isinstance(terms, _Program) else _program.__wrapped__(tuple(terms), False)


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


def theory_partition(
    algebra: FiniteAlgebra, terms: Sequence[Term] | _Program, num_vars: int = 3
) -> np.ndarray:
    """``partition_ids(value_matrix(algebra, terms, num_vars))``, computed one
    value row per term class.

    `terms` is a term list, in any order, or its program (`term_index`).
    Steps are classified level by level (see the module docstring): a code
    not seen before is evaluated from its children's class rows by
    ``finalg._step``, the node step of ``finalg._run``, a batch of whole
    rows at a time, and a new row gets a new class.  Raises the
    ValidationError `value_matrix` raises first, through the same check."""
    prog = _compiled(terms)
    n = algebra.size
    grids = _grids(n, num_vars)
    tables = _checked_tables(algebra, prog, [grids.get(v) for v in prog.names])
    dtype = np.int8 if n <= 127 else np.int16  # of values, as in value_matrix
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
        if op == _VAR:
            names = [prog.names[v] for v in a.tolist()]
            return intern(np.array([np.broadcast_to(grids[x], shape).ravel() for x in names], dtype))
        out: list[int] = []
        batch = max(1, finalg._CHUNK // width)  # whole rows, as many as one chunk holds
        for s in range(0, len(a), batch):
            x = rows[a[s : s + batch]]
            y = None if op == _NEG else rows[b[s : s + batch]]
            out += intern(_step(op, x, y, tables[op], n).astype(dtype, copy=False))
        return out

    cls = np.empty(len(prog.steps), dtype=np.int64)  # step -> class
    radix = len(prog.steps) + 1  # exceeds every class and variable id
    # codes evaluated so far, sorted, behind a sentinel above every code
    seen = np.array([np.iinfo(np.int64).max])
    seen_cls = np.array([-1])
    for at, op, left, right in prog.levels:
        # what is read at a missing child (-1) or at a variable's name index
        # is masked out
        a = np.where(op == _VAR, left, cls[left])
        b = np.where(op >= _MEET, cls[right], 0)
        codes, inverse = np.unique((op * radix + a) * radix + b, return_inverse=True)
        pos = np.searchsorted(seen, codes)
        known = seen[pos] == codes
        found = seen_cls[pos]
        new = codes[~known]
        # sorted codes group by operation, their leading digit
        bounds = np.searchsorted(new // (radix * radix), np.arange(_DOT + 2))
        new_cls: list[int] = []
        for o, lo, hi in zip(range(_DOT + 1), bounds, bounds[1:]):
            if hi > lo:
                new_cls += evaluate(o, new[lo:hi] // radix % radix, new[lo:hi] % radix)
        found[~known] = new_cls
        cls[at] = found[inverse]
        seen, seen_cls = np.concatenate((new, seen)), np.concatenate((found[~known], seen_cls))
        order = np.argsort(seen, kind="stable")
        seen, seen_cls = seen[order], seen_cls[order]
    return _canonical(_least(cls[np.array(prog.roots, dtype=np.int64)]))


def signatures(terms: Sequence[Term] | _Program) -> list[tuple[int, int, int]]:
    """(variable, positive, negative) occurrence bitmasks per term, x_i at
    bit i - 1; `terms` is a term list or its program (`term_index`).  Level
    by level, ``~`` swaps its argument's positive and negative masks, and
    ``∧``, ``∨`` and x.y take the union of their arguments' masks."""
    prog = _compiled(terms)
    bits = [1 << (int(name[1:]) - 1) for name in prog.names]
    # Python ints beyond 62 variables
    dtype = np.int64 if max(bits, default=0) < 1 << 62 else object
    bit = np.array(bits + [0], dtype=dtype)  # bit[-1] = 0, read for operations
    pos = np.zeros(len(prog.steps), dtype=dtype)
    neg = np.zeros(len(prog.steps), dtype=dtype)
    for at, op, l, r in prog.levels:
        # what is read at a missing child (-1) or at a variable's name index
        # is masked out
        is_var, is_neg = op == _VAR, op == _NEG
        own = bit[np.where(is_var, l, -1)]
        pos[at] = np.where(is_var, own, np.where(is_neg, neg[l], pos[l] | pos[r]))
        neg[at] = np.where(is_neg, pos[l], np.where(is_var, 0, neg[l] | neg[r]))
    roots = np.array(prog.roots, dtype=np.int64)
    p, m = pos[roots], neg[roots]
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


def refines(p: np.ndarray, q: np.ndarray) -> bool:
    """Does the partition labelled by p refine the one labelled by q?"""
    return first_violation(p, q) is None


def same_partition(p: np.ndarray, q: np.ndarray) -> bool:
    return refines(p, q) and refines(q, p)


def first_violation(p: np.ndarray, q: np.ndarray) -> tuple[int, int] | None:
    """First index pair grouped by p but split by q (for error reporting):
    the least index i whose q-label differs from that of the first index
    with p-label p[i], after it."""
    p, q = np.asarray(p), np.asarray(q)
    if len(p) != len(q):
        raise ValidationError(f"cannot compare partitions of {len(p)} and {len(q)} elements")
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
