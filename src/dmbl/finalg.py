r"""Finite algebras with two binary operations and an optional involution.

The carrier is always ``range(n)`` with a parallel list of element names;
operation tables are dense ``n x n`` (or length ``n``) integer tables.
Everything downstream (catalog, sums, decompositions, variety checks) works
on these tables.

Element order matters for one thing only: :func:`satisfies` reports the
*least* counterexample in the lexicographic order of assignments, variables
sorted by name, elements by index.  The scan runs over assignments in that
order, in blocks of bounded size, and stops at the least counterexample.

Terms are evaluated by one function, ``_evaluate``, over numpy index arrays.
A node over more than ``_CHUNK`` values reads its table as a flat array:
entry ``left * n + right`` (int16 codes while ``n * n <= 2**15``, int32
beyond) or, for ``~``, the argument's entry, through ``take`` one chunk of
``_CHUNK`` indices at a time; smaller nodes index the tables directly.  When
a block of the scan holds more than ``_CHUNK`` assignments, the subterms that
read no fixed variable are evaluated once, in the first block, and reused by
every later one.

Congruences are computed on rows of least-element labels (entry x is the
least element of x's block), so equal partitions are equal rows, and one
``np.unique`` over whole rows deduplicates them.  By Mal'cev's lemma all
principal congruences come from one reachability closure on the graph of
unordered pairs, squared as a bit-packed boolean matrix; the join closure
then adds one principal at a time, joining it with every congruence found
so far, ``_BATCH`` labels at a time, by scatter-min label propagation.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .terms import Identity, Meet, Join, Neg, Term, Var, variables

__all__ = [
    "CONGRUENCE_COUNT_LIMIT",
    "CONGRUENCE_SIZE_LIMIT",
    "Congruence",
    "FiniteAlgebra",
    "SatisfactionResult",
    "ValidationError",
    "algebra_from_json",
    "algebra_to_json",
    "congruences",
    "dual",
    "eval_term",
    "homomorphism_failure",
    "is_class",
    "is_isomorphic",
    "is_subdirectly_irreducible",
    "isomorphism_key",
    "join_partitions",
    "load_algebra",
    "monolith",
    "power",
    "product",
    "quotient",
    "satisfies",
    "save_algebra",
    "si_quotient_flags",
    "subalgebra_generated",
]


class ValidationError(ValueError):
    """Structurally bad input data (tables, partitions, systems)."""


class FiniteAlgebra:
    """A finite algebra of type <2,2> or <2,2,1>.

    `meet` and `join` are n x n tables, `neg` an optional length-n table.
    Construction checks shapes, ranges and that `neg` is a bijection; it does
    *not* impose any equational laws — use :func:`is_class` for that.
    """

    __slots__ = ("name", "elements", "meet", "join", "neg", "_index", "_np", "_memo")

    def __init__(
        self,
        name: str,
        elements: Sequence[str],
        meet: Sequence[Sequence[int]],
        join: Sequence[Sequence[int]],
        neg: Sequence[int] | None = None,
    ):
        elements = tuple(elements)
        n = len(elements)
        if n == 0:
            raise ValidationError("algebra needs at least one element")
        if len(set(elements)) != n:
            raise ValidationError("element names must be distinct")

        def check_table(tbl, label):
            try:
                tbl = tuple(tuple(map(operator.index, row)) for row in tbl)
            except TypeError:
                raise ValidationError(f"{label} table must hold integer entries") from None
            if len(tbl) != n or any(len(row) != n for row in tbl):
                raise ValidationError(f"{label} table must be {n}x{n}")
            # the distinct entries are few; find the offender only on failure
            seen = set().union(*tbl)
            if min(seen) < 0 or max(seen) >= n:
                v = next(v for row in tbl for v in row if not 0 <= v < n)
                raise ValidationError(f"{label} table entry {v} out of range [0,{n})")
            return tbl

        self.name = str(name)
        self.elements = elements
        self.meet = check_table(meet, "meet")
        self.join = check_table(join, "join")
        if neg is None:
            self.neg = None
        else:
            try:
                neg = tuple(map(operator.index, neg))
            except TypeError:
                raise ValidationError("neg table must hold integer entries") from None
            if len(neg) != n:
                raise ValidationError(f"neg table must have length {n}")
            if any(not 0 <= v < n for v in neg):
                raise ValidationError("neg table entry out of range")
            if len(set(neg)) != n:
                raise ValidationError("neg table must be a bijection")
            self.neg = neg
        self._index = {name_: i for i, name_ in enumerate(elements)}
        self._np = None
        # derived data of the tables (colours, generating set), filled lazily
        self._memo: dict = {}

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element: str | int) -> int:
        """Resolve an element name (or index) to its index."""
        if isinstance(element, str):
            try:
                return self._index[element]
            except KeyError:
                raise ValidationError(
                    f"{self.name} has no element named {element!r}"
                ) from None
        i = int(element)
        if not 0 <= i < self.size:
            raise ValidationError(f"element index {i} out of range for {self.name}")
        return i

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """numpy views of (meet, join, neg), cached."""
        if self._np is None:
            m = np.array(self.meet, dtype=np.int16)
            j = np.array(self.join, dtype=np.int16)
            g = None if self.neg is None else np.array(self.neg, dtype=np.int16)
            self._np = (m, j, g)
        return self._np

    def __repr__(self) -> str:
        sig = "<2,2,1>" if self.neg is not None else "<2,2>"
        return f"FiniteAlgebra({self.name!r}, {self.size} elements, {sig})"

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.elements, self.meet, self.join, self.neg)

    def rename_elements(self, mapping: Mapping[str, str]) -> "FiniteAlgebra":
        new = [mapping.get(e, e) for e in self.elements]
        return FiniteAlgebra(self.name, new, self.meet, self.join, self.neg)

    def permute(self, order: Sequence[str | int]) -> "FiniteAlgebra":
        """Reorder the carrier; `order` lists every element exactly once."""
        perm = [self.index(e) for e in order]
        if sorted(perm) != list(range(self.size)):
            raise ValidationError("permutation must mention every element once")
        return _induced(
            self.name, [self.elements[p] for p in perm], self.arrays(), perm,
            np.argsort(perm),
        )


# ---------------------------------------------------------------------------
# evaluation and satisfaction

def eval_term(algebra: FiniteAlgebra, term: Term, assignment: Mapping[str, str | int]) -> str:
    """Evaluate `term` under `assignment` (names or indices); returns a name."""
    grids = {
        v: np.array(algebra.index(assignment[v]), dtype=np.int16)
        for v in variables(term)
        if v in assignment
    }
    return algebra.elements[int(_evaluate(algebra, term, grids, {}))]


def _evaluate(
    A: FiniteAlgebra,
    t: Term,
    grids: Mapping[str, np.ndarray],
    memo: dict,
    keep: set[int] | None = None,
) -> np.ndarray:
    """Values of `t` with each variable bound to an index array; the arrays
    broadcast against each other, and so does the result.

    A node over more than ``_CHUNK`` values reads its table through
    :func:`_gather`: a binary node reads entry ``left * n + right`` of the
    flat table, a ``~`` node its argument's entry of `neg`.  Smaller nodes
    index the tables directly.  Values are memoised in `memo` by ``id``: every
    subterm's when `keep` is None, else only those whose ids are in `keep`, so
    any other array is freed once its parent has read it.  A value already in
    `memo` is not computed again: `satisfies` puts there the subterms that
    read no fixed variable, computed in its first block."""
    # keyed by id(): the caller holds every term it passes for as long as memo
    # lives, so no id can be recycled within one call
    key = id(t)
    if key in memo:
        return memo[key]
    meet, join, neg = A.arrays()
    if isinstance(t, Var):
        if t.name not in grids:
            raise ValidationError(f"no assignment for variable {t.name!r}")
        val = grids[t.name]
    elif isinstance(t, Neg):
        if neg is None:
            raise ValidationError(f"term uses ~ but {A.name} has no negation")
        arg = _evaluate(A, t.child, grids, memo, keep)
        val = _gather(neg, arg) if arg.size > _CHUNK else neg[arg]
    elif isinstance(t, (Meet, Join)):
        table = meet if isinstance(t, Meet) else join
        left = _evaluate(A, t.left, grids, memo, keep)
        right = _evaluate(A, t.right, grids, memo, keep)
        if left.size * right.size > _CHUNK:
            n = A.size
            code = np.multiply(left, n, dtype=np.int16 if n * n <= 1 << 15 else np.int32)
            if code.shape == np.broadcast_shapes(code.shape, right.shape):
                np.add(code, right, out=code)  # left spans the result
            else:
                code = code + right
            del left, right
            # the codes are this node's own, so int16 values can replace them
            val = _gather(table, code, code if code.dtype == table.dtype else None)
        else:
            val = table[left, right]
    else:
        raise TypeError(f"not a term: {t!r}")
    if keep is None or key in keep:
        memo[key] = val
    return val


# nodes over more values than this read their tables by chunked `take`
_CHUNK = 1 << 14


def _gather(
    table: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``table.ravel()[idx]``, read ``_CHUNK`` indices at a time into `out`
    (a new array when None): `take` copies each chunk of indices to intp
    before it writes, so chunking keeps that copy small, and `out` may be
    `idx` itself."""
    flat = table.ravel()
    if out is None:
        out = np.empty(idx.shape, dtype=table.dtype)
    idx, dst = idx.ravel(), out.ravel()
    for s in range(0, idx.size, _CHUNK):
        flat.take(idx[s : s + _CHUNK], out=dst[s : s + _CHUNK])
    return out


@dataclass(frozen=True)
class SatisfactionResult:
    """Outcome of checking one identity: truth plus a least counterexample."""

    holds: bool
    counterexample: dict[str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


# most assignments one step of `satisfies` evaluates at once
_BLOCK = 1 << 20


def satisfies(algebra: FiniteAlgebra, identity: Identity) -> SatisfactionResult:
    """Check an identity over all assignments.

    The counterexample, when there is one, is the lexicographically least
    assignment (variables sorted by name, elements ordered as in the algebra).
    Assignments are scanned in that order, in blocks of at most ``_BLOCK``:
    each block fixes as few leading variables as it must, the rest span
    broadcast axes, and the scan stops at the first block with a failure.
    A block of more than ``_CHUNK`` assignments evaluates the subterms that
    read no fixed variable only once, in the first block, and within a block
    keeps only the values of subterms with more than one parent.
    """
    names = sorted(variables(identity.lhs) | variables(identity.rhs))
    k = len(names)
    n = algebra.size
    if k == 0:
        raise ValidationError("identity contains no variables")

    fixed = 0
    while n ** (k - fixed) > _BLOCK:
        fixed += 1
    free = k - fixed
    ar = np.arange(n, dtype=np.int16)
    grids = {
        v: ar.reshape((-1,) + (1,) * (free - 1 - axis))
        for axis, v in enumerate(names[fixed:])
    }
    keep, hoist = None, set()
    if n**free > _CHUNK:
        keep, hoist = _block_plan(identity, set(names[:fixed]))
    hoisted: dict = {}
    for prefix in itertools.product(range(n), repeat=fixed):
        for v, c in zip(names, prefix):
            grids[v] = np.array(c, dtype=np.int16)
        memo = dict(hoisted)
        bad = _evaluate(algebra, identity.lhs, grids, memo, keep) != _evaluate(
            algebra, identity.rhs, grids, memo, keep
        )
        if bad.any():
            # every free variable occurs, so bad spans all `free` axes
            coords = prefix + np.unravel_index(int(np.argmax(bad)), bad.shape)
            cex = {v: algebra.elements[int(c)] for v, c in zip(names, coords)}
            return SatisfactionResult(False, cex)
        hoisted = {key: memo[key] for key in hoist}
    return SatisfactionResult(True, None)


def _block_plan(identity: Identity, fixed: set[str]) -> tuple[set[int], set[int]]:
    """Ids of the subterms a block of `satisfies` keeps, and of those it
    keeps for every later block.

    A block keeps the subterms with more than one parent (each side counts
    the identity as a parent) and the hoisted ones.  The hoisted subterms are
    the largest that read no variable in `fixed`: each is a side, or has a
    parent that reads such a variable."""
    parents: dict[int, int] = {}
    reads: dict[int, bool] = {}  # does the subterm read a fixed variable
    hoist: set[int] = set()

    def walk(t: Term) -> bool:
        key = id(t)
        parents[key] = parents.get(key, 0) + 1
        if key not in reads:
            if isinstance(t, Var):
                reads[key] = t.name in fixed
            else:
                kids = (t.child,) if isinstance(t, Neg) else (t.left, t.right)
                # a list, so that every child is walked and counted
                reads[key] = any([walk(c) for c in kids])
                if reads[key]:
                    hoist.update(id(c) for c in kids if not reads[id(c)])
        return reads[key]

    for side in (identity.lhs, identity.rhs):
        if not walk(side):
            hoist.add(id(side))
    return {key for key, c in parents.items() if c > 1} | hoist, hoist


# ---------------------------------------------------------------------------
# constructions

def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The table of a product built from the same table x of the first
    factor and y of the second: argument ``(i, j)`` is ``i * len(y) + j``."""
    # the outer sum has the axes of x, then of y, and each argument of the
    # product is an axis of x followed by one of y
    d, nb = x.ndim, len(y)
    v = np.add.outer(x.astype(np.intp) * nb, y).transpose(
        [i + d * k for i in range(d) for k in (0, 1)]
    )
    return v.reshape((len(x) * nb,) * d)


def _tuple_names(factors: Sequence[Sequence[str]]) -> list[str] | None:
    """The names "(p,q,...)" of the tuples of the factors' element names, or
    None when two of them are equal (as for "a" and "a,a")."""
    names = ["(" + ",".join(c) + ")" for c in itertools.product(*factors)]
    return names if len(set(names)) == len(names) else None


def _escaped(names: Sequence[str]) -> list[str]:
    # with backslashes and commas escaped, the bare commas of a tuple name
    # separate its parts, so distinct tuples get distinct names
    return [e.replace("\\", "\\\\").replace(",", "\\,") for e in names]


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; both factors must have negation, or neither.  The pair
    (i, j) is element ``i * b.size + j``, named "(p,q)" (with the factors'
    commas and backslashes escaped if that would make two names equal)."""
    if (a.neg is None) != (b.neg is None):
        raise ValidationError("cannot form a product of a <2,2,1> and a <2,2> algebra")
    names = _tuple_names([a.elements, b.elements]) or _tuple_names(
        [_escaped(a.elements), _escaped(b.elements)]
    )
    (am, aj, an), (bm, bj, bn) = a.arrays(), b.arrays()
    neg = None if an is None else _pair(an, bn).tolist()
    return FiniteAlgebra(
        f"{a.name}x{b.name}", names, _pair(am, bm).tolist(), _pair(aj, bj).tolist(), neg
    )


def power(a: FiniteAlgebra, k: int) -> FiniteAlgebra:
    """Direct power with flat tuple names "(a,b,...)", built as one algebra.
    Element ``x`` has the digits of ``x`` in base ``a.size`` as coordinates,
    the first most significant, as in ``product(product(a, a), a)``;
    parentheses inside the factor's names are dropped unless that makes two
    names equal, and commas and backslashes escaped if even the whole names
    collide."""
    if k < 1:
        raise ValidationError("power needs k >= 1")
    if k == 1:
        return a
    tables = a.arrays()
    out = tables
    for _ in range(k - 1):
        out = tuple(None if t is None else _pair(o, t) for o, t in zip(out, tables))
    bare = [e.replace("(", "").replace(")", "") for e in a.elements]
    names = (
        _tuple_names([bare] * k)
        or _tuple_names([a.elements] * k)
        or _tuple_names([_escaped(a.elements)] * k)
    )
    meet, join, neg = (None if t is None else t.tolist() for t in out)
    return FiniteAlgebra(f"{a.name}^{k}", names, meet, join, neg)


def subalgebra_generated(
    algebra: FiniteAlgebra, seed: Iterable[str | int]
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Smallest subuniverse containing `seed`, as an algebra plus inclusion.

    The returned tuple maps local indices to parent indices; element names are
    inherited, and the local order follows the parent order.
    """
    idx = {algebra.index(e) for e in seed}
    if not idx:
        raise ValidationError("seed must be nonempty")
    inclusion = tuple(sorted(_closure(algebra, idx)))
    label = np.full(algebra.size, -1)
    label[list(inclusion)] = range(len(inclusion))
    names = [algebra.elements[p] for p in inclusion]
    name = f"<{algebra.name}:{len(inclusion)}>"
    return _induced(name, names, algebra.arrays(), inclusion, label), inclusion


def _closure(A: FiniteAlgebra, seed: set[int]) -> set[int]:
    # smallest subuniverse containing seed; each round combines the elements
    # found in the last round with everything found so far
    current = set(seed)
    fresh = set(seed)
    while fresh:
        new = set()
        for a in fresh:
            if A.neg is not None:
                new.add(A.neg[a])
            for b in current:
                new.add(A.meet[a][b])
                new.add(A.meet[b][a])
                new.add(A.join[a][b])
                new.add(A.join[b][a])
        fresh = new - current
        current |= fresh
    return current


def _induced(
    name: str,
    names: Sequence[str],
    tables: tuple[np.ndarray, np.ndarray, np.ndarray | None],
    keep: Sequence[int],
    label: Sequence[int] | np.ndarray,
) -> FiniteAlgebra:
    """The algebra whose (meet, join, neg) tables are `tables` read on the
    elements `keep`, in that order, with every value v renamed ``label[v]``.

    Subalgebras, quotients, permutations and decomposition slices are all
    built here; `FiniteAlgebra` checks that the result is well formed."""
    keep = np.asarray(keep, dtype=np.intp)
    label = np.asarray(label, dtype=np.intp)
    meet, join, neg = tables
    square = np.ix_(keep, keep)
    return FiniteAlgebra(
        name,
        names,
        label[meet[square]].tolist(),
        label[join[square]].tolist(),
        None if neg is None else label[neg[keep]].tolist(),
    )


# ---------------------------------------------------------------------------
# congruences

CONGRUENCE_SIZE_LIMIT = 32
#: most congruences `congruences` lists: the count, not the carrier, sets
#: the work, and 32 elements can have far more (IS2^5 has 32 elements)
CONGRUENCE_COUNT_LIMIT = 1 << 16


@dataclass(frozen=True)
class Congruence:
    """A congruence, stored as a canonical partition.

    ``block_of[x]`` is the block id of element x; ids are numbered by first
    occurrence, so equal partitions are equal tuples.  ``blocks`` groups the
    element indices.

    The constructor takes ``block_of`` as given; :func:`quotient`,
    :func:`join_partitions`, :func:`meet_partitions`, :meth:`refines` and
    :func:`si_quotient_flags` reject ids not numbered by first occurrence.
    :meth:`from_blocks` builds the canonical form from any list of blocks.
    """

    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        bo = [-1] * n
        for b, members in enumerate(blocks):
            for x in members:
                if bo[x] != -1:
                    raise ValidationError("blocks overlap")
                bo[x] = b
        if any(v == -1 for v in bo):
            raise ValidationError("blocks must cover every element")
        return Congruence(_canon(bo))

    @property
    def size(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def is_identity(self) -> bool:
        return self.num_blocks == self.size

    def is_total(self) -> bool:
        return self.num_blocks == 1

    def refines(self, other: "Congruence") -> bool:
        # self refines other when its meet with other is self
        return meet_partitions(self, other) == self


def _canon(block_of: Sequence) -> tuple[int, ...]:
    # number the distinct labels, of any hashable kind, by first occurrence
    relabel: dict = {}
    return tuple([relabel.setdefault(b, len(relabel)) for b in block_of])


_NOT_CANONICAL = "partition block ids must be numbered by first occurrence"


def _require_canonical(parts: Iterable[Congruence]) -> None:
    # the public partition operations read block ids as a canonical form;
    # the engine's own rows are canonical by construction and skip this check
    for p in parts:
        _require_canonical_rows(np.array([p.block_of]))


def _require_canonical_rows(B: np.ndarray) -> None:
    """Raise unless each row of `B` numbers its blocks by first occurrence:
    its first id is 0 and each later one is at least 0 and at most one above
    the greatest before it."""
    if B.size == 0:
        return
    if B.dtype.kind not in "iu":
        raise ValidationError(_NOT_CANONICAL)
    top = np.maximum.accumulate(B, axis=1)
    if not ((B[:, :1] == 0).all() and (B >= 0).all() and (B[:, 1:] <= top[:, :-1] + 1).all()):
        raise ValidationError(_NOT_CANONICAL)


def _ops_of(A: FiniteAlgebra) -> list[tuple[int, Sequence]]:
    meet, join, neg = A.arrays()
    return [(2, meet), (2, join)] + ([] if neg is None else [(1, neg)])


# most rows times elements one batch of the join closure holds
_BATCH = 1 << 16


def _components(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on
    ``range(size)`` with the edges ``(u[e], v[e])``.  Until the ends of
    every edge agree, each pass lowers both ends to the lesser label (a
    scatter-min), then gives each vertex the label of its label (pointer
    jumping): labels only fall, and stay inside the component."""
    lab = np.arange(size)
    lu, lv = u, v
    while not np.array_equal(lu, lv):
        np.minimum.at(lab, u, lv)
        np.minimum.at(lab, v, lu)
        lab = lab[lab]
        lu, lv = lab[u], lab[v]
    return lab


def _joins_above(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] ∨ b`` for each row i of `a`, in order, that `b` does not
    refine, all as least-element label rows.  Element x links the least
    elements of the a-blocks of x and of ``b[x]``; only those are merged."""
    linked = a[:, b]  # the a-label of b[x]
    rows = (linked != a).any(axis=1)
    a, linked = a[rows], linked[rows]
    m, n = a.shape
    base = (np.arange(m) * n)[:, None]
    u, v = a + base, linked + base
    moved = u != v
    lab = _components(m * n, u[moved], v[moved])
    return (lab[u] - base).astype(a.dtype)


def _canonical(lab: np.ndarray) -> np.ndarray:
    # least-element labels -> block ids numbered by first occurrence: the
    # block of least element x is the number of blocks opened before x
    rank = np.cumsum(lab == np.arange(lab.shape[1]), axis=1) - 1
    return np.take_along_axis(rank, lab.astype(np.intp), axis=1)


def _least(block_of: np.ndarray) -> np.ndarray:
    # block ids -> least-element labels: where each id first occurs
    first = (block_of[:, None, :] == np.arange(block_of.shape[1])[:, None]).argmax(axis=2)
    return np.take_along_axis(first, block_of, axis=1)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    # one fixed-width bytes item per row, so that np.unique compares rows
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _distinct(rows: np.ndarray) -> np.ndarray:
    return rows[np.unique(_row_keys(rows), return_index=True)[1]]


def _principal_rows(n: int, ops: Sequence[tuple[int, Sequence]]) -> np.ndarray:
    """Cg(a, b) for every pair a < b, in ``np.triu_indices`` order, as
    least-element label rows.  By Mal'cev's lemma Cg(a, b) is generated by
    the images of {a, b} under composed translations x -> f(x, c), f(c, x),
    ~x: the pairs reachable from {a, b} in the graph of unordered pairs whose
    edges are single translations (columns only for a table that is not
    symmetric; images of two equal elements are dropped)."""
    if n > CONGRUENCE_SIZE_LIMIT:
        raise ValidationError(
            f"congruence enumeration limited to {CONGRUENCE_SIZE_LIMIT} elements, got {n}"
        )
    pa, pb = np.triu_indices(n, 1)
    m = len(pa)
    if m == 0:
        return np.zeros((0, n), dtype=np.int8)
    pid = np.full((n, n), m)  # column m collects the dropped images
    pid[pa, pb] = pid[pb, pa] = np.arange(m)
    targets = [np.empty((m, 0), dtype=np.intp)]
    for arity, table in ops:
        t = np.asarray(table, dtype=np.intp)
        for t in (t, t.T) if arity == 2 and not (t == t.T).all() else (t,):
            targets.append(pid[t[pa], t[pb]].reshape(m, t.size // n))
    reach = np.zeros((m, m + 1), dtype=bool)
    reach[np.arange(m)[:, None], np.hstack(targets)] = True
    reach = np.ascontiguousarray(reach[:, :m])
    np.fill_diagonal(reach, True)
    nxt = _boolean_product(reach, reach)
    while not np.array_equal(nxt, reach):  # reflexive-transitive closure
        reach, nxt = nxt, _boolean_product(nxt, nxt)
    # row r is the equivalence generated by the pairs it reaches
    r, k = np.nonzero(reach)
    lab = _components(m * n, r * n + pa[k], r * n + pb[k]).reshape(m, n)
    return (lab - (np.arange(m) * n)[:, None]).astype(np.int8)


def _boolean_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The boolean matrix product of x and y by table lookup (the "four
    Russians" method): the rows of y go 8 to a block, each block tabulates
    the OR of each of its 256 subsets of rows, 64 columns to a word, and
    each byte of a row of x picks one subset per block."""
    q, r = y.shape
    words = np.zeros((q + -q % 8, -(-r // 64)), dtype=np.uint64)
    words.view(np.uint8)[:q, : -(-r // 8)] = np.packbits(y, axis=1, bitorder="little")
    blocks = words.reshape(-1, 8, words.shape[1])
    table = np.zeros((len(blocks), 256, words.shape[1]), dtype=np.uint64)
    for j in range(8):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] | blocks[:, j, None]
    picks = np.packbits(x, axis=1, bitorder="little")
    out = np.empty((len(x), words.shape[1]), dtype=np.uint64)
    step = max(1, _BATCH // max(words.size // 8, 1))  # rows of x per lookup
    for lo in range(0, len(x), step):
        chosen = table[np.arange(len(blocks)), picks[lo : lo + step]]
        out[lo : lo + step] = np.bitwise_or.reduce(chosen, axis=1)
    return np.unpackbits(out.view(np.uint8), axis=1, count=r, bitorder="little") > 0


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Transitive closure of the union; for congruences this is their join."""
    _require_canonical((p, q))
    lab = _least(np.array([p.block_of, q.block_of]))
    j = _joins_above(lab[:1], lab[1])
    return Congruence(tuple(_canonical(j)[0].tolist())) if len(j) else p


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    _require_canonical((p, q))
    return Congruence(_canon(list(zip(p.block_of, q.block_of))))


def is_congruence(algebra: FiniteAlgebra, part: Congruence) -> bool:
    """Is the partition compatible with every operation?  Each element is
    compared with the first element of its block, row- and column-wise."""
    if part.size != algebra.size:
        return False
    bo = np.asarray(part.block_of)
    _, first, inverse = np.unique(bo, return_index=True, return_inverse=True)
    rep = first[inverse]
    for table in algebra.arrays():
        if table is None:
            continue
        img = bo[table]
        if not (img == img[rep]).all():
            return False
        if img.ndim == 2 and not (img == img[:, rep]).all():
            return False
    return True


def congruences_ops(n: int, ops: Sequence[tuple[int, Sequence]]) -> list[Congruence]:
    """All congruences of the algebra on ``range(n)`` with the operations
    `ops`, ``(arity, table)`` pairs: the joins of sets of principal ones
    (:func:`_principal_rows`).  Starting from the identity, each principal
    in turn is joined with every congruence found so far, ``_BATCH // n``
    int8 least-element label rows at a time; only the final distinct rows
    become `Congruence` objects.  More than ``CONGRUENCE_COUNT_LIMIT``
    congruences after any principal's joins raise ValidationError."""
    prin = _distinct(_principal_rows(n, ops))
    found = np.arange(n, dtype=np.int8)[None]  # sorted by _row_keys
    per = _BATCH // n
    # finer principals first, so a principal that is the join of those below
    # it is already found, and adds nothing
    for p in prin[np.argsort(-(prin == np.arange(n)).sum(axis=1), kind="stable")]:
        keys, key = _row_keys(found), _row_keys(p[None])
        at = min(np.searchsorted(keys, key)[0], len(keys) - 1)
        if keys[at] == key[0]:
            continue
        # found stays the set of joins of the principals taken so far
        rows = [found]
        rows += [_joins_above(found[lo : lo + per], p) for lo in range(0, len(found), per)]
        keys = np.concatenate([_row_keys(r) for r in rows])
        found = np.vstack(rows)[np.unique(keys, return_index=True)[1]]
        if len(found) > CONGRUENCE_COUNT_LIMIT:
            raise ValidationError(
                f"congruence enumeration limited to {CONGRUENCE_COUNT_LIMIT} "
                f"congruences, found {len(found)} so far"
            )
    out = [Congruence(tuple(c)) for c in _canonical(found).tolist()]
    return sorted(out, key=lambda c: (c.num_blocks, c.block_of), reverse=True)


def si_quotient_flags(cons: Sequence[Congruence]) -> list[bool]:
    """For every congruence θ of one algebra S, given as the full list
    ``congruences(S)``: is S/θ subdirectly irreducible?

    By the correspondence theorem Con(S/θ) is the interval [θ, ∇] of Con(S),
    so S/θ is subdirectly irreducible exactly when θ is total or has a single
    upper cover.
    """
    m = len(cons)
    if m == 0:
        return []
    B = np.array([c.block_of for c in cons])
    _require_canonical_rows(B)
    first = _least(B)
    # leq[i, j]: cons[i] refines cons[j], i.e. each element's cons[j]-block
    # holds the first element of its cons[i]-block
    leq = np.empty((m, m), dtype=bool)
    step = max(1, _BATCH // (m * B.shape[1]))
    for lo in range(0, m, step):
        leq[lo : lo + step] = (B[:, first[lo : lo + step]] == B[:, None, :]).all(axis=2).T
    strict = leq & ~np.eye(m, dtype=bool)
    n_covers = (strict & ~_boolean_product(strict, strict)).sum(axis=1)
    return [bool(k == 1 or c.is_total()) for k, c in zip(n_covers, cons)]


def congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Every congruence of the algebra, identity first, total last.  Raises
    ValidationError above ``CONGRUENCE_SIZE_LIMIT`` elements or
    ``CONGRUENCE_COUNT_LIMIT`` congruences."""
    out = congruences_ops(algebra.size, _ops_of(algebra))
    out.sort(key=lambda c: (-c.num_blocks, c.block_of))
    return out


def principal_congruence(algebra: FiniteAlgebra, a: str | int, b: str | int) -> Congruence:
    """Cg(a,b): the least congruence identifying a and b, one row of
    :func:`_principal_rows` (so limited, like :func:`congruences`, to
    ``CONGRUENCE_SIZE_LIMIT`` elements unless a and b are equal)."""
    n = algebra.size
    i, j = sorted((algebra.index(a), algebra.index(b)))
    if i == j:
        return Congruence(tuple(range(n)))
    rows = _principal_rows(n, _ops_of(algebra))
    k = i * (2 * n - i - 1) // 2 + j - i - 1  # the pair (i, j) in triu order
    return Congruence(tuple(_canonical(rows[k : k + 1])[0].tolist()))


def monolith(algebra: FiniteAlgebra) -> Congruence | None:
    """Least nontrivial congruence, or None if the principals don't intersect
    above the identity (i.e. the algebra is not subdirectly irreducible).
    It is the meet of the principals: x and y share a block when every
    principal's label row gives them the same label.  Limited, like
    :func:`congruences`, to ``CONGRUENCE_SIZE_LIMIT`` elements."""
    n = algebra.size
    if n == 1:
        return None
    prin = _distinct(_principal_rows(n, _ops_of(algebra)))
    mono = Congruence(_canon(list(zip(*prin.tolist()))))
    return None if mono.is_identity() else mono


def is_subdirectly_irreducible(algebra: FiniteAlgebra) -> bool:
    """True when the algebra has a least nontrivial congruence.

    One-element algebras count as subdirectly irreducible (the usual
    convention: they have no pair of distinct congruences to separate).
    """
    if algebra.size == 1:
        return True
    return monolith(algebra) is not None


def quotient(algebra: FiniteAlgebra, part: Congruence) -> FiniteAlgebra:
    _require_canonical((part,))
    if not is_congruence(algebra, part):
        raise ValidationError("partition is not a congruence of the algebra")
    blocks = part.blocks
    names = [
        "{" + ",".join(algebra.elements[x] for x in b) + "}" if len(b) > 1
        else algebra.elements[b[0]]
        for b in blocks
    ]
    reps = [b[0] for b in blocks]
    return _induced(f"{algebra.name}/~", names, algebra.arrays(), reps, part.block_of)


# ---------------------------------------------------------------------------
# homomorphisms and isomorphism

def homomorphism_failure(
    A: FiniteAlgebra, B: FiniteAlgebra, f: Sequence[int]
) -> tuple[str, tuple[int, ...]] | None:
    """Where the map ``f`` (element ``a`` of A to element ``f[a]`` of B) fails
    to preserve an operation, or None when it is a homomorphism.

    The failure is the first ``(operation, arguments)`` in this order: pairs
    ``(a, b)`` row by row, ``"meet"`` before ``"join"`` at each pair, then
    ``("neg", (a,))``.  Negation is checked only when both algebras have one.
    """
    f = np.asarray(f, dtype=np.intp)
    if f.shape != (A.size,) or (f < 0).any() or (f >= B.size).any():
        raise ValidationError(
            f"a map {A.name} -> {B.name} needs {A.size} images in [0,{B.size})"
        )
    am, aj, an = A.arrays()
    bm, bj, bn = B.arrays()
    row, col = f[:, None], f[None, :]
    # bad[a, b, k]: operation k fails at (a, b)
    bad = np.stack((f[am] != bm[row, col], f[aj] != bj[row, col]), axis=-1)
    if bad.any():
        a, b, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return ("meet", "join")[k], (int(a), int(b))
    if an is not None and bn is not None:
        bad = f[an] != bn[f]
        if bad.any():
            return "neg", (int(np.argmax(bad)),)
    return None


def _generating_set(A: FiniteAlgebra) -> list[int]:
    # greedy small generating set
    gens: list[int] = []
    have: set[int] = set()
    while len(have) < A.size:
        # pick the element whose addition grows the closure the most
        best, best_cl = None, None
        for x in range(A.size):
            if x in have:
                continue
            cl = _closure(A, have | {x})
            if best_cl is None or len(cl) > len(best_cl):
                best, best_cl = x, cl
        gens.append(best)  # type: ignore[arg-type]
        have = best_cl  # type: ignore[assignment]
    return gens


def _colors(A: FiniteAlgebra) -> list[int]:
    # iterated structural refinement; the re-encoding sorts the distinct keys
    # so that equal structures get equal colors in *different* algebras.  The
    # seed ranks isomorphism invariants: fixpoint of neg, and how many y have
    # x /\ y = x and x \/ y = x
    n = A.size
    meet, join, neg = A.arrays()
    ar = np.arange(n)
    seed = list(zip(
        [False] * n if neg is None else (neg == ar).tolist(),
        (meet == ar[:, None]).sum(axis=1).tolist(),
        (join == ar[:, None]).sum(axis=1).tolist(),
    ))
    seed_ranks = {k: r for r, k in enumerate(sorted(set(seed)))}
    colors: list[int] = [seed_ranks[k] for k in seed]
    for _ in range(n):
        nxt = []
        for x in range(n):
            row = sorted(
                (colors[y], colors[A.meet[x][y]], colors[A.meet[y][x]],
                 colors[A.join[x][y]], colors[A.join[y][x]])
                for y in range(n)
            )
            key = (colors[x], colors[A.neg[x]] if A.neg is not None else -1, tuple(row))
            nxt.append(key)
        ranks = {k: r for r, k in enumerate(sorted(set(nxt)))}
        fresh = [ranks[k] for k in nxt]
        if fresh == colors:
            break
        colors = fresh
        if len(ranks) == n:
            break
    return colors


def _memoised(A: FiniteAlgebra, compute):
    # the tables never change, so whatever is derived from them is kept
    memo = A._memo
    if compute not in memo:
        memo[compute] = compute(A)
    return memo[compute]


def isomorphism_key(A: FiniteAlgebra) -> tuple:
    """An isomorphism invariant: isomorphic algebras get equal keys, so
    :func:`is_isomorphic` need only compare algebras with the same key."""
    return (A.size, A.neg is None, tuple(sorted(_memoised(A, _colors))))


def _extend_map(A: FiniteAlgebra, B: FiniteAlgebra, gen_map: dict[int, int]) -> dict[int, int] | None:
    # grow gen_map homomorphically over the closure; None on conflict
    mapping = dict(gen_map)
    frontier = list(mapping)
    while frontier:
        new: dict[int, int] = {}

        def put(src: int, dst: int) -> bool:
            if src in mapping:
                return mapping[src] == dst
            if src in new:
                return new[src] == dst
            new[src] = dst
            return True

        known = list(mapping.items())
        for a, u in known:
            if A.neg is not None:
                if not put(A.neg[a], B.neg[u]):  # type: ignore[index]
                    return None
            for b, v in known:
                if not put(A.meet[a][b], B.meet[u][v]):
                    return None
                if not put(A.join[a][b], B.join[u][v]):
                    return None
        if not new:
            break
        mapping.update(new)
        frontier = list(new)
    if len(mapping) != A.size:
        return None  # gens did not generate (shouldn't happen) or map partial
    # bijectivity + full homomorphism check
    f = [mapping[a] for a in range(A.size)]
    if len(set(f)) != A.size or homomorphism_failure(A, B, f) is not None:
        return None
    return mapping


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> dict[str, str] | None:
    """An isomorphism as a name->name dict, or None."""
    if isomorphism_key(a) != isomorphism_key(b):
        return None
    ca, cb = _memoised(a, _colors), _memoised(b, _colors)
    gens = _memoised(a, _generating_set)
    by_color: dict[int, list[int]] = {}
    for x in range(b.size):
        by_color.setdefault(cb[x], []).append(x)

    def backtrack(i: int, gen_map: dict[int, int], used: set[int]) -> dict[int, int] | None:
        if i == len(gens):
            return _extend_map(a, b, gen_map)
        g = gens[i]
        for cand in by_color.get(ca[g], ()):
            if cand in used:
                continue
            gen_map[g] = cand
            used.add(cand)
            res = backtrack(i + 1, gen_map, used)
            if res is not None:
                return res
            used.discard(cand)
            del gen_map[g]
        return None

    found = backtrack(0, {}, set())
    if found is None:
        return None
    return {a.elements[x]: b.elements[y] for x, y in found.items()}


# ---------------------------------------------------------------------------
# duality and class membership

def dual(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Same carrier, meet and join tables swapped."""
    return FiniteAlgebra(
        f"{algebra.name}^op", algebra.elements, algebra.join, algebra.meet, algebra.neg
    )


def _parse_axioms(texts: Sequence[str]) -> tuple[Identity, ...]:
    from .terms import parse_identity

    return tuple(parse_identity(t) for t in texts)


_BISEMILATTICE = (
    "x /\\ x = x",
    "x /\\ y = y /\\ x",
    "(x /\\ y) /\\ z = x /\\ (y /\\ z)",
    "x \\/ x = x",
    "x \\/ y = y \\/ x",
    "(x \\/ y) \\/ z = x \\/ (y \\/ z)",
)
_DISTRIBUTIVITY = (
    "x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)",
    "x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)",
)
_ABSORPTION = (
    "x /\\ (x \\/ y) = x",
    "x \\/ (x /\\ y) = x",
)
_DE_MORGAN = (
    "~~x = x",
    "~(x /\\ y) = ~x \\/ ~y",
    "~(x \\/ y) = ~x /\\ ~y",
)

_CLASS_AXIOMS: dict[str, tuple[tuple[str, ...], bool]] = {
    # name -> (axioms, needs negation)
    "distributive lattice": (_BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY, False),
    "distributive bisemilattice": (_BISEMILATTICE + _DISTRIBUTIVITY, False),
    "De Morgan bisemilattice": (_BISEMILATTICE + _DISTRIBUTIVITY + _DE_MORGAN, True),
    "De Morgan lattice": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN,
        True,
    ),
    "involutive semilattice": (
        _BISEMILATTICE + _DISTRIBUTIVITY + _DE_MORGAN + ("x /\\ y = x \\/ y",),
        True,
    ),
    "Kleene lattice": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN
        + ("(x /\\ ~x) /\\ (y \\/ ~y) = x /\\ ~x",),
        True,
    ),
    "Boolean-algebra-reduct": (
        _BISEMILATTICE + _ABSORPTION + _DISTRIBUTIVITY + _DE_MORGAN
        + ("x /\\ (y \\/ ~y) = x",),
        True,
    ),
}

ALGEBRA_CLASSES = tuple(_CLASS_AXIOMS)

_AXIOM_CACHE: dict[str, tuple[Identity, ...]] = {}


def is_class(algebra: FiniteAlgebra, cls: str) -> bool:
    """Does the algebra lie in one of the named equational classes?

    Classes: distributive lattice, distributive bisemilattice, De Morgan
    bisemilattice, De Morgan lattice, involutive semilattice, Kleene lattice,
    Boolean-algebra-reduct.
    """
    if cls not in _CLASS_AXIOMS:
        raise ValidationError(
            f"unknown class {cls!r}; expected one of {', '.join(_CLASS_AXIOMS)}"
        )
    texts, needs_neg = _CLASS_AXIOMS[cls]
    if needs_neg and algebra.neg is None:
        return False
    if cls not in _AXIOM_CACHE:
        _AXIOM_CACHE[cls] = _parse_axioms(texts)
    return all(satisfies(algebra, e) for e in _AXIOM_CACHE[cls])


# ---------------------------------------------------------------------------
# JSON round trip

def algebra_to_json(algebra: FiniteAlgebra) -> dict:
    return {
        "name": algebra.name,
        "elements": list(algebra.elements),
        "meet": [list(r) for r in algebra.meet],
        "join": [list(r) for r in algebra.join],
        "neg": None if algebra.neg is None else list(algebra.neg),
    }


def algebra_from_json(data: Mapping) -> FiniteAlgebra:
    if not isinstance(data, Mapping):
        raise ValidationError("algebra JSON must be an object")
    try:
        elements = data["elements"]
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise ValidationError("algebra JSON 'elements' must be a list of strings")
        return FiniteAlgebra(
            data["name"], elements, data["meet"], data["join"], data.get("neg")
        )
    except KeyError as exc:
        raise ValidationError(f"algebra JSON missing key {exc}") from None


def save_algebra(algebra: FiniteAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(algebra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
