r"""Finite algebras with two binary operations and an optional involution.

The carrier is always ``range(n)`` with a parallel list of element names;
operation tables are dense ``n x n`` (or length ``n``) integer tables.
Everything downstream (catalog, sums, decompositions, variety checks) works
on these tables.

Element order matters for one thing only: :func:`satisfies` reports the
*least* counterexample in the lexicographic order of assignments, variables
sorted by name, elements by index.  The scan runs over assignments in that
order, in blocks of bounded size, and stops at the least counterexample.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .terms import Identity, Meet, Join, Neg, Term, Var, variables

__all__ = [
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
            for row in tbl:
                for v in row:
                    if not 0 <= v < n:
                        raise ValidationError(
                            f"{label} table entry {v} out of range [0,{n})"
                        )
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
        pos = {old: new for new, old in enumerate(perm)}
        n = self.size
        meet = [[pos[self.meet[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
        join = [[pos[self.join[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
        neg = None if self.neg is None else [pos[self.neg[perm[a]]] for a in range(n)]
        return FiniteAlgebra(
            self.name, [self.elements[p] for p in perm], meet, join, neg
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
    A: FiniteAlgebra, t: Term, grids: Mapping[str, np.ndarray], memo: dict
) -> np.ndarray:
    """Values of `t` with each variable bound to an index array; the arrays
    broadcast against each other, and so does the result."""
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
        val = neg[_evaluate(A, t.child, grids, memo)]
    elif isinstance(t, Meet):
        val = meet[_evaluate(A, t.left, grids, memo), _evaluate(A, t.right, grids, memo)]
    elif isinstance(t, Join):
        val = join[_evaluate(A, t.left, grids, memo), _evaluate(A, t.right, grids, memo)]
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = val
    return val


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
    for prefix in itertools.product(range(n), repeat=fixed):
        for v, c in zip(names, prefix):
            grids[v] = np.array(c, dtype=np.int16)
        memo: dict = {}
        bad = _evaluate(algebra, identity.lhs, grids, memo) != _evaluate(
            algebra, identity.rhs, grids, memo
        )
        if bad.any():
            # every free variable occurs, so bad spans all `free` axes
            coords = prefix + np.unravel_index(int(np.argmax(bad)), bad.shape)
            cex = {v: algebra.elements[int(c)] for v, c in zip(names, coords)}
            return SatisfactionResult(False, cex)
    return SatisfactionResult(True, None)


def satisfies_all(algebra: FiniteAlgebra, identities: Iterable[Identity]) -> SatisfactionResult:
    for e in identities:
        res = satisfies(algebra, e)
        if not res:
            return res
    return SatisfactionResult(True, None)


# ---------------------------------------------------------------------------
# constructions

def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; both factors must have negation, or neither."""
    if (a.neg is None) != (b.neg is None):
        raise ValidationError("cannot form a product of a <2,2,1> and a <2,2> algebra")
    na, nb = a.size, b.size
    names = [f"({p},{q})" for p in a.elements for q in b.elements]

    def pair(i, j):
        return i * nb + j

    meet = [[0] * (na * nb) for _ in range(na * nb)]
    join = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(nb):
            for k in range(na):
                for l in range(nb):
                    meet[pair(i, j)][pair(k, l)] = pair(a.meet[i][k], b.meet[j][l])
                    join[pair(i, j)][pair(k, l)] = pair(a.join[i][k], b.join[j][l])
    neg = None
    if a.neg is not None:
        neg = [pair(a.neg[i], b.neg[j]) for i in range(na) for j in range(nb)]
    return FiniteAlgebra(f"{a.name}x{b.name}", names, meet, join, neg)


def power(a: FiniteAlgebra, k: int) -> FiniteAlgebra:
    """Direct power with flat tuple names "(a,b,...)"."""
    if k < 1:
        raise ValidationError("power needs k >= 1")
    out = a
    for _ in range(k - 1):
        out = product(out, a)
    if k > 1:
        # flatten "((a,b),c)"-style names
        flat = [
            "(" + nm.replace("(", "").replace(")", "") + ")" for nm in out.elements
        ]
        out = FiniteAlgebra(f"{a.name}^{k}", flat, out.meet, out.join, out.neg)
    return out


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
    pos = {p: i for i, p in enumerate(inclusion)}
    meet = [[pos[algebra.meet[p][q]] for q in inclusion] for p in inclusion]
    join = [[pos[algebra.join[p][q]] for q in inclusion] for p in inclusion]
    neg = None
    if algebra.neg is not None:
        neg = [pos[algebra.neg[p]] for p in inclusion]
    names = [algebra.elements[p] for p in inclusion]
    sub = FiniteAlgebra(f"<{algebra.name}:{len(inclusion)}>", names, meet, join, neg)
    return sub, inclusion


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


# ---------------------------------------------------------------------------
# congruences

CONGRUENCE_SIZE_LIMIT = 32


@dataclass(frozen=True)
class Congruence:
    """A congruence, stored as a canonical partition.

    ``block_of[x]`` is the block id of element x; ids are numbered by first
    occurrence, so equal partitions are equal tuples.  ``blocks`` groups the
    element indices.
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
        seen: dict[int, int] = {}
        for mine, theirs in zip(self.block_of, other.block_of):
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True


def _canon(block_of: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(b, len(relabel)) for b in block_of])


def _ops_of(A: FiniteAlgebra) -> list[tuple[int, Sequence]]:
    ops: list[tuple[int, Sequence]] = [(2, A.meet), (2, A.join)]
    if A.neg is not None:
        ops.append((1, A.neg))
    return ops


# the pairs a congruence must also identify once it identifies two elements
_Spread = Callable[[int, int], list[tuple[int, int]]]


def _union_find(
    size: int, pairs: list[tuple[int, int]], spread: _Spread | None = None
) -> list[int]:
    """Merge every pair of `pairs` over ``range(size)``; each merge of u and v
    also queues the pairs ``spread(u, v)``.  Returns the root of each element."""
    parent = list(range(size))
    # finds are inlined, with path halving: this loop is the hot spot of
    # congruence enumeration
    while pairs:
        u, v = pairs.pop()
        ru = u
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        rv = v
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            continue
        parent[ru] = rv
        if spread is not None:
            pairs.extend(spread(u, v))
    roots = []
    for x in range(size):
        while parent[x] != x:
            x = parent[x]
        roots.append(x)
    return roots


def _spreader(ops: Sequence[tuple[int, Sequence]]) -> _Spread:
    # rows u and v of every binary table, and its columns unless it is
    # symmetric, then the unary images; pairs of equal values are dropped
    rows, unary = [], []
    for arity, table in ops:
        if arity == 1:
            unary.append(table)
            continue
        table = tuple(tuple(r) for r in table)
        rows.append(table)
        cols = tuple(zip(*table))
        if cols != table:
            rows.append(cols)

    def spread(u: int, v: int) -> list[tuple[int, int]]:
        out = [(x, y) for t in rows for x, y in zip(t[u], t[v]) if x != y]
        out.extend((t[u], t[v]) for t in unary if t[u] != t[v])
        return out

    return spread


def _principal(n: int, spread: _Spread, a: int, b: int) -> Congruence:
    return Congruence(_canon(_union_find(n, [(a, b)], spread)))


def _block_pairs(part: Congruence) -> list[tuple[int, int]]:
    # (x, first element of x's block) for every x not first in its block
    first: dict[int, int] = {}
    out = []
    for x, b in enumerate(part.block_of):
        if b in first:
            out.append((x, first[b]))
        else:
            first[b] = x
    return out


def _join_pairs(p: Congruence, pairs: Sequence[tuple[int, int]]) -> Congruence | None:
    # join of p with the equivalence generated by `pairs`, as a union-find
    # over p's block labels; None when p already identifies every pair
    bo = p.block_of
    merges = [(bo[x], bo[y]) for x, y in pairs if bo[x] != bo[y]]
    if not merges:
        return None
    root = _union_find(max(bo) + 1, merges)
    return Congruence(_canon([root[b] for b in bo]))


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Transitive closure of the union; for congruences this is their join."""
    j = _join_pairs(p, _block_pairs(q))
    return p if j is None else j


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    pairs = {}
    out = []
    for a, b in zip(p.block_of, q.block_of):
        key = (a, b)
        if key not in pairs:
            pairs[key] = len(pairs)
        out.append(pairs[key])
    return Congruence(tuple(out))


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
    """All congruences: principal ones closed under join."""
    if n > CONGRUENCE_SIZE_LIMIT:
        raise ValidationError(
            f"congruence enumeration limited to {CONGRUENCE_SIZE_LIMIT} elements, got {n}"
        )
    spread = _spreader(ops)
    delta = Congruence(tuple(range(n)))
    principals = {
        _principal(n, spread, a, b) for a in range(n) for b in range(a + 1, n)
    }
    # closing under joins with the join-irreducible principals alone reaches
    # every congruence: q is join-reducible when the principals strictly
    # below it join to q
    pairs_of = {q: _block_pairs(q) for q in principals}
    principal_pairs = []
    for q in principals:
        below = delta
        for r, pairs in pairs_of.items():
            if r.num_blocks > q.num_blocks and _join_pairs(q, pairs) is None:
                j = _join_pairs(below, pairs)
                below = below if j is None else j
        if below != q:
            principal_pairs.append(pairs_of[q])
    found = {delta} | principals
    frontier = set(found)
    while frontier:
        new = set()
        for p in frontier:
            for pairs in principal_pairs:
                j = _join_pairs(p, pairs)
                if j is not None and j not in found:
                    new.add(j)
        found |= new
        frontier = new
    return sorted(found, key=lambda c: (c.num_blocks, c.block_of), reverse=True)


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
    # leq[i, j]: cons[i] refines cons[j], i.e. each element's cons[j]-block
    # holds the first element of its cons[i]-block
    leq = np.empty((m, m), dtype=bool)
    for i, row in enumerate(B):
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        leq[i] = (B[:, first[inverse]] == B).all(axis=1)
    strict = leq & ~np.eye(m, dtype=bool)
    s = strict.astype(np.float32)
    covers = strict & ~(s @ s > 0)
    n_covers = covers.sum(axis=1)
    return [bool(k == 1 or c.is_total()) for k, c in zip(n_covers, cons)]


def congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Every congruence of the algebra, identity first, total last."""
    out = congruences_ops(algebra.size, _ops_of(algebra))
    out.sort(key=lambda c: (-c.num_blocks, c.block_of))
    return out


def principal_congruence(algebra: FiniteAlgebra, a: str | int, b: str | int) -> Congruence:
    """Cg(a,b): the least congruence identifying a and b."""
    return _principal(
        algebra.size, _spreader(_ops_of(algebra)), algebra.index(a), algebra.index(b)
    )


def monolith(algebra: FiniteAlgebra) -> Congruence | None:
    """Least nontrivial congruence, or None if the principals don't intersect
    above the identity (i.e. the algebra is not subdirectly irreducible)."""
    n = algebra.size
    if n == 1:
        return None
    spread = _spreader(_ops_of(algebra))
    mono: Congruence | None = None
    for a in range(n):
        for b in range(a + 1, n):
            cg = _principal(n, spread, a, b)
            mono = cg if mono is None else meet_partitions(mono, cg)
            if mono.is_identity():
                return None
    return mono


def is_subdirectly_irreducible(algebra: FiniteAlgebra) -> bool:
    """True when the algebra has a least nontrivial congruence.

    One-element algebras count as subdirectly irreducible (the usual
    convention: they have no pair of distinct congruences to separate).
    """
    if algebra.size == 1:
        return True
    return monolith(algebra) is not None


def quotient(algebra: FiniteAlgebra, part: Congruence) -> FiniteAlgebra:
    if not is_congruence(algebra, part):
        raise ValidationError("partition is not a congruence of the algebra")
    blocks = part.blocks
    reps = [b[0] for b in blocks]
    names = []
    for b in blocks:
        if len(b) == 1:
            names.append(algebra.elements[b[0]])
        else:
            names.append("{" + ",".join(algebra.elements[x] for x in b) + "}")
    bo = part.block_of
    meet = [[bo[algebra.meet[r][s]] for s in reps] for r in reps]
    join = [[bo[algebra.join[r][s]] for s in reps] for r in reps]
    neg = None if algebra.neg is None else [bo[algebra.neg[r]] for r in reps]
    return FiniteAlgebra(f"{algebra.name}/~", names, meet, join, neg)


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
    return bool(satisfies_all(algebra, _AXIOM_CACHE[cls]))


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
