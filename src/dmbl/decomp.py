r"""Band structure inside a De Morgan bisemilattice and its decomposition.

The derived operation x.y := x /\ (x \/ y) turns a De Morgan bisemilattice
into a left-normal band whose natural Green's relation partitions the carrier
into the fibres of a direct-system presentation; the quotient by that relation
is the involutive semilattice of indices.  `decompose` recovers the whole
system (fibres, transitions, dualisers) and `dpl_sum` inverts it up to
isomorphism; the system is valid by the representation theorem, so only
`dpl_sum` and `dmbl sum` validate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .finalg import (
    FiniteAlgebra,
    ValidationError,
    _compatible,
    _dot_table,
    _induced,
    _memoised,
    _partition,
    _row_keys,
    is_class,
    satisfies,
)
from .sums import InvSemilatticeSystem
from .terms import Identity, Join, Meet, Neg, Term, Var, parse

__all__ = [
    "Band",
    "GreenData",
    "band_of",
    "check_ailnb",
    "decompose",
    "greens",
    "index_subvariety",
]


# ---------------------------------------------------------------------------
# the laws, as (label, identity) pairs checked with `satisfies`; a failure is
# reported as the label and the least counterexample, variables sorted by name

def _dot(s: Term, t: Term) -> Term:
    return Meet(s, Join(s, t))


_x, _y, _z, _a, _b1, _b2 = (Var(v) for v in ("x", "y", "z", "a", "b1", "b2"))

# the derived x.y := x /\ (x \/ y) of an algebra
_BAND_LAWS = (
    ("dot not idempotent at", Identity(_dot(_x, _x), _x)),
    ("dot not associative at", Identity(_dot(_dot(_x, _y), _z), _dot(_x, _dot(_y, _z)))),
)
_LEFT_NORMAL_LAWS = (
    (
        "not left-normal: x.y.z != x.z.y at",
        Identity(_dot(_dot(_x, _y), _z), _dot(_dot(_x, _z), _y)),
    ),
)


def _compatibility(g_name: str, g) -> tuple:
    # the band is compatible with the algebra's own operation g when
    # a.(b1 g b2) = a.b1.b2 and (b1 g b2).a = (b1.a) g (b2.a)
    return (
        (
            f"compatibility a.g(b1,b2) fails for {g_name} at",
            Identity(_dot(_a, g(_b1, _b2)), _dot(_dot(_a, _b1), _b2)),
        ),
        (
            f"compatibility g(b1,b2).a fails for {g_name} at",
            Identity(_dot(g(_b1, _b2), _a), g(_dot(_b1, _a), _dot(_b2, _a))),
        ),
    )


_NEG_LAWS = (
    ("negation not involutive at", Identity(Neg(Neg(_x)), _x)),
    ("not a-involutive: ~(x.y) != ~x.~y at", Identity(Neg(_dot(_x, _y)), _dot(Neg(_x), Neg(_y)))),
    *_compatibility("/\\", Meet),
    *_compatibility("\\/", Join),
)

_xnx = _dot(_x, Neg(_x))
# (variety, its defining law read on the band reduct, the same law read on the
# index); the first that holds places the index, ISL when none does
_INDEX_LAWS = (
    ("RISL", Identity(_xnx, _x), parse("x = ~x")),
    ("BISL", Identity(_xnx, _dot(_xnx, _y)), parse("x \\/ ~x = (x \\/ ~x) \\/ y")),
    (
        "RBISL",
        Identity(_dot(_xnx, _y), _dot(_xnx, Neg(_y))),
        parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"),
    ),
)


def _law_failures(algebra: FiniteAlgebra, laws) -> list[str]:
    out = []
    for label, law in laws:
        res = satisfies(algebra, law)
        if not res:
            names = [v for _, v in sorted(res.counterexample.items())]
            where = names[0] if len(names) == 1 else f"({','.join(names)})"
            out.append(f"{label} {where}")
    return out


# ---------------------------------------------------------------------------
# bands and Green's relations

class Band:
    """An idempotent semigroup given by its multiplication table, plus an
    optional involution carried over from the source algebra: the table of
    x.y = x /\\ (x \\/ y) (`table`) and its negation (`involution`), both
    read-only int16 arrays read as tuples by `dot` and `neg`.  The algebra
    is a De Morgan bisemilattice for :func:`band_of`, where the band laws
    are theorems, and for ``Band(size, dot, neg)``, which checks them, the
    one with meet `dot` and x \\/ y = y, whose x.y is `dot`."""

    def __init__(self, size: int, dot, neg=None):
        # shapes, ranges and the bijection are checked by FiniteAlgebra
        right = np.broadcast_to(np.arange(size), (size, size))
        algebra = FiniteAlgebra("band", [str(x) for x in range(size)], dot, right, neg)
        problems = _law_failures(algebra, _BAND_LAWS)
        if problems:
            raise ValidationError(problems[0])
        self._read(algebra)

    def _read(self, algebra: FiniteAlgebra) -> None:
        self.size, self.table = algebra.size, _memoised(algebra, _dot_table)
        self.involution = algebra.arrays()[2]

    @cached_property
    def dot(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def neg(self) -> tuple[int, ...] | None:
        return None if self.involution is None else tuple(self.involution.tolist())


@dataclass(frozen=True, slots=True)
class GreenData:
    """Green's preorders of a band and the D-class partition.

    leqL: a ab=a; leqR: ba=a; leqD: aba=a; leqH = leqL intersect leqR.
    """

    leqL: tuple[tuple[bool, ...], ...]
    leqR: tuple[tuple[bool, ...], ...]
    leqD: tuple[tuple[bool, ...], ...]
    leqH: tuple[tuple[bool, ...], ...]
    d_classes: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        as_int = lambda rel: [[int(v) for v in row] for row in rel]
        return {
            "leqL": as_int(self.leqL),
            "leqR": as_int(self.leqR),
            "leqD": as_int(self.leqD),
            "leqH": as_int(self.leqH),
            "dClasses": [list(c) for c in self.d_classes],
        }


def band_of(algebra: FiniteAlgebra) -> Band:
    r"""The band term reduct x.y := x /\ (x \/ y) of a De Morgan
    bisemilattice (negation carried along when present).

    Its table is the algebra's table of x.y, computed once per algebra and
    shared with the DOT steps of `satisfies`; the only check is the verdict
    `is_class` keeps in the algebra's memo, as the band laws are theorems."""
    if not is_class(algebra, "De Morgan bisemilattice"):
        raise ValidationError(f"{algebra.name} is not a De Morgan bisemilattice")
    band = Band.__new__(Band)
    band._read(algebra)
    return band


def greens(band: Band) -> GreenData:
    """Green's preorders and the D-classes, as boolean arrays read off the
    band's table.  The band laws make leqL, leqR and leqD preorders, leqH a
    partial order and D a congruence of the band (Howie, *Fundamentals of
    Semigroup Theory*, §4.4; Clifford-McLean), so the one check is that the
    involution, any bijection for ``Band(size, dot, neg)``, preserves D."""
    d = band.table
    a = np.arange(band.size)[:, None]
    leqL, leqR, leqD = d == a, d.T == a, d[d, a] == a
    # a D-class is a set of elements with the same row of D = leqD ∩ leqD^T
    D = _partition(_row_keys(leqD & leqD.T))
    if not _compatible((band.involution,), D.block_of):
        raise ValidationError("D-classes not a congruence of the band")

    rows = lambda r: tuple(map(tuple, r.tolist()))
    return GreenData(rows(leqL), rows(leqR), rows(leqD), rows(leqL & leqR), D.blocks)


def check_ailnb(algebra: FiniteAlgebra) -> list[str]:
    r"""Violations (with witnesses) of the a-involutive left-normal-band
    conditions for the derived x.y := x /\ (x \/ y), including the
    compatibility of . with the algebra's own operations.  Empty = ok.

    Each law reports its least counterexample.  The band laws come first and
    end the check when one fails; without a negation, the negation laws are
    replaced by the message "algebra has no negation".  The laws are regular
    identities (both sides have the same variables) of De Morgan lattices,
    where x.y = x, so theorems of their regularisation, the De Morgan
    bisemilattices (Plonka, Fund. Math. 61, 1967): this check only explains
    why `decompose` refuses an algebra."""
    out = _law_failures(algebra, _BAND_LAWS)
    if out:
        return out  # no point checking band identities on a non-band
    out += _law_failures(algebra, _LEFT_NORMAL_LAWS)
    if algebra.neg is None:
        return out + ["algebra has no negation"]
    return out + _law_failures(algebra, _NEG_LAWS)


def decompose(algebra: FiniteAlgebra) -> InvSemilatticeSystem:
    """Present a De Morgan bisemilattice as a direct system over its
    involutive semilattice of D-classes; `dpl_sum` inverts this up to
    isomorphism.  The transitions and dualisers are read off the table of
    x.y and the negation by whole-array passes, each failure raised in the
    order of a loop over (i, j, a).  The class verdict is the only law
    check; `check_ailnb` explains a refusal when it finds a failure.  The
    system is valid by theorem: `dpl_sum` and `dmbl sum` re-check it."""
    if not is_class(algebra, "De Morgan bisemilattice"):
        problems = check_ailnb(algebra)
        if problems:
            raise ValidationError(
                f"{algebra.name} is not decomposable:\n  - " + "\n  - ".join(problems)
            )
    band = band_of(algebra)  # refuses the rest by the class alone
    classes = greens(band).d_classes
    names, nblocks = algebra.elements, len(classes)
    key_of = [names[cls[0]] for cls in classes]
    # `order` lists the elements class by class; bo and pos give each
    # element's class and its place in it
    order, size = np.concatenate(classes), [len(cls) for cls in classes]
    starts = np.cumsum(size) - size
    bo, pos = np.empty(algebra.size, np.intp), np.empty(algebra.size, np.intp)
    bo[order] = np.repeat(np.arange(nblocks), size)
    pos[order] = np.arange(len(order)) - np.repeat(starts, size)

    # index involutive semilattice: quotient of the band by D
    meet, join, neg = algebra.arrays()
    dot = _memoised(algebra, _dot_table)
    index = _induced(f"{algebra.name}/D", key_of, (dot, dot, neg), order[starts], bo)

    # fibres: the sliced <meet, join> tables, negation-free
    fibres: dict[str, FiniteAlgebra] = {}
    for b, cls in enumerate(classes):
        square = np.ix_(cls, cls)
        if (bo[meet[square]] != b).any() or (bo[join[square]] != b).any():
            raise ValidationError(
                f"D-class of {key_of[b]} not closed under the lattice inside"
            )
        fibres[key_of[b]] = _induced(
            f"{algebra.name}[{key_of[b]}]", [names[x] for x in cls], (meet, join, None), cls, pos,
        )

    # transitions p_ij(a) = a.b for any b in class j, checked not to depend
    # on b: lo[x, j] and hi[x, j] are the least and greatest x.b over class
    # j, and rows taken in `order` meet failures in the order (i, j, a)
    lo, hi = (f.reduceat(dot[:, order], starts, axis=1) for f in (np.minimum, np.maximum))
    le = index.arrays()[0] == np.arange(nblocks)
    fail = le[bo[order]] & ((lo != hi) | (bo[lo] != np.arange(nblocks)))[order]
    if fail.any():
        r, j = min(zip(*np.nonzero(fail)), key=lambda rj: (bo[order[rj[0]]], rj[1], rj[0]))
        x, i = order[r], bo[order[r]]
        ill = lo[x, j] != hi[x, j]
        why = f"not well-defined at {names[x]}" if ill else "leaves the target class"
        raise ValidationError(f"transition {key_of[i]} -> {key_of[j]} {why}")
    image = pos[lo].tolist()
    transitions = {
        (key_of[i], key_of[j]): tuple(image[x][j] for x in classes[i])
        for i, j in zip(*np.nonzero(le))
    }

    # dualisers: the algebra's own negation, restricted per class
    bad = (bo[neg] != index.arrays()[2][bo])[order]
    if bad.any():
        x = order[np.argmax(bad)]
        raise ValidationError(f"negation of {names[x]} leaves class ~{key_of[bo[x]]}")
    dualisers = {key_of[i]: tuple(pos[neg[list(cls)]].tolist()) for i, cls in enumerate(classes)}

    return InvSemilatticeSystem(index, fibres, transitions, dualisers)


def index_subvariety(algebra: FiniteAlgebra) -> str:
    """Where the involutive semilattice of indices sits: T, RISL, BISL,
    RBISL, or ISL -- decided on the band reduct and cross-checked on the
    quotient against the matching relative axioms."""
    index = decompose(algebra).index
    if index.size == 1:
        return "T"
    by_band = next((v for v, law, _ in _INDEX_LAWS if satisfies(algebra, law)), "ISL")
    by_axioms = next((v for v, _, law in _INDEX_LAWS if satisfies(index, law)), "ISL")
    if by_band != by_axioms:
        raise ValidationError(
            f"band test says {by_band} but the quotient's axioms say "
            f"{by_axioms} for {algebra.name}"
        )
    return by_band
