r"""Band structure inside a De Morgan bisemilattice and its decomposition.

The derived operation x.y := x /\ (x \/ y) turns a De Morgan bisemilattice
into a left-normal band whose natural Green's relation partitions the carrier
into the fibres of a direct-system presentation; the quotient by that relation
is the involutive semilattice of indices.  `decompose` recovers the whole
system (fibres, transitions, dualisers) and `dpl_sum` inverts it up to
isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finalg import (
    Congruence,
    FiniteAlgebra,
    ValidationError,
    is_class,
    is_congruence,
    satisfies,
)
from .sums import InvSemilatticeSystem, validate
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

# a band's own operation, read as the meet of its reduct
_SEMIGROUP_LAWS = (
    ("not idempotent at", Identity(Meet(_x, _x), _x)),
    ("not associative at", Identity(Meet(Meet(_x, _y), _z), Meet(_x, Meet(_y, _z)))),
)

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

@dataclass(frozen=True, slots=True)
class Band:
    """An idempotent semigroup given by its multiplication table, plus an
    optional involution carried over from the source algebra."""

    size: int
    dot: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...] | None = None

    def __post_init__(self):
        # shapes, ranges and the bijection are checked by FiniteAlgebra
        problems = _law_failures(_reduct(self), _SEMIGROUP_LAWS)
        if problems:
            raise ValidationError(problems[0])


def _reduct(band: Band) -> FiniteAlgebra:
    # the band as an algebra whose meet and join are both the band operation
    names = tuple(map(str, range(band.size)))
    return FiniteAlgebra("band", names, band.dot, band.dot, band.neg)


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
    bisemilattice (negation carried along when present)."""
    if not is_class(algebra, "De Morgan bisemilattice"):
        raise ValidationError(f"{algebra.name} is not a De Morgan bisemilattice")
    n = algebra.size
    meet, join = algebra.meet, algebra.join
    dot = tuple(
        tuple(meet[x][join[x][y]] for y in range(n)) for x in range(n)
    )
    return Band(n, dot, algebra.neg)


def greens(band: Band) -> GreenData:
    """Compute and sanity-check Green's preorders and the D-classes."""
    n, d = band.size, band.dot
    leqL = tuple(tuple(d[a][b] == a for b in range(n)) for a in range(n))
    leqR = tuple(tuple(d[b][a] == a for b in range(n)) for a in range(n))
    leqD = tuple(
        tuple(d[d[a][b]][a] == a for b in range(n)) for a in range(n)
    )
    leqH = tuple(
        tuple(leqL[a][b] and leqR[a][b] for b in range(n)) for a in range(n)
    )

    for name, rel in (("L", leqL), ("R", leqR), ("D", leqD)):
        r = np.array(rel, dtype=bool)
        if not r.diagonal().all():
            raise ValidationError(f"leq{name} not reflexive at {np.argmin(r.diagonal())}")
        # fail[a, c]: a <= b <= c for some b, but not a <= c; the witness is
        # the least such (a, b, c)
        fail = (r @ r) & ~r
        if fail.any():
            a = np.argmax(fail.any(axis=1))
            b = np.argmax(r[a] & (r & fail[a]).any(axis=1))
            c = np.argmax(r[b] & fail[a])
            raise ValidationError(f"leq{name} not transitive at ({a},{b},{c})")
    h = np.array(leqH, dtype=bool)
    if (h & h.T & ~np.eye(n, dtype=bool)).any():
        raise ValidationError("leqH not antisymmetric")

    block_of = [-1] * n
    classes: list[list[int]] = []
    for a in range(n):
        if block_of[a] != -1:
            continue
        cls = [x for x in range(n) if leqD[a][x] and leqD[x][a]]
        for x in cls:
            block_of[x] = len(classes)
        classes.append(cls)

    # D is a congruence of the band and of its involution when present
    if not is_congruence(_reduct(band), Congruence(tuple(block_of))):
        raise ValidationError("D-classes not a congruence of the band")

    return GreenData(leqL, leqR, leqD, leqH, tuple(tuple(c) for c in classes))


def check_ailnb(algebra: FiniteAlgebra) -> list[str]:
    r"""Violations (with witnesses) of the a-involutive left-normal-band
    conditions for the derived x.y := x /\ (x \/ y), including the
    compatibility of . with the algebra's own operations.  Empty = ok.

    Each law reports its least counterexample.  The band laws come first and
    end the check when one fails; without a negation, the negation laws are
    replaced by the message "algebra has no negation"."""
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
    isomorphism."""
    problems = check_ailnb(algebra)
    if problems:
        raise ValidationError(
            f"{algebra.name} is not decomposable:\n  - " + "\n  - ".join(problems)
        )
    band = band_of(algebra)
    green = greens(band)
    classes = green.d_classes
    n = algebra.size
    block_of = [0] * n
    for b, cls in enumerate(classes):
        for x in cls:
            block_of[x] = b
    names = algebra.elements
    key_of = [names[cls[0]] for cls in classes]
    nblocks = len(classes)

    # index involutive semilattice: quotient of the band by D
    idx_op = tuple(
        tuple(block_of[band.dot[classes[i][0]][classes[j][0]]] for j in range(nblocks))
        for i in range(nblocks)
    )
    idx_neg = tuple(block_of[band.neg[cls[0]]] for cls in classes)
    index = FiniteAlgebra(
        f"{algebra.name}/D", tuple(key_of), idx_op, idx_op, idx_neg
    )

    # fibres: the sliced <meet, join> tables, negation-free
    fibres: dict[str, FiniteAlgebra] = {}
    pos_in_class = {}
    for b, cls in enumerate(classes):
        for p, x in enumerate(cls):
            pos_in_class[x] = p
        for x in cls:
            for y in cls:
                if block_of[algebra.meet[x][y]] != b or block_of[algebra.join[x][y]] != b:
                    raise ValidationError(
                        f"D-class of {key_of[b]} not closed under the lattice inside"
                    )
        fmeet = tuple(
            tuple(pos_in_class[algebra.meet[x][y]] for y in cls) for x in cls
        )
        fjoin = tuple(
            tuple(pos_in_class[algebra.join[x][y]] for y in cls) for x in cls
        )
        fibres[key_of[b]] = FiniteAlgebra(
            f"{algebra.name}[{key_of[b]}]",
            tuple(names[x] for x in cls),
            fmeet,
            fjoin,
        )

    # transitions p_ij(a) = a.b for any b in class j; the choice of b must
    # not matter -- checked, not assumed
    transitions: dict[tuple[str, str], tuple[int, ...]] = {}
    for i in range(nblocks):
        for j in range(nblocks):
            if idx_op[i][j] != j:
                continue
            table = []
            for x in classes[i]:
                images = {band.dot[x][b] for b in classes[j]}
                if len(images) != 1:
                    raise ValidationError(
                        f"transition {key_of[i]} -> {key_of[j]} not well-defined "
                        f"at {names[x]}"
                    )
                img = images.pop()
                if block_of[img] != j:
                    raise ValidationError(
                        f"transition {key_of[i]} -> {key_of[j]} leaves the target class"
                    )
                table.append(pos_in_class[img])
            transitions[(key_of[i], key_of[j])] = tuple(table)

    # dualisers: the algebra's own negation, restricted per class
    dualisers: dict[str, tuple[int, ...]] = {}
    for i in range(nblocks):
        table = []
        for x in classes[i]:
            img = band.neg[x]
            if block_of[img] != idx_neg[i]:
                raise ValidationError(
                    f"negation of {names[x]} leaves class ~{key_of[i]}"
                )
            table.append(pos_in_class[img])
        dualisers[key_of[i]] = tuple(table)

    system = InvSemilatticeSystem(index, fibres, transitions, dualisers)
    problems = validate(system)
    if problems:
        raise ValidationError(
            f"decomposition of {algebra.name} is not a valid system:\n  - "
            + "\n  - ".join(problems)
        )
    return system


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
