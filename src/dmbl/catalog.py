r"""The catalog: eleven subdirectly irreducible De Morgan bisemilattices.

======  =======  ==========================================================
index   name     description
======  =======  ==========================================================
1       IS1      one element
2       B2       two-element Boolean-algebra reduct
3       K3       three-element Kleene chain f < T < t, ~T = T
4       DM4      four-element De Morgan lattice, fixpoints B and T
5       IS2      two-element involutive semilattice chain i < j, ~ = id
6       B2+      B2 with an absorbing negation fixpoint adjoined
7       K3+      likewise for K3
8       DM4+     likewise for DM4
9       IS3      involutive semilattice: ~ swaps i and ni, i \/ ni = j
10      A5       five elements; B2-like fibre pair glued under a top point
11      IS4      involutive semilattice diamond i < j, nj < k
======  =======  ==========================================================

`build_basics` also provides the negation-free lattices D1 and D2.  The
nine-element algebra U (a sum over IS4 with a four-element bottom fibre)
is available via :func:`build_U`; it is not subdirectly irreducible and is
therefore not an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .finalg import (
    FiniteAlgebra,
    ValidationError,
    dual,
    is_class,
    product,
)
from .sums import InvSemilatticeSystem, dpl_sum
from . import finalg

__all__ = [
    "CatalogEntry",
    "CATALOG_NAMES",
    "build_A5",
    "build_U",
    "build_U_system",
    "build_basics",
    "catalog_entries",
    "dagger",
    "entry",
    "get_algebra",
    "known_algebra_names",
]

CATALOG_NAMES = (
    "IS1", "B2", "K3", "DM4", "IS2", "B2+", "K3+", "DM4+", "IS3", "A5", "IS4",
)


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    name: str
    algebra: FiniteAlgebra
    classes: tuple[str, ...]  # the equational classes the algebra belongs to


def _chain(n: int, names: list[str], neg: list[int] | None) -> FiniteAlgebra:
    ar = np.arange(n)
    return FiniteAlgebra("chain", names, np.minimum.outer(ar, ar), np.maximum.outer(ar, ar), neg)


@lru_cache(maxsize=1)
def _basics() -> dict[str, FiniteAlgebra]:
    out: dict[str, FiniteAlgebra] = {}
    out["D1"] = _chain(1, ["0"], None).rename("D1")
    out["D2"] = _chain(2, ["0", "1"], None).rename("D2")
    out["B2"] = _chain(2, ["f", "t"], [1, 0]).rename("B2")
    out["K3"] = _chain(3, ["f", "T", "t"], [2, 1, 0]).rename("K3")

    # DM4: f < B,T < t with B,T incomparable and both negation-fixed
    out["DM4"] = FiniteAlgebra(
        "DM4",
        ["f", "B", "T", "t"],
        [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
        [3, 1, 2, 0],
    )

    def isl(name, names, op, neg):
        return FiniteAlgebra(name, names, op, op, neg)

    out["IS1"] = isl("IS1", ["i"], [[0]], [0])
    out["IS2"] = isl("IS2", ["i", "j"], [[0, 1], [1, 1]], [0, 1])
    out["IS3"] = isl(
        "IS3", ["i", "ni", "j"],
        [[0, 2, 2], [2, 1, 2], [2, 2, 2]],
        [1, 0, 2],
    )
    out["IS4"] = isl(
        "IS4", ["i", "j", "nj", "k"],
        [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
        [0, 2, 1, 3],
    )
    return out


def build_basics() -> dict[str, FiniteAlgebra]:
    """Fresh handles on D1, D2, B2, K3, DM4 and IS1..IS4."""
    return dict(_basics())


def dagger(algebra: FiniteAlgebra, name: str | None = None) -> FiniteAlgebra:
    """Adjoin an absorbing negation fixpoint to a De Morgan lattice.

    Built as the sum over IS2 of the algebra's lattice reduct (below) and a
    single point (above); the algebra's own negation acts as the dualiser at
    the bottom, so its image is a subalgebra of the result.
    """
    if not is_class(algebra, "De Morgan lattice"):
        raise ValidationError(f"dagger needs a De Morgan lattice, got {algebra.name}")
    basics = _basics()
    reduct = FiniteAlgebra(algebra.name, algebra.elements, *algebra.arrays()[:2])
    system = InvSemilatticeSystem(
        index=basics["IS2"],
        fibres={"i": reduct, "j": basics["D1"]},
        transitions={
            ("i", "i"): tuple(range(algebra.size)),
            ("j", "j"): (0,),
            ("i", "j"): (0,) * algebra.size,
        },
        dualisers={"i": algebra.neg, "j": (0,)},
    )
    return dpl_sum(system, name=name or f"{algebra.name}+")


def build_A5() -> FiniteAlgebra:
    r"""The five-element algebra: a D2 fibre and its dual twin joined below a
    point; every contradiction and every excluded middle lands on the point.

    Elements are renamed a, b, na, nb, u with a /\ b = b and a \/ b = a.
    """
    basics = _basics()
    d2 = basics["D2"]
    system = InvSemilatticeSystem(
        index=basics["IS3"],
        fibres={"i": d2, "ni": dual(d2), "j": basics["D1"]},
        transitions={
            ("i", "i"): (0, 1),
            ("ni", "ni"): (0, 1),
            ("j", "j"): (0,),
            ("i", "j"): (0, 0),
            ("ni", "j"): (0, 0),
        },
        dualisers={"i": (0, 1), "ni": (0, 1), "j": (0,)},
    )
    summed = dpl_sum(system, name="A5")
    renamed = summed.rename_elements(
        {"(i,1)": "a", "(i,0)": "b", "(ni,1)": "na", "(ni,0)": "nb", "(j,0)": "u"}
    )
    return renamed.permute(["a", "b", "na", "nb", "u"])


def build_U_system() -> InvSemilatticeSystem:
    """The direct system whose sum is U: a D2xD2 bottom fibre over IS4's
    least element, a D2 fibre and its dual twin in the middle, a point on top.

    The bottom dualiser is the antitone twist (x,y) -> (1-y,1-x), which makes
    the bottom fibre together with the sum's negation a copy of DM4; the
    transition to the j-fibre is the first projection and its mirror is then
    forced by equivariance.
    """
    basics = _basics()
    d2 = basics["D2"]
    d2xd2 = product(d2, d2)  # elements (0,0),(0,1),(1,0),(1,1)
    twist = (3, 1, 2, 0)
    return InvSemilatticeSystem(
        index=basics["IS4"],
        fibres={"i": d2xd2, "j": d2, "nj": dual(d2), "k": basics["D1"]},
        transitions={
            ("i", "i"): (0, 1, 2, 3),
            ("j", "j"): (0, 1),
            ("nj", "nj"): (0, 1),
            ("k", "k"): (0,),
            ("i", "j"): (0, 0, 1, 1),   # first projection
            ("i", "nj"): (1, 0, 1, 0),  # x,y -> 1-y (forced by equivariance)
            ("i", "k"): (0, 0, 0, 0),
            ("j", "k"): (0, 0),
            ("nj", "k"): (0, 0),
        },
        dualisers={"i": twist, "j": (0, 1), "nj": (0, 1), "k": (0,)},
    )


def build_U() -> FiniteAlgebra:
    return dpl_sum(build_U_system(), name="U")


@lru_cache(maxsize=1)
def catalog_entries() -> tuple[CatalogEntry, ...]:
    """The eleven entries, in index order, with their class memberships."""
    basics = _basics()
    algebras = {
        "IS1": basics["IS1"],
        "B2": basics["B2"],
        "K3": basics["K3"],
        "DM4": basics["DM4"],
        "IS2": basics["IS2"],
        "B2+": dagger(basics["B2"], name="B2+"),
        "K3+": dagger(basics["K3"], name="K3+"),
        "DM4+": dagger(basics["DM4"], name="DM4+"),
        "IS3": basics["IS3"],
        "A5": build_A5(),
        "IS4": basics["IS4"],
    }
    entries = []
    for k, name in enumerate(CATALOG_NAMES, start=1):
        alg = algebras[name]
        classes = tuple(c for c in finalg.ALGEBRA_CLASSES if is_class(alg, c))
        entries.append(CatalogEntry(k, name, alg, classes))
    return tuple(entries)


def entry(key: int | str) -> CatalogEntry:
    """Look up a catalog entry by index (1..11) or name."""
    for e in catalog_entries():
        if key == e.index or (isinstance(key, str) and _canon_name(key) == e.name):
            return e
    raise ValidationError(f"no catalog entry {key!r}")


_ALIASES = {
    "B2DAG": "B2+", "K3DAG": "K3+", "DM4DAG": "DM4+",
    "B2†": "B2+", "K3†": "K3+", "DM4†": "DM4+",
    "D2XD2": "D2xD2",
}


def _canon_name(name: str) -> str:
    up = name.strip().upper()
    return _ALIASES.get(up, up.replace("XD", "xD") if "XD" in up else up)


@lru_cache(maxsize=1)
def _auxiliary() -> dict[str, FiniteAlgebra]:
    basics = _basics()
    d2 = basics["D2"]
    return {
        "D1": basics["D1"],
        "D2": d2,
        "D2xD2": product(d2, d2).rename("D2xD2"),
        "U": build_U(),
    }


def known_algebra_names() -> list[str]:
    return list(CATALOG_NAMES) + list(_auxiliary())


def get_algebra(name: str) -> FiniteAlgebra:
    """Resolve a catalog or auxiliary algebra by (case-insensitive) name."""
    canon = _canon_name(name)
    for e in catalog_entries():
        if e.name.upper() == canon.upper():
            return e.algebra
    for k, alg in _auxiliary().items():
        if k.upper() == canon.upper():
            return alg
    raise ValidationError(
        f"unknown algebra {name!r}; known: {', '.join(known_algebra_names())}"
    )
