r"""The subvariety lattice of De Morgan bisemilattices.

Every variety handled here is recorded by its generators: the set of
subdirectly irreducible catalog algebras it contains (indices 1..11).  An
identity holds in such a variety iff it holds in every generator, so theory
questions reduce to finite table checks.  The module enumerates the
admissible generator sets, names the 23 resulting varieties, decides bounded
HSP membership with certificates, assembles the ordered lattice with a
verified separating identity on every covering pair, and re-checks the
generation results the whole picture rests on (:func:`verify_theorems`).
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .catalog import catalog_entries, entry, get_algebra
from .finalg import (
    CONGRUENCE_SIZE_LIMIT,
    FiniteAlgebra,
    SatisfactionResult,
    ValidationError,
    _canonical,
    _closure,
    _memoised,
    _row_keys,
    congruences,
    is_isomorphic,
    product,
    quotient,
    satisfies,
    si_quotient_flags,
    subalgebra_generated,
)
from .sweep import (
    _first_occurrence,
    enumerate_terms,
    first_violation,
    same_partition,
    signatures,
    term_index,
    theory_partition,
)
from .terms import Identity, IdentityClass, classify, parse_identity

__all__ = [
    "ABSORPTION",
    "BISL_AXIOM",
    "B_ABS",
    "COLLAPSE",
    "CoverEdge",
    "HspResult",
    "R_ABS",
    "RB_ABS",
    "RBISL_AXIOM",
    "RISL_AXIOM",
    "SubvarietyLattice",
    "VarietyDescriptor",
    "all_varieties",
    "build_lattice",
    "classifier_sweep",
    "enumerate_generator_sets",
    "hsp_membership",
    "jonsson_check",
    "syntactic_vs_semantic",
    "variety",
    "variety_satisfies",
    "verify_theorems",
]


# ---------------------------------------------------------------------------
# named identities

ABSORPTION = "x = x /\\ (x \\/ y)"
R_ABS = "x /\\ (x \\/ y) = x /\\ (x \\/ ~y)"
B_ABS = "x /\\ (x \\/ ~x) = x /\\ (x \\/ ~x) /\\ (x \\/ ~x \\/ y)"
RB_ABS = "x /\\ (x \\/ ~x) /\\ (x \\/ ~x \\/ y) = x /\\ (x \\/ ~x) /\\ (x \\/ ~x \\/ ~y)"
COLLAPSE = "x /\\ y = x \\/ y"
RISL_AXIOM = "x = ~x"
BISL_AXIOM = "x \\/ ~x = (x \\/ ~x) \\/ y"
RBISL_AXIOM = "(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"

#: the marker identities recorded on every descriptor, in this order
AXIOM_POOL = (
    ABSORPTION,
    R_ABS,
    B_ABS,
    RB_ABS,
    COLLAPSE,
    RISL_AXIOM,
    BISL_AXIOM,
    RBISL_AXIOM,
)

_BOOLEAN = "x /\\ (y \\/ ~y) = x"
_KLEENE = "(x /\\ ~x) /\\ (y \\/ ~y) = x /\\ ~x"
_ROW1 = "x /\\ ~x = y /\\ ~y"
_ROW2 = "x /\\ ~x = (x /\\ ~x) /\\ (y \\/ ~y)"
_ROW3 = "(x /\\ ~x) /\\ y = (x /\\ ~x) /\\ ~y"
_ROW4 = (
    "(x \\/ ~x) /\\ (y \\/ ~y) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
    " = (x /\\ ~x) \\/ (y /\\ ~y)"
)
_ROW5 = (
    "(x /\\ ~x) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
    " = (y /\\ ~y) /\\ ((y /\\ ~y) \\/ (x /\\ ~x))"
)
_DN_UP = "x /\\ ~x = y \\/ ~y"
_DN_EQ_UP = "x /\\ ~x = x \\/ ~x"
_BIP_VS_RBIP = "x /\\ (x \\/ y \\/ ~y) = x /\\ (x \\/ ~x)"
_BIP_VS_B = "x /\\ (x \\/ y \\/ ~y) = x /\\ (x \\/ ~x \\/ y)"

#: identities tried first when hunting a separating identity; the bounded
#: term sweep is the fallback, so this only needs the well-known witnesses
#: (several exceed the sweep's seven-node bound)
SEPARATOR_POOL = (
    "x = y",
    ABSORPTION,
    COLLAPSE,
    RISL_AXIOM,
    BISL_AXIOM,
    RBISL_AXIOM,
    R_ABS,
    B_ABS,
    RB_ABS,
    _BOOLEAN,
    _KLEENE,
    _ROW1,
    _ROW2,
    _ROW3,
    _ROW4,
    _ROW5,
    _DN_UP,
    _DN_EQ_UP,
    _BIP_VS_RBIP,
    _BIP_VS_B,
)


@lru_cache(maxsize=64)
def _parsed(text: str) -> Identity:
    return parse_identity(text)


def _verdict(a: FiniteAlgebra, text: str) -> SatisfactionResult:
    """``satisfies(a, text)`` for a named identity, computed once per algebra
    and kept in the algebra's memo (its tables never change)."""
    verdicts = a._memo.setdefault(_verdict, {})
    if text not in verdicts:
        verdicts[text] = satisfies(a, _parsed(text))
    return verdicts[text]


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class VarietyDescriptor:
    """A variety given by name, generator set and its marker identities.

    `axioms` lists, in :data:`AXIOM_POOL` order, exactly the pool identities
    valid in the variety; it is derived from the generators, not chosen.
    """

    name: str
    generators: frozenset[int]
    axioms: tuple[str, ...]

    def generator_names(self) -> tuple[str, ...]:
        return tuple(entry(i).name for i in sorted(self.generators))

    def generator_algebras(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(entry(i).algebra for i in sorted(self.generators))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generators": sorted(self.generators),
            "generatorNames": list(self.generator_names()),
            "axioms": list(self.axioms),
        }


def _admissible(s: frozenset[int]) -> bool:
    # (a) the trivial algebra is in every variety
    if 1 not in s:
        return False
    # (b) only the varieties reaching outside the regular block are listed here
    if not s & {9, 10, 11}:
        return False
    # (c)-(i) subalgebra/quotient closure implications
    if 11 in s and not {9, 5} <= s:
        return False
    if 10 in s and 9 not in s:
        return False
    if 8 in s and not {7, 6, 5, 4, 3, 2} <= s:
        return False
    if 7 in s and not {6, 5, 3, 2} <= s:
        return False
    if 6 in s and not {5, 2} <= s:
        return False
    if 4 in s and not {3, 2} <= s:
        return False
    if 3 in s and 2 not in s:
        return False
    # (j)-(l) entry 10 is equationally inseparable from entry 9 beside 2,3,4
    if (10 in s and 2 in s) != (9 in s and 2 in s):
        return False
    if (10 in s and 3 in s) != (9 in s and 3 in s):
        return False
    if (10 in s and 4 in s) != (9 in s and 4 in s):
        return False
    # (m)-(o) a dagger algebra appears exactly when its two parts do
    if (6 in s) != ({2, 5} <= s):
        return False
    if (7 in s) != ({3, 5} <= s):
        return False
    if (8 in s) != ({4, 5} <= s):
        return False
    return True


def enumerate_generator_sets() -> list[frozenset[int]]:
    """All admissible generator sets meeting {9,10,11}, smallest first.

    Ordered by size, then lexicographically; there are exactly fifteen.
    """
    out = [
        s
        for bits in range(1, 1 << 11)
        if _admissible(s := frozenset(i + 1 for i in range(11) if bits >> i & 1))
    ]
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# the eight varieties inside the regular block, with fixed generator sets
_REGULAR_BLOCK = (
    ("T", frozenset({1})),
    ("BA", frozenset({1, 2})),
    ("KL", frozenset({1, 2, 3})),
    ("DML", frozenset({1, 2, 3, 4})),
    ("R(T)", frozenset({1, 5})),
    ("R(BA)", frozenset({1, 2, 5, 6})),
    ("R(KL)", frozenset({1, 2, 3, 5, 6, 7})),
    ("R(DML)", frozenset({1, 2, 3, 4, 5, 6, 7, 8})),
)


def _reconstruct_name(s: frozenset[int]) -> str:
    base = "DML" if 4 in s else "KL" if 3 in s else "BA" if 2 in s else "T"
    if not s & {9, 10, 11}:
        return f"R({base})" if 5 in s else base
    if 10 in s and 2 not in s:
        if 11 in s:
            return "B^-(DML)"
        if 5 in s:
            return "R(Bip^-(DML))"
        return "Bip^-(DML)"
    if 11 in s:
        return f"B({base})"
    if 5 in s:
        return f"R(Bip({base}))"
    return f"Bip({base})"


def _axioms_for(gens: frozenset[int]) -> tuple[str, ...]:
    algebras = [entry(i).algebra for i in sorted(gens)]
    return tuple(
        text
        for text in AXIOM_POOL
        if all(_verdict(a, text) for a in algebras)
    )


@lru_cache(maxsize=1)
def all_varieties() -> tuple[VarietyDescriptor, ...]:
    """The 23 varieties, ordered by generator-set size then lexicographically."""
    named: list[tuple[str, frozenset[int]]] = list(_REGULAR_BLOCK)
    named += [(_reconstruct_name(s), s) for s in enumerate_generator_sets()]
    named.sort(key=lambda t: (len(t[1]), tuple(sorted(t[1]))))
    return tuple(
        VarietyDescriptor(name, gens, _axioms_for(gens)) for name, gens in named
    )


def variety(name: str) -> VarietyDescriptor:
    """Look a descriptor up by its exact name, e.g. "Bip^-(DML)"."""
    wanted = name.strip()
    for v in all_varieties():
        if v.name == wanted:
            return v
    known = ", ".join(v.name for v in all_varieties())
    raise ValidationError(f"unknown variety {name!r}; known: {known}")


def variety_satisfies(v: VarietyDescriptor | str, e: Identity | str) -> bool:
    """Does the identity hold in every generator of the variety?"""
    if isinstance(v, str):
        v = variety(v)
    if isinstance(e, str):
        e = parse_identity(e)
    return all(bool(satisfies(a, e)) for a in v.generator_algebras())


# ---------------------------------------------------------------------------
# syntactic classes against their test algebras

_SEMANTIC_TESTS = (
    ("regular", IdentityClass.REGULAR, "IS2"),
    ("balanced-regular", IdentityClass.BALANCED_REGULAR, "IS4"),
    ("bipolarly-balanced", IdentityClass.BIPOLARLY_BALANCED, "IS3"),
    ("regular-bipolarly-balanced", IdentityClass.REGULAR_BIPOLARLY_BALANCED, "IS2xIS3"),
)


@lru_cache(maxsize=1)
def _test_algebras() -> dict[str, FiniteAlgebra]:
    is2 = entry("IS2").algebra
    is3 = entry("IS3").algebra
    return {
        "IS2": is2,
        "IS4": entry("IS4").algebra,
        "IS3": is3,
        "IS2xIS3": product(is2, is3),
    }


def syntactic_vs_semantic(e: Identity | str) -> dict:
    """Compare each syntactic class of an identity with its semantic test.

    Each of the four classes is decided twice: once from the shape of the
    identity and once by checking it in the matching algebra (IS2, IS4, IS3,
    IS2xIS3).  The two verdicts are expected to agree in every row, always.
    """
    if isinstance(e, str):
        e = parse_identity(e)
    classes = classify(e)
    algebras = _test_algebras()
    checks = []
    agree = True
    for label, cls, alg_name in _SEMANTIC_TESTS:
        syntactic = cls in classes
        semantic = bool(satisfies(algebras[alg_name], e))
        ok = syntactic == semantic
        agree = agree and ok
        checks.append(
            {
                "class": label,
                "algebra": alg_name,
                "syntactic": syntactic,
                "semantic": semantic,
                "agree": ok,
            }
        )
    return {"identity": str(e), "checks": checks, "agree": agree}


def _signature_columns(index) -> tuple[np.ndarray, ...]:
    """The variable, positive and negative masks of `signatures` as columns,
    and the bipolar flag: a variable occurs both positively and negatively."""
    v, p, m = np.array(signatures(index), dtype=np.int64).reshape(-1, 3).T
    return v, p, m, (p & m) != 0


def _codes(*columns) -> np.ndarray:
    """One integer per row of the non-negative integer `columns`, equal
    exactly where the rows are equal: the columns read as mixed-radix
    digits.  Terms keyed this way form the same partition as by the tuple
    of their column values, and `same_partition` and `first_violation`
    read any integer labels."""
    return reduce(lambda code, c: code * (int(c.max(initial=0)) + 1) + c, columns, 0)


def _split(bip: np.ndarray, bipolar: Sequence, other: Sequence) -> np.ndarray:
    """:func:`_codes` of the key ``("b", *bipolar)`` for a term with the
    bipolar flag and ``tuple(other)`` for any other term."""
    pairs = itertools.zip_longest(bipolar, other, fillvalue=0)
    return _codes(bip.astype(np.int64), *(np.where(bip, b, o) for b, o in pairs))


def classifier_sweep(max_nodes: int = 7) -> dict:
    """Exhaustive syntactic-vs-semantic agreement over the bounded term space.

    Works pairwise-free: an identity built from two enumerated terms holds in
    the test algebra iff the terms share a value row, and lies in the class
    iff they share the syntactic key, so agreement over every pair is one
    partition comparison per class.
    """
    terms = enumerate_terms(max_nodes)
    index = term_index(max_nodes)
    v, p, m, bip = _signature_columns(index)
    keys = {
        "regular": _codes(v),
        "balanced-regular": _codes(p, m),
        "bipolarly-balanced": _split(bip, [], [p, m]),
        "regular-bipolarly-balanced": _split(bip, [v], [p, m]),
    }
    algebras = _test_algebras()
    out: dict = {"terms": len(terms), "agree": True, "classes": {}}
    for label, _, alg_name in _SEMANTIC_TESTS:
        syntactic, semantic = keys[label], theory_partition(algebras[alg_name], index)
        ok = same_partition(syntactic, semantic)
        row: dict = {"algebra": alg_name, "agree": ok}
        if not ok:
            viol = first_violation(syntactic, semantic) or first_violation(
                semantic, syntactic
            )
            row["disagreement"] = str(Identity(terms[viol[0]], terms[viol[1]]))
        out["classes"][label] = row
        out["agree"] = out["agree"] and ok
    return out


# ---------------------------------------------------------------------------
# bounded HSP membership

@dataclass(frozen=True)
class HspResult:
    """Three-valued membership verdict with evidence.

    verdict "in" carries a certificate (product factors, subalgebra,
    congruence blocks, isomorphism); "out" carries an identity valid in the
    generators but failing in the candidate, with a counterexample.
    """

    verdict: str
    certificate: dict | None = None
    identity: str | None = None
    counterexample: dict[str, str] | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate,
            "identity": self.identity,
            "counterexample": self.counterexample,
        }


# theory partition of enumerate_terms() per algebra, keyed by table content;
# the arrays are read-only, as they are handed out as they are
_PARTITIONS: dict[tuple, np.ndarray] = {}


def _theory_partition(algebras: Sequence[FiniteAlgebra]) -> np.ndarray:
    """Joint theory partition of the bounded term space: two terms share a
    label exactly when they share one in every algebra.  Labels are numbered
    by first occurrence; one algebra's are its cached labels themselves."""
    index = term_index()
    joint = None
    for a in algebras:
        key = (a.meet, a.join, a.neg)
        if key not in _PARTITIONS:
            _PARTITIONS[key] = theory_partition(a, index)
            _PARTITIONS[key].flags.writeable = False
        labels = _PARTITIONS[key]
        joint = labels if joint is None else _first_occurrence(joint * (labels.max() + 1) + labels)
    return np.zeros(len(index.roots), dtype=np.int64) if joint is None else joint


def _resolve(g) -> FiniteAlgebra:
    if isinstance(g, FiniteAlgebra):
        return g
    if isinstance(g, int):
        return entry(g).algebra
    return get_algebra(g)


def _sweep_separator(
    holds_in: Sequence[FiniteAlgebra], fails_in: Sequence[FiniteAlgebra]
) -> tuple[Identity, FiniteAlgebra] | None:
    """A bounded-space identity valid in all of `holds_in` but not everywhere
    in `fails_in`, with the offending algebra."""
    joint = _theory_partition(holds_in)
    terms = enumerate_terms()
    for a in fails_in:
        viol = first_violation(joint, _theory_partition([a]))
        if viol is not None:
            return Identity(terms[viol[0]], terms[viol[1]]), a
    return None


def _pool_separator(
    holds_in: Sequence[FiniteAlgebra], fails_in: Sequence[FiniteAlgebra]
) -> tuple[str, FiniteAlgebra, dict[str, str]] | None:
    for text in SEPARATOR_POOL:
        if not all(_verdict(g, text) for g in holds_in):
            continue
        for a in fails_in:
            res = _verdict(a, text)
            if not res:
                return text, a, dict(res.counterexample or {})
    return None


def _subuniverses(P: FiniteAlgebra, max_generators: int) -> list[tuple[int, ...]]:
    """Subuniverses generated by up to `max_generators` elements, plus the
    whole carrier; deduplicated, smallest first."""
    n = P.size
    take = max_generators if n <= 20 else min(max_generators, 2)
    seen: set[frozenset[int]] = set()
    for size in range(1, take + 1):
        for seed in itertools.combinations(range(n), size):
            seen.add(frozenset(_closure(P, set(seed))))
    seen.add(frozenset(range(n)))
    return sorted((tuple(sorted(s)) for s in seen), key=lambda s: (len(s), s))


def hsp_membership(
    algebra: FiniteAlgebra,
    generators,
    *,
    max_factors: int = 3,
    product_budget: int = 100,
    max_subalgebra_generators: int = 3,
    congruence_budget: int = CONGRUENCE_SIZE_LIMIT,
) -> HspResult:
    """Bounded search for `algebra` in the variety of the given generators.

    "out": an identity valid in every generator but failing in the algebra,
    from the curated pool or the bounded term sweep.  "in": the algebra is
    isomorphic to a quotient of a subalgebra of a product of at most
    `max_factors` generators (products over `product_budget` elements are not
    formed; subalgebras are taken generated by at most
    `max_subalgebra_generators` elements -- pairs only on products above 20
    elements -- plus the full product; congruences are enumerated on
    subalgebras up to `congruence_budget` elements).  "unknown": both
    searches exhausted.  Generators may be algebras, catalog indices or
    known algebra names.
    """
    gens = (
        [_resolve(generators)]
        if isinstance(generators, (FiniteAlgebra, int, str))
        else [_resolve(g) for g in generators]
    )
    if not gens:
        raise ValidationError("need at least one generator")
    cap = max(product_budget, 1)
    oversized = [a.name for a in [algebra, *gens] if a.size > cap]
    if oversized:
        raise ValidationError(
            f"size budget exceeded: {', '.join(oversized)} larger than {cap} elements"
        )

    found = _pool_separator(gens, [algebra])
    if found is not None:
        text, _, cex = found
        return HspResult("out", identity=text, counterexample=cex)
    swept = _sweep_separator(gens, [algebra])
    if swept is not None:
        e, _ = swept
        res = satisfies(algebra, e)
        return HspResult("out", identity=str(e), counterexample=res.counterexample)

    # membership search, smallest products first
    multisets = [
        ms
        for k in range(1, max_factors + 1)
        for ms in itertools.combinations_with_replacement(range(len(gens)), k)
    ]

    def prod_size(ms):
        size = 1
        for i in ms:
            size *= gens[i].size
        return size

    multisets.sort(key=lambda ms: (prod_size(ms), len(ms), ms))
    for ms in multisets:
        if prod_size(ms) > product_budget:
            continue
        P = reduce(product, [gens[i] for i in ms])
        for sub in _subuniverses(P, max_subalgebra_generators):
            if len(sub) < algebra.size or len(sub) > congruence_budget:
                continue
            S, inclusion = subalgebra_generated(P, sub)
            for theta in congruences(S):
                if theta.num_blocks != algebra.size:
                    continue
                Q = quotient(S, theta)
                iso = is_isomorphic(algebra, Q)
                if iso is None:
                    continue
                certificate = {
                    "factors": [gens[i].name for i in ms],
                    "factorIndices": list(ms),
                    "subalgebra": [P.elements[x] for x in inclusion],
                    "congruence": None
                    if theta.is_identity()
                    else [
                        [S.elements[x] for x in block] for block in theta.blocks
                    ],
                    "isomorphism": iso,
                }
                return HspResult("in", certificate=certificate)
    return HspResult("unknown")


# ---------------------------------------------------------------------------
# the lattice

@dataclass(frozen=True)
class CoverEdge:
    """A covering pair with its separating identity: the identity holds in
    the lower variety and fails in the named generator of the upper one."""

    lower: str
    upper: str
    identity: str
    fails_in: str
    counterexample: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "identity": self.identity,
            "failsIn": self.fails_in,
            "counterexample": self.counterexample,
        }


# transcription of the expected diagram: (lower, upper, identity, generator
# of the upper variety in which the identity fails)
_EXPECTED_COVERS: tuple[tuple[str, str, str, str], ...] = (
    ("T", "BA", "x = y", "B2"),
    ("T", "R(T)", ABSORPTION, "IS2"),
    ("T", "Bip(T)", RISL_AXIOM, "IS3"),
    ("BA", "KL", _BOOLEAN, "K3"),
    ("BA", "R(BA)", ABSORPTION, "IS2"),
    ("BA", "Bip(BA)", _BOOLEAN, "IS3"),
    ("KL", "DML", _KLEENE, "DM4"),
    ("KL", "R(KL)", ABSORPTION, "IS2"),
    ("KL", "Bip(KL)", ABSORPTION, "IS3"),
    ("DML", "R(DML)", ABSORPTION, "IS2"),
    ("DML", "Bip(DML)", ABSORPTION, "IS3"),
    ("R(T)", "R(BA)", RISL_AXIOM, "B2"),
    ("R(T)", "R(Bip(T))", RISL_AXIOM, "IS3"),
    ("R(BA)", "R(KL)", _ROW3, "K3"),
    ("R(BA)", "R(Bip(BA))", R_ABS, "IS3"),
    ("R(KL)", "R(DML)", _ROW4, "DM4"),
    ("R(KL)", "R(Bip(KL))", R_ABS, "IS3"),
    ("R(DML)", "R(Bip(DML))", R_ABS, "IS3"),
    ("Bip(T)", "R(Bip(T))", _DN_UP, "IS2"),
    ("Bip(T)", "Bip^-(DML)", COLLAPSE, "A5"),
    ("R(Bip(T))", "R(Bip^-(DML))", COLLAPSE, "A5"),
    ("R(Bip(T))", "B(T)", RBISL_AXIOM, "IS4"),
    ("B(T)", "B^-(DML)", COLLAPSE, "A5"),
    ("Bip^-(DML)", "R(Bip^-(DML))", _DN_UP, "IS2"),
    ("Bip^-(DML)", "Bip(BA)", _DN_UP, "B2"),
    ("R(Bip^-(DML))", "R(Bip(BA))", _DN_EQ_UP, "B2"),
    ("R(Bip^-(DML))", "B^-(DML)", _ROW3, "IS4"),
    ("B^-(DML)", "B(BA)", _DN_EQ_UP, "B2"),
    ("Bip(BA)", "Bip(KL)", _ROW1, "K3"),
    ("Bip(BA)", "R(Bip(BA))", B_ABS, "IS2"),
    ("R(Bip(BA))", "R(Bip(KL))", _ROW3, "K3"),
    ("R(Bip(BA))", "B(BA)", RB_ABS, "IS4"),
    ("B(BA)", "B(KL)", _ROW5, "K3"),
    ("Bip(KL)", "Bip(DML)", _ROW2, "DM4"),
    ("Bip(KL)", "R(Bip(KL))", B_ABS, "IS2"),
    ("R(Bip(KL))", "R(Bip(DML))", _ROW4, "DM4"),
    ("R(Bip(KL))", "B(KL)", RB_ABS, "IS4"),
    ("B(KL)", "B(DML)", _ROW4, "DM4"),
    ("Bip(DML)", "R(Bip(DML))", B_ABS, "IS2"),
    ("R(Bip(DML))", "B(DML)", RB_ABS, "IS4"),
)


@dataclass(frozen=True)
class SubvarietyLattice:
    """All 23 varieties with their containment order and annotated covers."""

    nodes: tuple[VarietyDescriptor, ...]
    order: frozenset[tuple[str, str]]  # non-strict: (below, above)
    covers: tuple[CoverEdge, ...]

    def node(self, name: str) -> VarietyDescriptor:
        for v in self.nodes:
            if v.name == name:
                return v
        raise ValidationError(f"unknown variety {name!r}")

    def leq(self, below: str, above: str) -> bool:
        return (self.node(below).name, self.node(above).name) in self.order

    def below(self, name: str) -> tuple[str, ...]:
        """Every variety contained in the named one, in node order."""
        return tuple(v.name for v in self.nodes if self.leq(v.name, name))

    def to_json(self) -> dict:
        return {
            "nodes": [v.to_json() for v in self.nodes],
            "order": sorted([a, b] for a, b in self.order),
            "covers": [e.to_json() for e in self.covers],
        }

    def to_dot(self) -> str:
        def quote(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph subvarieties {", "  rankdir=BT;"]
        for v in self.nodes:
            gens = ",".join(str(i) for i in sorted(v.generators))
            lines.append(f"  {quote(v.name)} [tooltip={quote('{' + gens + '}')}];")
        for e in self.covers:
            lines.append(
                f"  {quote(e.lower)} -> {quote(e.upper)} "
                f"[label={quote(e.identity)}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _verify_non_containment(v: VarietyDescriptor, w: VarietyDescriptor) -> None:
    """Certify v is not contained in w: an identity valid in all of w's
    generators must fail in one of v's."""
    w_algebras = list(w.generator_algebras())
    v_only = [entry(i).algebra for i in sorted(v.generators - w.generators)]
    if _pool_separator(w_algebras, v_only) is not None:
        return
    if _sweep_separator(w_algebras, v_only) is not None:
        return
    raise ValidationError(
        f"no identity separates {v.name} from {w.name}; expected {v.name} "
        f"not below {w.name}"
    )


@lru_cache(maxsize=1)
def build_lattice() -> SubvarietyLattice:
    """Assemble and certify the 23-node lattice.

    Containments follow generator-set inclusion (each generator of the lower
    variety is literally a generator of the upper one); every non-containment
    is certified by a separating identity; the covering pairs must match the
    expected diagram, each with its recorded identity re-verified: valid in
    the lower variety, refuted in the stated generator of the upper one.
    Any disagreement raises with the offending pair.
    """
    nodes = all_varieties()
    rank = {v.name: k for k, v in enumerate(nodes)}

    order: set[tuple[str, str]] = set()
    for v in nodes:
        for w in nodes:
            if v.generators <= w.generators:
                order.add((v.name, w.name))
            else:
                _verify_non_containment(v, w)

    strict = {(a, b) for a, b in order if a != b}
    covers = {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in rank)
    }

    expected = {(lo, up) for lo, up, _, _ in _EXPECTED_COVERS}
    if covers != expected:
        missing = sorted(expected - covers)
        extra = sorted(covers - expected)
        raise ValidationError(
            f"cover relation deviates from the expected diagram; "
            f"missing {missing}, unexpected {extra}"
        )

    edges = []
    by_name = {v.name: v for v in nodes}
    for lo, up, text, witness in _EXPECTED_COVERS:
        for a in by_name[lo].generator_algebras():
            if not _verdict(a, text):
                raise ValidationError(
                    f"separating identity {text!r} for {lo} < {up} fails in "
                    f"{a.name}, a generator of {lo}"
                )
        if entry(witness).index not in by_name[up].generators:
            raise ValidationError(
                f"{witness} is not a generator of {up} (cover {lo} < {up})"
            )
        res = _verdict(entry(witness).algebra, text)
        if res:
            raise ValidationError(
                f"separating identity {text!r} for {lo} < {up} unexpectedly "
                f"holds in {witness}"
            )
        edges.append(CoverEdge(lo, up, text, witness, dict(res.counterexample)))
    edges.sort(key=lambda e: (rank[e.lower], rank[e.upper]))
    return SubvarietyLattice(nodes, frozenset(order), tuple(edges))


# ---------------------------------------------------------------------------
# the Jónsson search, through the free algebra on two generators

_GATHER = 1 << 16  # term values per batch of seeds or pairs


def _free_pair(U: FiniteAlgebra) -> np.ndarray:
    """F(2) of V(U), the free algebra on two generators: the subalgebra of
    U^(U x U) generated by the two projections, one row per binary term
    function t of U, with ``T[t, a * n + b] = t(a, b)``.  A semi-naive
    closure: each round applies the operations to the rows found in the last
    round and all rows so far, about 2^19 values at a time."""
    n = U.size
    meet, join, neg = U.arrays()
    # a commutative table needs one order of its arguments only
    flats = {t.tobytes(): t.astype(np.uint8).ravel() for t in (meet, join, meet.T, join.T)}
    rows = np.array(np.divmod(np.arange(n * n), n), dtype=np.uint8)
    seen = set(_row_keys(rows).tolist())
    fresh = rows
    while len(fresh):
        new = set() if neg is None else set(_row_keys(neg.astype(np.uint8)[fresh]).tolist())
        step = max(1, (1 << 19) // (len(rows) * n * n))
        for lo in range(len(rows) - len(fresh), len(rows), step):
            left = rows[lo : lo + step, None].astype(np.int16) * n
            for flat in flats.values():
                new.update(_row_keys(flat[left + rows].reshape(-1, n * n)).tolist())
        new -= seen
        seen |= new
        fresh = np.frombuffer(b"".join(sorted(new)), dtype=np.uint8).reshape(-1, n * n)
        rows = np.vstack([rows, fresh])
    return rows


def _term_codes(T: np.ndarray, n: int, place: np.ndarray, a, b) -> np.ndarray:
    """Row i holds t(a[i], b[i]) for every row t of F(2) (``T``), where a and
    b are elements of U^k coded with digit weights `place`."""
    out = np.zeros((len(a), len(T)), dtype=np.int64)
    columns = np.ascontiguousarray(T.T)
    for p in place:
        out += columns[a // p % n * n + b // p % n] * p
    return out


def _kernels(codes: np.ndarray) -> np.ndarray:
    """The kernel of each row of `codes`, t -> codes[i, t], as block ids
    numbered by first occurrence: one `np.unique` over all the rows, each
    offset past the values of the one before."""
    rows, m = codes.shape
    flat = (codes + np.arange(rows)[:, None] * (int(codes.max(initial=0)) + 1)).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return _canonical((first[inverse] % m).reshape(rows, m))


def _keys(kernels: np.ndarray) -> list[bytes]:
    # kernel rows as dictionary keys; their labels are below |F(2)| < 2^16
    return _row_keys(kernels.astype(np.uint16)).tolist()


def _masks(codes: np.ndarray, N: int) -> np.ndarray:
    # mask[i, x]: x occurs in row i
    mask = np.zeros((len(codes), N), dtype=bool)
    mask[np.arange(len(codes))[:, None], codes] = True
    return mask


def _generating_kernels(T: np.ndarray, n: int, place: np.ndarray, elements) -> set[bytes]:
    """The kernels of the pairs of `elements`, a subuniverse of U^k, that
    generate it: the κ with F(2)/κ isomorphic to it."""
    size, step, out = len(elements), max(1, _GATHER // len(T)), set()
    for lo in range(0, size * size, step):
        pair = np.arange(lo, min(lo + step, size * size))
        codes = _term_codes(T, n, place, elements[pair // size], elements[pair % size])
        codes = codes[_masks(codes, n * place[0]).sum(axis=1) == size]
        out.update(_keys(_kernels(codes)))
    return out


def _subpower(U: FiniteAlgebra, place: np.ndarray, elements: np.ndarray) -> FiniteAlgebra:
    """The subalgebra of U^k on `elements` (codes with digit weights
    `place`), in that order; its tables are read coordinatewise from U's."""
    index = np.zeros(U.size * place[0], dtype=np.intp)
    index[elements] = np.arange(len(elements))
    x = elements[:, None] // place % U.size  # the coordinates
    meet, join, neg = U.arrays()
    return FiniteAlgebra(
        f"{U.name}^{len(place)}:{len(elements)}",
        [str(c) for c in elements],
        index[meet[x[:, None], x] @ place].tolist(),
        index[join[x[:, None], x] @ place].tolist(),
        None if neg is None else index[neg[x] @ place].tolist(),
    )


def _canonical_seeds(perms: np.ndarray, batch: int) -> Iterable[tuple[np.ndarray, ...]]:
    """The seeds a <= b of U^k (a == b: one element) that are the least image
    of themselves under the coordinate permutations `perms`, in batches."""
    N = perms.shape[1]
    span = max(1, (1 << 16) // N)
    for lo in range(0, N, span):
        a, b = np.nonzero(np.arange(lo, min(lo + span, N))[:, None] <= np.arange(N))
        a += lo
        least = np.all(
            [np.minimum(p[a], p[b]) * N + np.maximum(p[a], p[b]) >= a * N + b for p in perms],
            axis=0,
        )
        a, b = a[least], b[least]
        for i in range(0, len(a), batch):
            yield a[i : i + batch], b[i : i + batch]


def _si_quotients_embed(U: FiniteAlgebra, powers: Iterable[int], congruence_cap: int) -> dict:
    """Search quotients of 2-generated subalgebras of powers of U for
    subdirectly irreducible members; each must embed into U itself.

    The subalgebra S generated by a seed (a, b) of U^k is the set of values
    t(a, b), t in F(2) (:func:`_free_pair`), so S is F(2)/κ for the kernel κ
    of t -> t(a, b).  Subuniverses are counted up to coordinate permutations,
    and those above `congruence_cap` elements are skipped (and counted).
    S ≅ S' exactly when the kernel of the seed of S' is the kernel of some
    generating pair of S: each new isomorphism representative registers all
    those kernels, and later subalgebras of the same power cost one lookup.
    Congruences are computed on representatives only.  The kernel of S/θ is
    θ's block of each entry of κ, and S/θ embeds into U exactly when that is
    the kernel of a pair of elements of U.
    """
    T = _memoised(U, _free_pair)
    n, batch = U.size, max(1, _GATHER // len(T))
    embeds = set(_keys(_kernels(T.T)))  # the kernels of U's pairs
    report = dict.fromkeys(("subalgebras", "skipped_large", "quotients", "si_quotients"), 0)
    report["failures"] = []
    for k in powers:
        N, place = n**k, n ** np.arange(k - 1, -1, -1)
        # perms[i][x]: x with its coordinates permuted by the i-th permutation
        digits = np.arange(N)[:, None] // place % n
        perms = np.array([digits[:, list(p)] @ place for p in itertools.permutations(range(k))])
        # each subuniverse, as its least image under perms, with its size, the
        # kernel of its first seed, and that seed
        found: dict[bytes, tuple[int, bytes, tuple[int, int]]] = {}
        for a, b in _canonical_seeds(perms, batch):
            codes = _term_codes(T, n, place, a, b)
            mask = _masks(codes, N)
            images = np.stack([_row_keys(np.packbits(mask[:, p], 1)) for p in perms], 1)
            rank = np.unique(images, return_inverse=True)[1].reshape(images.shape)
            least = images[np.arange(len(a)), rank.argmin(axis=1)].tolist()
            new = {key: i for i, key in enumerate(least) if key not in found}
            pick = np.fromiter(new.values(), dtype=np.intp, count=len(new))
            sizes, kernels = mask[pick].sum(axis=1).tolist(), _keys(_kernels(codes[pick]))
            found.update(zip(new, zip(sizes, kernels, zip(a[pick], b[pick]))))

        known: set[bytes] = set()  # kernels of the representatives' generating pairs
        for size, kernel, seed in sorted(found.values()):
            report["subalgebras"] += 1
            if size > congruence_cap:
                report["skipped_large"] += 1
                continue
            if kernel in known:
                continue
            # a new representative, its elements in the order of κ's blocks
            kappa = np.frombuffer(kernel, dtype=np.uint16).astype(np.intp)
            codes = _term_codes(T, n, place, *np.array(seed)[:, None])[0]
            elements = codes[np.unique(kappa, return_index=True)[1]]
            known |= _generating_kernels(T, n, place, elements)
            cons = congruences(_subpower(U, place, elements))
            si = [c for c, flag in zip(cons, si_quotient_flags(cons)) if flag]
            report["quotients"] += len(cons)
            report["si_quotients"] += len(si)
            # θ and κ both number blocks by first occurrence, so θ.block_of[κ]
            # is the kernel of t -> t(a, b)/θ as it stands
            for theta, q in zip(si, _keys(np.array([c.block_of for c in si])[:, kappa])):
                if q not in embeds:
                    blocks = theta.num_blocks
                    report["failures"].append(
                        {"power": k, "subalgebra_size": size,
                         "quotient_size": blocks, "blocks": blocks}
                    )
    report["ok"] = not report["failures"]
    return report


def jonsson_check(max_power: int = 2, congruence_cap: int = CONGRUENCE_SIZE_LIMIT) -> dict:
    """Subdirectly irreducible quotients of 2-generated subalgebras of U, U^2
    (and up to U^`max_power`) all embed into U -- the bounded sanity check
    behind using generator sets of subdirectly irreducibles.  The search runs
    through the free algebra F(2) of V(U) (:func:`_si_quotients_embed`).
    Returns search counts and failures (expected none)."""
    U = get_algebra("U")
    return _si_quotients_embed(U, range(1, max_power + 1), congruence_cap)


# ---------------------------------------------------------------------------
# generation results

def _theory_formula_check(
    joint: Sequence[FiniteAlgebra], syntactic: np.ndarray, label: str
) -> dict:
    """Compare the joint bounded theory of `joint` with a syntactic keying,
    given as one integer label per term."""
    terms = enumerate_terms()
    semantic = _theory_partition(list(joint))
    ok = same_partition(semantic, syntactic)
    out = {"check": label, "ok": ok, "detail": f"{len(terms)} terms"}
    if not ok:
        viol = first_violation(semantic, syntactic) or first_violation(
            syntactic, semantic
        )
        out["detail"] = f"disagree at {Identity(terms[viol[0]], terms[viol[1]])}"
    return out


def _membership_entry(label: str, result: HspResult) -> dict:
    detail = result.verdict
    if result.verdict == "in" and result.certificate:
        cert = result.certificate
        detail = (
            f"in via {' x '.join(cert['factors'])}, subalgebra of size "
            f"{len(cert['subalgebra'])}"
            + (", quotient" if cert["congruence"] else "")
        )
    elif result.verdict == "out":
        detail = f"out via {result.identity}"
    return {"check": label, "ok": result.verdict == "in", "detail": detail}


def _outcome(work: Callable[[], object]) -> bytes:
    """``work()``'s result, or the exception it raised, pickled.  An
    exception the parent could not rebuild goes as a RuntimeError holding
    its repr."""
    try:
        return pickle.dumps((True, work()))
    # the parent raises it again: this is a process boundary, not a handler
    except BaseException as exc:
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
            return data
        except Exception:  # any failure to pickle or to rebuild it
            return pickle.dumps((False, RuntimeError(repr(exc))))


@contextmanager
def _beside(work: Callable[[], dict]) -> Iterator[Callable[[], dict]]:
    """Start ``work()`` in a forked child and yield a function that waits
    for it and returns its result, or raises its exception again, with the
    same type and message.

    The child writes its pickled outcome (:func:`_outcome`) to a pipe and
    leaves only by ``os._exit``, so no exit handler runs twice and no
    inherited output buffer is flushed twice.  The parent reads the pipe,
    then reaps the child; a child that ends without a result raises a
    RuntimeError naming its exit status or signal.  If the with-block ends
    without the result, by an error or an interrupt, the child is killed
    and reaped.  Where ``os.fork`` does not exist, the yielded function is
    `work` itself, run inline when it is called."""
    if not hasattr(os, "fork"):
        yield work
        return
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: no pipe either
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(_outcome(work))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    pipe = open(read, "rb")
    reaped = False

    def result() -> dict:
        nonlocal reaped
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code or not data:
            ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"the child process of {work.__name__} {ended} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        pipe.close()


def verify_theorems(include_jonsson: bool = True) -> dict:
    """Re-check the generation results: mutual membership certificates for
    the named generator-set equalities, the syntactic descriptions of the
    key theories over the bounded term space, the lattice assembly, the
    absorption-family alignment, and (optionally) the subdirect
    irreducibility sanity search over powers of U (:func:`jonsson_check`).

    The two groups share no state, so the search runs in a forked child
    process while this one makes the other 38 checks (:func:`_beside`); its
    check comes last in the report, which is the same as when everything
    runs in one process.  The search's exception, if it raises, is raised
    here again.  Where ``os.fork`` does not exist the search runs inline,
    after the other checks."""
    if not include_jonsson:
        checks = _theorem_checks()
    else:
        with _beside(jonsson_check) as search:
            checks = _theorem_checks()
            jn = search()
        checks.append(
            {
                "check": "subdirectly irreducible quotients inside powers of U "
                "embed into U",
                "ok": jn["ok"],
                "detail": (
                    f"{jn['subalgebras']} subalgebras, {jn['quotients']} quotients, "
                    f"{jn['si_quotients']} subdirectly irreducible, "
                    f"{len(jn['failures'])} failures"
                ),
            }
        )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _theorem_checks() -> list[dict]:
    """The 38 checks of :func:`verify_theorems` other than the search."""
    checks: list[dict] = []
    basics = {name: entry(name).algebra for name in ("B2", "K3", "DM4", "IS2", "IS3", "IS4")}
    U = get_algebra("U")
    v, p, m, bip = _signature_columns(term_index())

    def member(label: str, algebra: FiniteAlgebra, gens: list[FiniteAlgebra]) -> None:
        checks.append(_membership_entry(label, hsp_membership(algebra, gens)))

    def same_theory(label: str, xs: list[FiniteAlgebra], ys: list[FiniteAlgebra]) -> None:
        ok = same_partition(_theory_partition(xs), _theory_partition(ys))
        checks.append(
            {"check": f"bounded theory of {label}", "ok": ok, "detail": f"{len(v)} terms"}
        )

    # regularised De Morgan lattices: V(A+) = V(A, IS2)
    IS2, IS4, DM4 = basics["IS2"], basics["IS4"], basics["DM4"]
    for name in ("B2", "K3", "DM4"):
        plus, A = entry(f"{name}+").algebra, basics[name]
        member(f"{name}+ in HSP({name}, IS2)", plus, [A, IS2])
        member(f"{name} in HSP({name}+)", A, [plus])
        member(f"IS2 in HSP({name}+)", IS2, [plus])
        same_theory(f"{name}+ equals that of {{{name}, IS2}}", [A, IS2], [plus])

    # U generates the same variety as {DM4, IS4}
    member("U in HSP(DM4, IS4)", U, [DM4, IS4])
    member("DM4 in HSP(U)", DM4, [U])
    member("IS4 in HSP(U)", IS4, [U])
    same_theory("U equals that of {DM4, IS4}", [U], [DM4, IS4])

    # ... and as the single product DM4 x IS4 (a sum with its bottom fibre
    # bilateralised): both factors are homomorphic images of the product, so
    # the two memberships above close the circle through U
    dm4xis4 = product(DM4, IS4)
    member("U in HSP(DM4 x IS4)", U, [dm4xis4])
    member("DM4 in HSP(DM4 x IS4)", DM4, [dm4xis4])
    member("IS4 in HSP(DM4 x IS4)", IS4, [dm4xis4])
    same_theory("U equals that of DM4 x IS4", [U], [dm4xis4])

    # A5 sits between IS3 and B2 x IS3
    A5 = entry("A5").algebra
    member("A5 in HSP(B2, IS3)", A5, [basics["B2"], basics["IS3"]])
    member("IS3 in HSP(A5)", basics["IS3"], [A5])

    def formula(joint: list[FiniteAlgebra], syntactic: np.ndarray, label: str) -> None:
        checks.append(_theory_formula_check(joint, syntactic, f"identities of {label}"))

    # syntactic descriptions of the bipolar theories; a key is ("b", ...)
    # for a bipolar term, and names the variables (v), the positive (p) and
    # negative (m) occurrences, and the theory class in an algebra (g)
    g = _theory_partition([DM4])
    formula([A5], _split(bip, [], [p, m, g]), "A5 = bipolar ones plus balanced ones valid in DM4")
    formula(
        [A5, IS2], _split(bip, [v], [p, m, g]),
        "{A5, IS2} = regular bipolar plus balanced DM4-valid",
    )
    formula(
        [A5, IS4], _split(bip, [p, m], [p, m, g]),
        "{A5, IS4} = balanced bipolar plus balanced DM4-valid",
    )

    # regularisation operators on the lattice-generated varieties
    for name in ("B2", "K3", "DM4"):
        A = basics[name]
        g = _theory_partition([A])
        formula(
            [A, basics["IS3"]], _split(bip, [g], [g, p, m]),
            f"{{{name}, IS3}} = bipolarly balanced ones of {name}",
        )
        formula(
            [A, IS2, basics["IS3"]], _split(bip, [g, v], [g, p, m]),
            f"{{{name}, IS2, IS3}} = regular bipolarly balanced ones of {name}",
        )
        formula([A, IS4], _codes(g, p, m), f"{{{name}, IS4}} = balanced ones of {name}")

    # the lattice itself, plus the absorption-family alignment
    try:
        lattice = build_lattice()
        checks.append(
            {
                "check": "subvariety lattice assembles with verified covers",
                "ok": True,
                "detail": f"{len(lattice.nodes)} nodes, {len(lattice.covers)} covers",
            }
        )
    except ValidationError as exc:
        lattice = None
        checks.append(
            {
                "check": "subvariety lattice assembles with verified covers",
                "ok": False,
                "detail": str(exc),
            }
        )
    if lattice is not None:
        for axiom, label, top in (
            (R_ABS, "R-absorption", "R(DML)"),
            (B_ABS, "B-absorption", "Bip(DML)"),
            (RB_ABS, "RB-absorption", "R(Bip(DML))"),
        ):
            expected = set(lattice.below(top))
            actual = {
                v.name for v in lattice.nodes if variety_satisfies(v, axiom)
            }
            ok = expected == actual
            detail = f"{len(expected)} varieties below {top}"
            if not ok:
                detail = (
                    f"mismatch: only-below {sorted(expected - actual)}, "
                    f"only-satisfying {sorted(actual - expected)}"
                )
            checks.append(
                {
                    "check": f"{label} holds exactly below {top}",
                    "ok": ok,
                    "detail": detail,
                }
            )

    return checks
