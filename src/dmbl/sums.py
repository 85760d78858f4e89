r"""Sums of algebras over involutive semilattice direct systems.

A system consists of an involutive semilattice index (order ``i <= j`` iff
``i \/ j = j``), a negation-free distributive-lattice fibre per index element,
a transition map ``p[i->j]`` for every comparable pair, and a dualiser
``n[i]: F(i) -> F(~i)`` per index element.  :func:`validate` checks the axioms
and returns violations as data; :func:`dpl_sum` builds the summed algebra,
whose operations route both arguments into the fibre at the join of their
indices and whose negation sends the fibre at ``i`` through ``n[i]``.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .finalg import (
    FiniteAlgebra,
    ValidationError,
    _homomorphisms,
    algebra_from_json,
    algebra_to_json,
    dual,
    homomorphism_failure,
    is_class,
    product,
)

__all__ = [
    "InvSemilatticeSystem",
    "bilateralise",
    "dpl_sum",
    "load_system",
    "plonka_sum",
    "random_system",
    "save_system",
    "system_from_json",
    "system_to_json",
    "validate",
]


@dataclass
class InvSemilatticeSystem:
    """An involutive semilattice direct system, all maps as dense tables.

    transitions are keyed by (lower, upper) element-name pairs and map local
    fibre indices; dualisers are keyed by element name.
    """

    index: FiniteAlgebra
    fibres: dict[str, FiniteAlgebra]
    transitions: dict[tuple[str, str], tuple[int, ...]] = field(default_factory=dict)
    dualisers: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def leq(self, i: str, j: str) -> bool:
        a, b = self.index.index(i), self.index.index(j)
        return self.index.join[a][b] == b

    def comparable_pairs(self) -> list[tuple[str, str]]:
        return _comparable(self.index, _order(self.index))

    def neg_of(self, i: str) -> str:
        a = self.index.index(i)
        return self.index.elements[self.index.neg[a]]  # type: ignore[index]


def _order(index: FiniteAlgebra) -> list[list[bool]]:
    # the index order as a boolean matrix: a <= b iff a \/ b = b
    return [[row[b] == b for b in range(index.size)] for row in index.join]


def _comparable(index: FiniteAlgebra, le: list[list[bool]]) -> list[tuple[str, str]]:
    els = index.elements
    return [(els[a], els[b]) for a, row in enumerate(le) for b, x in enumerate(row) if x]


def validate(system: InvSemilatticeSystem) -> list[str]:
    """All axiom violations, each a human-readable string with a witness.

    An empty list means the system is valid.
    """
    out: list[str] = []
    idx = system.index
    if idx.neg is None:
        return ["index has no negation"]
    if not is_class(idx, "involutive semilattice"):
        out.append("index is not an involutive semilattice")

    els = idx.elements
    if set(system.fibres) != set(els):
        missing = set(els) - set(system.fibres)
        extra = set(system.fibres) - set(els)
        out.append(f"fibre keys mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        return out
    for i, F in system.fibres.items():
        if F.neg is not None:
            out.append(f"fibre at {i} must be negation-free")
        if not is_class(F, "distributive lattice"):
            out.append(f"fibre at {i} is not a distributive lattice")

    le = _order(idx)
    pairs = _comparable(idx, le)
    if set(system.transitions) != set(pairs):
        missing = set(pairs) - set(system.transitions)
        extra = set(system.transitions) - set(pairs)
        out.append(
            f"transition keys mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )
        return out

    for (i, j), p in system.transitions.items():
        Fi, Fj = system.fibres[i], system.fibres[j]
        if len(p) != Fi.size or any(not 0 <= v < Fj.size for v in p):
            out.append(f"transition {i}->{j} is not a map F({i}) -> F({j})")
            return out
        if i == j and any(p[a] != a for a in range(Fi.size)):
            out.append(f"transition {i}->{i} is not the identity")
        failure = homomorphism_failure(Fi, Fj, p)
        if failure is not None:
            op, args = failure
            out.append(
                f"transition {i}->{j} not a {op}-homomorphism at "
                f"({','.join(Fi.elements[a] for a in args)})"
            )

    for i, j in pairs:
        for k, above in zip(els, le[idx.index(j)]):
            if above:
                pij = system.transitions[(i, j)]
                pjk = system.transitions[(j, k)]
                pik = system.transitions[(i, k)]
                for a in range(system.fibres[i].size):
                    if pjk[pij[a]] != pik[a]:
                        out.append(
                            f"functoriality fails: p[{j}->{k}] o p[{i}->{j}] != "
                            f"p[{i}->{k}] at {system.fibres[i].elements[a]}"
                        )
                        break

    if set(system.dualisers) != set(els):
        out.append("dualiser keys must be exactly the index elements")
        return out
    neg_of = dict(zip(els, (els[a] for a in idx.neg)))
    for i in els:
        ni = neg_of[i]
        n = system.dualisers[i]
        if len(n) != system.fibres[i].size or any(
            not 0 <= v < system.fibres[ni].size for v in n
        ):
            out.append(f"dualiser at {i} is not a map F({i}) -> F({ni})")
            return out
    for i in els:
        ni = neg_of[i]
        n = system.dualisers[i]
        Fi, Fni = system.fibres[i], system.fibres[ni]
        if len(set(n)) != Fi.size or Fi.size != Fni.size:
            out.append(f"dualiser at {i} is not a bijection")
            continue
        back = system.dualisers[ni]
        if any(back[n[a]] != a for a in range(Fi.size)):
            out.append(f"dualiser at {ni} is not the inverse of the one at {i}")
        failure = homomorphism_failure(Fi, dual(Fni), n)
        if failure is not None:
            out.append(
                f"dualiser at {i} is not an isomorphism onto the dual "
                f"(fails at ({','.join(Fi.elements[a] for a in failure[1])}))"
            )

    for i, j in pairs:
        ni, nj = neg_of[i], neg_of[j]
        if (ni, nj) not in system.transitions:
            continue  # already reported above
        p = system.transitions[(i, j)]
        pn = system.transitions[(ni, nj)]
        for a in range(system.fibres[i].size):
            if system.dualisers[j][p[a]] != pn[system.dualisers[i][a]]:
                out.append(
                    f"equivariance fails between {i}->{j} and {ni}->{nj} at "
                    f"{system.fibres[i].elements[a]}"
                )
                break
    return out


def _require_valid(system: InvSemilatticeSystem) -> None:
    violations = validate(system)
    if violations:
        raise ValidationError(
            "invalid system:\n" + "\n".join("  - " + v for v in violations)
        )


def _assemble(
    idx: FiniteAlgebra,
    fibres: Mapping[str, FiniteAlgebra],
    transitions: Mapping[tuple[str, str], Sequence[int]],
    dualisers: Mapping[str, Sequence[int]] | None,
    name: str,
) -> FiniteAlgebra:
    els = idx.elements
    offsets: dict[str, int] = {}
    names: list[str] = []
    fib_of: list[str] = []
    local: list[int] = []
    for i in els:
        offsets[i] = len(names)
        F = fibres[i]
        for a, nm in enumerate(F.elements):
            names.append(f"({i},{nm})")
            fib_of.append(i)
            local.append(a)
    n = len(names)
    jidx = {e: k for k, e in enumerate(els)}

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            i, j = fib_of[g], fib_of[h]
            k = els[idx.join[jidx[i]][jidx[j]]]
            Fk = fibres[k]
            a = transitions[(i, k)][local[g]]
            b = transitions[(j, k)][local[h]]
            meet[g][h] = offsets[k] + Fk.meet[a][b]
            join[g][h] = offsets[k] + Fk.join[a][b]
    neg = None
    if dualisers is not None:
        neg = [0] * n
        for g in range(n):
            i = fib_of[g]
            ni = els[idx.neg[jidx[i]]]  # type: ignore[index]
            neg[g] = offsets[ni] + dualisers[i][local[g]]
    return FiniteAlgebra(name, names, meet, join, neg)


def dpl_sum(system: InvSemilatticeSystem, name: str | None = None) -> FiniteAlgebra:
    """The sum algebra of a valid system.

    Elements are named "(i,x)" for index element i and fibre element x; their
    order follows the index order, then the fibre order.
    """
    _require_valid(system)
    return _assemble(
        system.index,
        system.fibres,
        system.transitions,
        system.dualisers,
        name or f"DPl[{system.index.name}]",
    )


def plonka_sum(
    index: FiniteAlgebra,
    fibres: Mapping[str, FiniteAlgebra],
    transitions: Mapping[tuple[str, str], Sequence[int]],
    name: str | None = None,
) -> FiniteAlgebra:
    """Sum over a plain semilattice system.

    The index negation, if present, must be the identity.  When every fibre
    carries its own negation (De Morgan lattices), those negations become the
    dualisers of an involutive system and the result is the full sum; when no
    fibre has one, the result is the negation-free sum.
    """
    if index.neg is not None and any(index.neg[a] != a for a in range(index.size)):
        raise ValidationError("semilattice sum needs an index with identity negation")
    withneg = [i for i, F in fibres.items() if F.neg is not None]
    if withneg and len(withneg) != len(fibres):
        raise ValidationError("either all fibres carry a negation or none do")

    idx = FiniteAlgebra(
        index.name, index.elements, index.meet, index.join, tuple(range(index.size))
    )
    trans = {k: tuple(v) for k, v in transitions.items()}
    if withneg:
        stripped = {}
        duals = {}
        for i, F in fibres.items():
            if not is_class(F, "De Morgan lattice"):
                raise ValidationError(
                    f"fibre at {i} must be a De Morgan lattice to act as its own dualiser"
                )
            stripped[i] = FiniteAlgebra(F.name, F.elements, F.meet, F.join, None)
            duals[i] = tuple(F.neg)  # type: ignore[arg-type]
        system = InvSemilatticeSystem(idx, stripped, trans, duals)
        return dpl_sum(system, name=name)

    # negation-free: same routing, no dualisers.  Identity dualisers cannot
    # stand in (the identity is no isomorphism onto the dual), so validate
    # with them attached and discard exactly the dualiser complaints.
    duals = {i: tuple(range(F.size)) for i, F in fibres.items()}
    probe = InvSemilatticeSystem(idx, dict(fibres), trans, duals)
    plain = [v for v in validate(probe) if not v.startswith("dualiser")]
    if plain:
        raise ValidationError(
            "invalid system:\n" + "\n".join("  - " + v for v in plain)
        )
    return _assemble(idx, fibres, trans, None, name or f"Pl[{index.name}]")


def bilateralise(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Pairs (a,b) with coordinatewise meet/(dual) join and swap as negation.

    The first coordinate behaves like the algebra, the second like its dual:
    meet acts as (meet, join), join as (join, meet), negation swaps the two.
    """
    if algebra.neg is not None:
        raise ValidationError("bilateralisation applies to negation-free algebras")
    n = algebra.size
    pairs = product(algebra, dual(algebra))
    swap = [j * n + i for i in range(n) for j in range(n)]
    return FiniteAlgebra(f"Bl({algebra.name})", pairs.elements, pairs.meet, pairs.join, swap)


# ---------------------------------------------------------------------------
# random systems

_HOM_CACHE: dict[tuple, list[tuple[int, ...]]] = {}


def _all_homs(F: FiniteAlgebra, G: FiniteAlgebra) -> list[tuple[int, ...]]:
    # every homomorphism F -> G in lexicographic order, cached by the tables
    key = ((F.meet, F.join, F.neg), (G.meet, G.join, G.neg))
    if key not in _HOM_CACHE:
        _HOM_CACHE[key] = sorted(_homomorphisms(F, G, lambda g, f: range(G.size)))
    return _HOM_CACHE[key]


def _self_dualisers(F: FiniteAlgebra) -> list[tuple[int, ...]]:
    # involutions that are homomorphisms onto the dual, hence isomorphisms
    homs = _all_homs(F, dual(F))
    return [h for h in homs if all(h[h[a]] == a for a in range(F.size))]


def _compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


def _default_pools() -> tuple[list[FiniteAlgebra], list[FiniteAlgebra]]:
    from . import catalog  # deferred: catalog builds on sums

    basics = catalog.build_basics()
    d2 = basics["D2"]
    indices = [basics["IS1"], basics["IS2"], basics["IS3"], basics["IS4"]]
    return indices, [basics["D1"], d2, product(d2, d2)]


def random_system(
    rng: random.Random,
    indices: Sequence[FiniteAlgebra] | None = None,
    fibre_pool: Sequence[FiniteAlgebra] | None = None,
    max_attempts: int = 500,
) -> InvSemilatticeSystem:
    """A uniformly-seeded valid system (rejection sampling).

    Defaults: index drawn from IS1..IS4, fibres from {D1, D2, D2xD2}.  Dual
    index pairs get a fibre and its dual copy with the identity dualiser;
    fixpoints get a random self-dualiser.  Forced transitions (mirrors under
    equivariance, composites under functoriality) are derived, the rest
    sampled from the full homomorphism sets; inconsistent draws are rejected.
    """
    default_idx, default_fib = _default_pools()
    if indices is None:
        indices = default_idx
    if fibre_pool is None:
        fibre_pool = default_fib

    for _ in range(max_attempts):
        idx = rng.choice(list(indices))
        els = idx.elements
        neg_of = {e: els[idx.neg[idx.index(e)]] for e in els}  # type: ignore[index]

        fibres: dict[str, FiniteAlgebra] = {}
        dualisers: dict[str, tuple[int, ...]] = {}
        stuck = False
        for e in els:
            if e in fibres:
                continue
            F = rng.choice(list(fibre_pool))
            if neg_of[e] == e:
                selfduals = _self_dualisers(F)
                if not selfduals:
                    stuck = True
                    break
                fibres[e] = F
                dualisers[e] = rng.choice(selfduals)
            else:
                fibres[e] = F
                fibres[neg_of[e]] = dual(F)
                ident = tuple(range(F.size))
                dualisers[e] = ident
                dualisers[neg_of[e]] = ident
        if stuck:
            continue

        leq = lambda i, j: idx.join[idx.index(i)][idx.index(j)] == idx.index(j)
        pairs = [(i, j) for i in els for j in els if leq(i, j)]
        # sort by interval "height" so composites come after their parts
        strictly_below = {
            j: [i for i in els if leq(i, j) and i != j] for j in els
        }
        height = {e: 0 for e in els}
        for e in sorted(els, key=lambda e: len(strictly_below[e])):
            height[e] = 1 + max((height[i] for i in strictly_below[e]), default=-1)
        pairs.sort(key=lambda ij: height[ij[1]] - height[ij[0]])

        trans: dict[tuple[str, str], tuple[int, ...]] = {}
        ok = True
        for i, j in pairs:
            if (i, j) in trans:
                continue
            if i == j:
                trans[(i, j)] = tuple(range(fibres[i].size))
                continue
            mids = [m for m in els if leq(i, m) and leq(m, j) and m not in (i, j)]
            if mids:
                composites = {
                    _compose(trans[(m, j)], trans[(i, m)]) for m in mids
                }
                if len(composites) != 1:
                    ok = False
                    break
                trans[(i, j)] = composites.pop()
            else:
                homs = _all_homs(fibres[i], fibres[j])
                if not homs:
                    ok = False
                    break
                mirror = (neg_of[i], neg_of[j])
                if mirror == (i, j):
                    homs = [
                        h
                        for h in homs
                        if _compose(dualisers[j], h)
                        == _compose(h, dualisers[i])
                    ]
                    if not homs:
                        ok = False
                        break
                    trans[(i, j)] = rng.choice(homs)
                else:
                    # equivariance forces the mirror: p[~i->~j] = n_j o p o n_i^-1,
                    # and n_i^-1 is the dualiser stored at ~i
                    trans[(i, j)] = rng.choice(homs)
                    trans[mirror] = _compose(
                        dualisers[j],
                        _compose(trans[(i, j)], dualisers[neg_of[i]]),
                    )
        if not ok:
            continue
        system = InvSemilatticeSystem(idx, fibres, trans, dualisers)
        if not validate(system):
            return system
    raise RuntimeError(f"no valid system found in {max_attempts} attempts")


# ---------------------------------------------------------------------------
# JSON

def system_to_json(system: InvSemilatticeSystem) -> dict:
    return {
        "index": algebra_to_json(system.index),
        "fibres": {i: algebra_to_json(F) for i, F in system.fibres.items()},
        "transitions": {
            f"{i}<={j}": list(p) for (i, j), p in system.transitions.items()
        },
        "dualisers": {i: list(d) for i, d in system.dualisers.items()},
    }


def _int_tuple(values, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValidationError(f"{what} must be a list of integers") from None


def system_from_json(data: Mapping) -> InvSemilatticeSystem:
    if not isinstance(data, Mapping) or not all(
        isinstance(data.get(k, {}), Mapping) for k in ("fibres", "transitions", "dualisers")
    ):
        raise ValidationError("system JSON and its fibres, transitions, dualisers must be objects")
    try:
        index = algebra_from_json(data["index"])
        fibres = {i: algebra_from_json(F) for i, F in data["fibres"].items()}
        transitions = {}
        for key, p in data["transitions"].items():
            i, _, j = key.partition("<=")
            if not _:
                raise ValidationError(f"bad transition key {key!r}, expected 'i<=j'")
            transitions[(i, j)] = _int_tuple(p, f"transition {key}")
        dualisers = {
            i: _int_tuple(d, f"dualiser at {i}") for i, d in data["dualisers"].items()
        }
    except KeyError as exc:
        raise ValidationError(f"system JSON missing key {exc}") from None
    return InvSemilatticeSystem(index, fibres, transitions, dualisers)


def save_system(system: InvSemilatticeSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_json(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(path: str) -> InvSemilatticeSystem:
    with open(path, encoding="utf-8") as fh:
        return system_from_json(json.load(fh))
