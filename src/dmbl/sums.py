r"""Sums of algebras over involutive semilattice direct systems.

A system consists of an involutive semilattice index (order ``i <= j`` iff
``i \/ j = j``), a negation-free distributive-lattice fibre per index element,
a transition map ``p[i->j]`` for every comparable pair, and a dualiser
``n[i]: F(i) -> F(~i)`` per index element.  :func:`validate` checks the axioms
and returns violations as data; :func:`dpl_sum` builds the summed algebra,
whose operations route both arguments into the fibre at the join of their
indices and whose negation sends the fibre at ``i`` through ``n[i]``.

Both work on one flat form of the system (:func:`_flat`): the carrier of the
sum, the fibres' tables stored one after another, every transition as one
column of ``route`` and the dualisers as one map, so that each check and each
table of the sum is a whole-system array pass rather than a loop over maps;
a sum validates its system on the flat form it reads its tables from.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .finalg import (
    _BATCH,
    FiniteAlgebra,
    ValidationError,
    _check_fibres,
    _homomorphisms,
    _memoised,
    _positions,
    algebra_from_json,
    algebra_to_json,
    dual,
    is_class,
    product,
)

__all__ = [
    "InvSemilatticeSystem",
    "MAX_ATTEMPTS",
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
        idx = self.index
        at = _memoised(idx, _positions)
        if i not in at or j not in at:
            idx.index(i if i not in at else j)  # raises, naming the element
        return bool(_memoised(idx, _order)[at[i], at[j]])

    def comparable_pairs(self) -> list[tuple[str, str]]:
        els = self.index.elements
        return [(els[a], els[b]) for a, b in zip(*np.nonzero(_order(self.index)))]


def _order(index: FiniteAlgebra) -> np.ndarray:
    # the index order as a boolean matrix: a <= b iff a \/ b = b
    return index.arrays()[1] == np.arange(index.size)


def _flat(system: InvSemilatticeSystem) -> SimpleNamespace:
    """The system on the carrier of its sum, its fibres side by side in index
    order (`off` their offsets, ``fib[g]`` g's fibre); their meet and join
    tables stored one after another, valued on the carrier (g /\\ h is
    ``meet[row[g] + h]`` for g, h in one fibre), and their negations, the
    identity where `negs` says a fibre has none.  ``route[g, k]`` is
    p[fib(g)->k](g), and ``dual[g]`` the dualiser's image of g, each -1
    where the map is missing or malformed.  The transition keys must be the
    index's comparable pairs."""
    idx, els = system.index, system.index.elements
    at, F = {e: k for k, e in enumerate(els)}, [system.fibres[i] for i in els]
    is_map = lambda p, A, B: len(p) == A.size and 0 <= min(p) and max(p) < B.size
    size, tables = np.array([A.size for A in F]), [A.arrays() for A in F]
    off, base = np.cumsum(np.r_[0, size]), np.cumsum(np.r_[0, size**2])
    fib = np.repeat(np.arange(len(els)), size)
    row = base[fib] + (np.arange(off[-1]) - off[fib]) * size[fib] - off[fib]
    meet, join, neg = (np.concatenate([
        np.arange(o, o + len(t[0])) if t[k] is None else t[k].ravel() + o
        for o, t in zip(off, tables)
    ]) for k in (0, 1, 2))
    route = np.full((off[-1], len(els)), -1)
    for (i, j), p in system.transitions.items():
        a, b = at[i], at[j]
        if is_map(p, F[a], F[b]):
            route[off[a] : off[a + 1], b] = np.add(p, off[b])
    dual = np.full(off[-1], -1)
    for i, d in system.dualisers.items():
        a = at.get(i)
        if a is not None and is_map(d, F[a], F[idx.neg[a]]):
            dual[off[a] : off[a + 1]] = np.add(d, off[idx.neg[a]])
    return SimpleNamespace(
        off=off, fib=fib, row=row, meet=meet, join=join, neg=neg,
        negs=np.array([t[2] is not None for t in tables]), route=route, dual=dual,
    )


def _firsts(bad: np.ndarray, group: np.ndarray, groups: int) -> np.ndarray:
    """``first[i, c]``: the least row r of `bad` with ``group[r] == i`` and
    ``bad[r, c]``, or -1 where there is none."""
    r, c = np.nonzero(bad)
    first = np.full((groups, bad.shape[1]), len(bad))
    np.minimum.at(first, (group[r], c), r)
    return np.where(first < len(bad), first, -1)


def validate(system: InvSemilatticeSystem) -> list[str]:
    """All axiom violations, each a human-readable string with a witness.

    An empty list means the system is valid.  The key, length and range
    checks come first, each ending the list where it fails.  The fibres run
    their class check as one batch (``finalg._check_fibres``); the maps are
    checked by array comparisons over one flat form (:func:`_flat`), in
    arrays no larger than its `route` or ``_BATCH`` (map, pair) rows, about
    100 bytes each, each map reporting its first failure: pairs (a, b) row
    by row, meet before join, then negation where both fibres have one."""
    return _violations(system)[0]


def _violations(system: InvSemilatticeSystem) -> tuple[list[str], SimpleNamespace | None]:
    # validate's list and the flat form it checked, None if a key check ends it
    out: list[str] = []
    idx = system.index
    if idx.neg is None:
        return ["index has no negation"], None
    if not is_class(idx, "involutive semilattice"):
        out.append("index is not an involutive semilattice")

    els, fibres = idx.elements, system.fibres
    if set(fibres) != set(els):
        miss, extra = set(els) - set(fibres), set(fibres) - set(els)
        return out + [f"fibre keys mismatch (missing {sorted(miss)}, extra {sorted(extra)})"], None
    _check_fibres(fibres.values())
    for i, F in fibres.items():
        if F.neg is not None:
            out.append(f"fibre at {i} must be negation-free")
        if not is_class(F, "distributive lattice"):
            out.append(f"fibre at {i} is not a distributive lattice")

    order = _memoised(idx, _order)
    ta, tb = np.nonzero(order)
    pairs = {(els[a], els[b]) for a, b in zip(ta, tb)}
    if (keys := set(system.transitions)) != pairs:
        miss, extra = sorted(pairs - keys), sorted(keys - pairs)
        return out + [f"transition keys mismatch (missing {miss}, extra {extra})"], None

    f = _flat(system)
    route, d, m, at = f.route, f.dual, len(els), {e: k for k, e in enumerate(els)}
    ar, names = np.arange(len(f.fib)), [x for i in els for x in fibres[i].elements]
    sizes, up = np.diff(f.off), route >= 0

    def failures(src: np.ndarray, dst: np.ndarray, image, tables) -> list:
        # each map u's first failure (operation, witness), u: F(src[u]) -> by
        # image(x, dst[u]): pairs (g, h) row by row under each (source, target)
        # pair of tables, then elements under ~ where both fibres have one
        n2, n1 = sizes[src] ** 2, sizes[src]
        if n2.sum() > _BATCH and len(src) > 1:  # halve, to keep the rows bounded
            parts = np.array_split(np.arange(len(src)), 2)
            return [r for p in parts for r in failures(src[p], dst[p], image, tables)]
        u2, u1 = (np.repeat(np.arange(len(src)), c) for c in (n2, n1))
        q = np.arange(n2.sum()) - np.repeat(np.cumsum(n2) - n2, n2)
        g, h = f.off[src][u2] + q // n1[u2], f.off[src][u2] + q % n1[u2]
        x = f.off[src][u1] + np.arange(n1.sum()) - np.repeat(np.cumsum(n1) - n1, n1)
        y, k2 = image(x, dst[u1]), dst[u2]
        ig, ih = image(g, k2), image(h, k2)
        bad = [image(t[f.row[g] + h], k2) != s[f.row[ig] + ih] for t, s in tables]
        neg = f.negs[f.fib[x]] & f.negs[f.fib[y]] & (image(f.neg[x], dst[u1]) != f.neg[y])
        rows = np.concatenate([np.stack(bad, axis=1).ravel(), neg])
        first = _firsts(rows[:, None], np.concatenate([np.repeat(u2, 2), u1]), len(src))[:, 0]
        witness = lambda *v: "(" + ",".join(names[w] for w in v) + ")"
        return [
            None if r < 0 else (("meet", "join")[r % 2], witness(g[r // 2], h[r // 2]))
            if r < 2 * len(g) else ("neg", witness(x[r - 2 * len(g)]))
            for r in first.tolist()
        ]

    hom = failures(ta, tb, lambda x, k: route[x, k], ((f.meet, f.meet), (f.join, f.join)))
    hom = dict(zip(zip(ta.tolist(), tb.tolist()), hom))
    ident = _firsts((route[ar, f.fib] != ar)[:, None], f.fib, m)[:, 0]
    for i, j in system.transitions:
        a, b = at[i], at[j]
        if route[f.off[a], b] < 0:  # the flat form holds only maps
            return out + [f"transition {i}->{j} is not a map F({i}) -> F({j})"], f
        if i == j and ident[a] >= 0:
            out.append(f"transition {i}->{i} is not the identity")
        if hom[a, b]:
            op, where = hom[a, b]
            out.append(f"transition {i}->{j} not a {op}-homomorphism at {where}")

    # per j, over the k above it: p[j->k](p[i->j](g)) != p[i->k](g)
    fun: dict[tuple, int] = {}
    for b, above in enumerate(order):
        rows, cols = np.flatnonzero(up[:, b]), np.flatnonzero(above)
        bad = route[route[rows, b][:, None], cols] != route[rows[:, None], cols]
        for r, c in zip(*np.nonzero(bad)):
            fun.setdefault((f.fib[rows[r]], b, cols[c]), rows[r])
    for (a, b, c), g in sorted(fun.items()):
        i, j, k = els[a], els[b], els[c]
        out.append(f"functoriality fails: p[{j}->{k}] o p[{i}->{j}] != p[{i}->{k}] at {names[g]}")

    if set(system.dualisers) != set(els):
        return out + ["dualiser keys must be exactly the index elements"], f
    for a, i in enumerate(els):
        if d[f.off[a]] < 0:
            return out + [f"dualiser at {i} is not a map F({i}) -> F({els[idx.neg[a]]})"], f
    inverse = _firsts((d[d] != ar)[:, None], f.fib, m)[:, 0]
    own = np.arange(m)
    anti = failures(own, own, lambda x, k: d[x], ((f.meet, f.join), (f.join, f.meet)))
    for a, i in enumerate(els):
        ni = els[idx.neg[a]]
        if len(set(system.dualisers[i])) != fibres[i].size or fibres[i].size != fibres[ni].size:
            out.append(f"dualiser at {i} is not a bijection")
            continue
        if inverse[a] >= 0:
            out.append(f"dualiser at {ni} is not the inverse of the one at {i}")
        if anti[a]:
            where = anti[a][1]
            out.append(f"dualiser at {i} is not an isomorphism onto the dual (fails at {where})")

    # [g, j]: n[j](p[i->j](g)) != p[~i->~j](n[i](g)), where ~i <= ~j
    mirror = route[d][:, list(idx.neg)]
    eq = _firsts(up & (mirror >= 0) & (d[route] != mirror), f.fib, m)
    for (a, b), g in zip(np.argwhere(eq >= 0), eq[eq >= 0]):
        i, j, ni, nj = els[a], els[b], els[idx.neg[a]], els[idx.neg[b]]
        out.append(f"equivariance fails between {i}->{j} and {ni}->{nj} at {names[g]}")
    return out, f


def _assemble(system: InvSemilatticeSystem, name: str, negation: bool = True) -> FiniteAlgebra:
    # validated (without negation, less the dualiser complaints) on the flat
    # form f: meet[g, h] = M[rg[g, h], rg[h, g]], rg[g, h] = route[g, k] with
    # k the (commutative) index join of fib(g) and fib(h), read from the
    # fibres' tables at row[rg[g, h]] + rg[h, g]; join likewise, neg = dual
    problems, f = _violations(system)
    problems = [v for v in problems if negation or not v.startswith("dualiser")]
    if problems:
        raise ValidationError("invalid system:\n" + "\n".join("  - " + v for v in problems))
    k = system.index.arrays()[1][f.fib[:, None], f.fib]
    rg = np.take_along_axis(f.route, k, axis=1)
    at = f.row[rg] + rg.T
    names = [f"({i},{x})" for i in system.index.elements for x in system.fibres[i].elements]
    return FiniteAlgebra(name, names, f.meet[at], f.join[at], f.dual if negation else None)


def dpl_sum(system: InvSemilatticeSystem, name: str | None = None) -> FiniteAlgebra:
    """The sum algebra of a valid system, checked once on its flat form.

    Elements are named "(i,x)" for index element i and fibre element x; their
    order follows the index order, then the fibre order, as in the flat form.
    With k the index join of g's and h's fibres, the meet of g and h is the
    fibre meet of ``route[g, k]`` and ``route[h, k]``: three gathers per table.
    """
    return _assemble(system, name or f"DPl[{system.index.name}]")


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

    idx = FiniteAlgebra(index.name, index.elements, *index.arrays()[:2], np.arange(index.size))
    trans = {k: tuple(v) for k, v in transitions.items()}
    if withneg:
        stripped = {}
        duals = {}
        for i, F in fibres.items():
            if not is_class(F, "De Morgan lattice"):
                raise ValidationError(
                    f"fibre at {i} must be a De Morgan lattice to act as its own dualiser"
                )
            stripped[i] = FiniteAlgebra(F.name, F.elements, *F.arrays()[:2])
            duals[i] = F.neg
        system = InvSemilatticeSystem(idx, stripped, trans, duals)
        return dpl_sum(system, name=name)

    # negation-free: same routing, no dualisers.  Identity dualisers cannot
    # stand in (the identity is no isomorphism onto the dual), so validate
    # with them attached and discard exactly the dualiser complaints.
    duals = {i: tuple(range(F.size)) for i, F in fibres.items()}
    probe = InvSemilatticeSystem(idx, dict(fibres), trans, duals)
    return _assemble(probe, name or f"Pl[{index.name}]", negation=False)


def bilateralise(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Pairs (a,b) with coordinatewise meet/(dual) join and swap as negation.

    The first coordinate behaves like the algebra, the second like its dual:
    meet acts as (meet, join), join as (join, meet), negation swaps the two.
    """
    if algebra.neg is not None:
        raise ValidationError("bilateralisation applies to negation-free algebras")
    n = algebra.size
    pairs = product(algebra, dual(algebra))
    swap = np.arange(n * n).reshape(n, n).T.ravel()  # (i, j) -> (j, i)
    return FiniteAlgebra(f"Bl({algebra.name})", pairs.elements, *pairs.arrays()[:2], swap)


# ---------------------------------------------------------------------------
# random systems

def _all_homs(F: FiniteAlgebra, G: FiniteAlgebra) -> list[tuple[int, ...]]:
    # every homomorphism F -> G in lexicographic order
    return sorted(_homomorphisms(F, G, lambda g, f: range(G.size)))


def _compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


def _default_pools() -> tuple[list[FiniteAlgebra], list[FiniteAlgebra]]:
    from . import catalog  # deferred: catalog builds on sums

    basics, aux = catalog.build_basics(), catalog._auxiliary()
    indices = [basics["IS1"], basics["IS2"], basics["IS3"], basics["IS4"]]
    return indices, [aux["D1"], aux["D2"], aux["D2xD2"]]


#: most draws `random_system` makes before it gives up
MAX_ATTEMPTS = 500


def random_system(
    rng: random.Random,
    indices: Sequence[FiniteAlgebra] | None = None,
    fibre_pool: Sequence[FiniteAlgebra] | None = None,
) -> InvSemilatticeSystem:
    """A uniformly-seeded valid system (rejection sampling, at most
    ``MAX_ATTEMPTS`` draws).

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
    # each fibre with its dual, and the homomorphism lists between them,
    # kept in the fibres' memos: the default pools' fibres are built once
    pool = [(F, _memoised(F, dual)) for F in fibre_pool]

    def all_homs(F: FiniteAlgebra, G: FiniteAlgebra) -> list[tuple[int, ...]]:
        return _memoised(F, _all_homs, G)

    for _ in range(MAX_ATTEMPTS):
        idx = rng.choice(list(indices))
        els = idx.elements
        neg_of = {e: els[idx.neg[idx.index(e)]] for e in els}  # type: ignore[index]

        fibres: dict[str, FiniteAlgebra] = {}
        dualisers: dict[str, tuple[int, ...]] = {}
        stuck = False
        for e in els:
            if e in fibres:
                continue
            F, D = rng.choice(pool)
            if neg_of[e] == e:
                # involutions onto the dual, hence isomorphisms
                selfduals = [h for h in all_homs(F, D) if all(h[h[a]] == a for a in range(F.size))]
                if not selfduals:
                    stuck = True
                    break
                fibres[e] = F
                dualisers[e] = rng.choice(selfduals)
            else:
                fibres[e] = F
                fibres[neg_of[e]] = D
                ident = tuple(range(F.size))
                dualisers[e] = ident
                dualisers[neg_of[e]] = ident
        if stuck:
            continue

        at, order = {e: k for k, e in enumerate(els)}, _order(idx).tolist()
        leq = lambda i, j: order[at[i]][at[j]]
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
                homs = all_homs(fibres[i], fibres[j])
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
    raise RuntimeError(f"no valid system found in {MAX_ATTEMPTS} attempts")


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
