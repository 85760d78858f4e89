"""Tests for direct systems over involutive semilattices and their sums:
validation-with-witnesses, sum construction, bilateralisation, and the
balanced-regular preservation behaviour on randomly generated systems.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import finalg, sums
from dmbl.catalog import build_basics, build_U_system, entry, get_algebra
from dmbl.decomp import decompose
from dmbl.finalg import (
    FiniteAlgebra,
    ValidationError,
    dual,
    is_class,
    is_isomorphic,
    power,
    product,
    satisfies,
    subalgebra_generated,
)
from dmbl.sums import (
    InvSemilatticeSystem,
    _all_homs,
    bilateralise,
    dpl_sum,
    plonka_sum,
    random_system,
    system_from_json,
    system_to_json,
    validate,
)
from dmbl.sweep import (
    enumerate_terms,
    partition_ids,
    random_identity,
    refines,
    signatures,
    term_index,
    theory_partition,
)
from dmbl.terms import parse, variables


BASICS = build_basics()
D1, D2 = BASICS["D1"], BASICS["D2"]


def a5_system() -> InvSemilatticeSystem:
    d2 = D2
    dual_d2 = FiniteAlgebra("D2^op", d2.elements, d2.join, d2.meet, None)
    return InvSemilatticeSystem(
        index=BASICS["IS3"],
        fibres={"i": d2, "ni": dual_d2, "j": D1},
        transitions={
            ("i", "i"): (0, 1),
            ("ni", "ni"): (0, 1),
            ("j", "j"): (0,),
            ("i", "j"): (0, 0),
            ("ni", "j"): (0, 0),
        },
        dualisers={"i": (0, 1), "ni": (0, 1), "j": (0,)},
    )


# ------------------------------------------------------------------ validation


def _hom_failure(A, B, f):
    # where the map f: A -> B first fails to be a homomorphism: pairs row by
    # row, meet before join, then neg when both algebras have one
    for a in range(A.size):
        for b in range(A.size):
            for op, at, bt in (("meet", A.meet, B.meet), ("join", A.join, B.join)):
                if f[at[a][b]] != bt[f[a]][f[b]]:
                    return op, (a, b)
    if A.neg is not None and B.neg is not None:
        for a in range(A.size):
            if f[A.neg[a]] != B.neg[f[a]]:
                return "neg", (a,)
    return None


def _validate_by_loop(system):
    # the axioms one map, one pair and one element at a time; fibres are
    # checked on copies, so a verdict `validate` memoised is not read back
    out = []
    idx = system.index
    if idx.neg is None:
        return ["index has no negation"]
    if not is_class(idx.rename(idx.name), "involutive semilattice"):
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
        if not is_class(F.rename(F.name), "distributive lattice"):
            out.append(f"fibre at {i} is not a distributive lattice")

    le = [[row[b] == b for b in range(idx.size)] for row in idx.join]
    pairs = [(els[a], els[b]) for a, row in enumerate(le) for b, x in enumerate(row) if x]
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
        failure = _hom_failure(Fi, Fj, p)
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
        failure = _hom_failure(Fi, dual(Fni), n)
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


def _assemble_by_loop(idx, fibres, transitions, dualisers, name):
    # the sum's tables one pair of elements at a time
    els = idx.elements
    offsets, names, fib_of, local = {}, [], [], []
    for i in els:
        offsets[i] = len(names)
        for a, nm in enumerate(fibres[i].elements):
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
            a = transitions[(i, k)][local[g]]
            b = transitions[(j, k)][local[h]]
            meet[g][h] = offsets[k] + fibres[k].meet[a][b]
            join[g][h] = offsets[k] + fibres[k].join[a][b]
    neg = None
    if dualisers is not None:
        neg = [0] * n
        for g in range(n):
            ni = els[idx.neg[jidx[fib_of[g]]]]
            neg[g] = offsets[ni] + dualisers[fib_of[g]][local[g]]
    return FiniteAlgebra(name, names, meet, join, neg)


def test_a5_and_u_systems_are_valid():
    assert validate(a5_system()) == []
    assert validate(build_U_system()) == []


def test_validate_reports_broken_dualiser():
    sys_ = a5_system()
    bad = dataclasses.replace(sys_, dualisers={**sys_.dualisers, "i": (1, 0)})
    msgs = validate(bad)
    assert msgs and any("dualiser" in m for m in msgs)


def test_validate_reports_short_dualiser_before_reading_it():
    # the inverse check at j reads the dualiser at nj, so every dualiser's
    # shape is checked first
    u = build_U_system()
    bad = dataclasses.replace(u, dualisers={**u.dualisers, "nj": u.dualisers["nj"][:1]})
    assert validate(bad) == ["dualiser at nj is not a map F(nj) -> F(j)"]


def test_validate_reports_broken_functoriality():
    # a 3-chain index (identity negation) with D2 fibres and identity
    # transitions, then corrupt the composite c0 -> c2
    chain = FiniteAlgebra(
        "C3",
        ("c0", "c1", "c2"),
        ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        neg=(0, 1, 2),
    )
    ident = (0, 1)
    swap = (1, 0)
    sys_ = InvSemilatticeSystem(
        index=chain,
        fibres={"c0": D2, "c1": D2, "c2": D2},
        transitions={
            ("c0", "c0"): ident, ("c1", "c1"): ident, ("c2", "c2"): ident,
            ("c0", "c1"): ident, ("c1", "c2"): ident, ("c0", "c2"): ident,
        },
        dualisers={"c0": swap, "c1": swap, "c2": swap},
    )
    assert validate(sys_) == []
    bad_trans = dict(sys_.transitions)
    bad_trans[("c0", "c2")] = (0, 0)
    bad = dataclasses.replace(sys_, transitions=bad_trans)
    msgs = validate(bad)
    assert any("functorial" in m and "c0" in m and "c2" in m for m in msgs)


def test_validate_reports_the_missing_composite_of_a_non_transitive_index():
    # a <= b <= c but not a <= c, so there is no p[a->c] to compare with
    # p[b->c] o p[a->b]; looking it up used to raise KeyError
    join = ((0, 1, 0), (1, 1, 2), (0, 2, 2))
    idx = FiniteAlgebra("X", ("a", "b", "c"), join, join, (0, 1, 2))
    pairs = InvSemilatticeSystem(idx, {}).comparable_pairs()
    fibres, dualisers = dict.fromkeys(idx.elements, D1), dict.fromkeys(idx.elements, (0,))
    system = InvSemilatticeSystem(idx, fibres, dict.fromkeys(pairs, (0,)), dualisers)
    assert validate(system) == [
        "index is not an involutive semilattice",
        "functoriality fails: p[b->c] o p[a->b] != p[a->c] at 0",
        "functoriality fails: p[c->a] o p[b->c] != p[b->a] at 0",
        "functoriality fails: p[a->b] o p[c->a] != p[c->b] at 0",
    ]


def test_validate_reports_non_identity_p_ii():
    sys_ = a5_system()
    bad_trans = dict(sys_.transitions)
    bad_trans[("i", "i")] = (0, 0)
    bad = dataclasses.replace(sys_, transitions=bad_trans)
    assert any("identity" in m for m in validate(bad))


def test_validate_reports_non_hom_transition():
    u = build_U_system()
    bad_trans = dict(u.transitions)
    bad_trans[("i", "j")] = (0, 1, 1, 0)  # not monotone, not a hom
    bad = dataclasses.replace(u, transitions=bad_trans)
    msgs = validate(bad)
    assert msgs  # either the hom check or equivariance flags it
    assert any("hom" in m or "equivariance" in m for m in msgs)


@pytest.mark.parametrize(
    "p, message",
    [
        ((0, 1, 1, 0), "transition i->j not a meet-homomorphism at ((0,1),(1,0))"),
        ((0, 0, 0, 1), "transition i->j not a join-homomorphism at ((0,1),(1,0))"),
    ],
)
def test_validate_names_first_failing_operation_of_a_transition(p, message):
    u = build_U_system()
    bad = dataclasses.replace(u, transitions={**u.transitions, ("i", "j"): p})
    assert validate(bad)[0] == message


def test_validate_reports_dualiser_that_is_no_anti_isomorphism():
    # the identity on the self-dual fibre at i is its own inverse, but it
    # sends meets to meets
    u = build_U_system()
    bad = dataclasses.replace(u, dualisers={**u.dualisers, "i": (0, 1, 2, 3)})
    assert validate(bad)[0] == (
        "dualiser at i is not an isomorphism onto the dual (fails at ((0,0),(0,1)))"
    )


def test_validate_reports_bad_index():
    sys_ = a5_system()
    bad = dataclasses.replace(sys_, index=get_algebra("DM4"))
    assert any("involutive semilattice" in m for m in validate(bad))


def test_validate_reports_non_lattice_fibre():
    # a fibre whose meet is not even commutative
    broken = FiniteAlgebra("nc", ("0", "1"), ((0, 1), (0, 1)), ((0, 1), (1, 1)))
    sys_ = a5_system()
    bad = dataclasses.replace(sys_, fibres={**sys_.fibres, "j": broken})
    bad = dataclasses.replace(
        bad,
        transitions={**bad.transitions, ("j", "j"): (0, 1), ("i", "j"): (0, 0),
                     ("ni", "j"): (0, 0)},
        dualisers={**bad.dualisers, "j": (0, 1)},
    )
    assert any("distributive lattice" in m for m in validate(bad))


def test_validate_reports_an_index_without_negation():
    sys_ = a5_system()
    idx = sys_.index
    bare = FiniteAlgebra(idx.name, idx.elements, *idx.arrays()[:2])
    assert validate(dataclasses.replace(sys_, index=bare)) == ["index has no negation"]


def test_validate_ends_with_a_dualiser_key_mismatch():
    # the transition failures before it are kept; no dualiser is read after it
    sys_ = a5_system()
    bad = dataclasses.replace(
        sys_,
        transitions={**sys_.transitions, ("i", "i"): (1, 0)},
        dualisers={"i": (0, 1), "ni": (0, 1)},
    )
    msgs = validate(bad)
    assert msgs[0] == "transition i->i is not the identity"
    assert msgs[-1] == "dualiser keys must be exactly the index elements"


def test_comparable_pairs_follow_the_index_order():
    for name in ("IS1", "IS2", "IS3", "IS4"):
        s = InvSemilatticeSystem(BASICS[name], {})
        els = s.index.elements
        assert s.comparable_pairs() == [(i, j) for i in els for j in els if s.leq(i, j)]


def test_leq_reads_the_index_order():
    # a <= b iff a \/ b = b, read off the index's memoised order matrix as
    # a Python bool; an element the index lacks is named in the error
    for name in ("IS3", "IS4"):
        s = InvSemilatticeSystem(BASICS[name], {})
        idx = s.index
        for i, j in itertools.product(idx.elements, repeat=2):
            leq = s.leq(i, j)
            assert type(leq) is bool
            assert leq == (idx.join[idx.index(i)][idx.index(j)] == idx.index(j))
        top = idx.elements[0]
        for args in (("nope", top), (top, "nope")):
            with pytest.raises(ValidationError, match="no element named 'nope'"):
                s.leq(*args)


def test_dpl_sum_of_a_validated_system_evaluates_nothing(monkeypatch):
    # the class verdicts of the index and fibres are kept in their memos
    system = system_from_json(system_to_json(build_U_system()))
    u = get_algebra("U")
    assert validate(system) == []
    scans = []
    monkeypatch.setattr(finalg, "_scan", lambda *args: scans.append(args))
    summed = dpl_sum(system)
    assert scans == []
    assert is_isomorphic(summed, u)


def test_validate_runs_two_evaluations_and_builds_no_dual(monkeypatch):
    # on a fresh copy of the system of U x U: the index's class check and one
    # run over all the fibres; no dual algebra is built
    u = get_algebra("U")
    system = system_from_json(system_to_json(decompose(product(u, u))))
    calls = collections.Counter()
    run = finalg._run

    def counted(*args, **kwargs):
        calls["_run"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(finalg, "_run", counted)
    for module in (finalg, sums):
        monkeypatch.setattr(module, "dual", lambda *args: calls.update(["dual"]))
    assert validate(system) == []
    assert calls == {"_run": 2}


@pytest.mark.parametrize("block", [1, 27, 64, 1 << 20])
def test_fibre_verdicts_do_not_depend_on_the_batch(block, monkeypatch):
    # fibres past the batch's bound are checked alone; one that fails sends
    # every fibre of its batch to `is_class`, which must name only it
    nc = FiniteAlgebra("nc", ("0", "1"), ((0, 1), (0, 1)), ((0, 1), (1, 1)))
    d3 = FiniteAlgebra("D3", ("0", "1", "2"), ((0, 0, 0), (0, 1, 1), (0, 1, 2)),
                       ((0, 1, 2), (1, 1, 2), (2, 2, 2)))
    fibres = [D1, D2, nc, d3, product(D2, D2), finalg.dual(D2), D2]
    copies = [F.rename(F.name) for F in fibres]
    monkeypatch.setattr(finalg, "_BLOCK", block)
    finalg._check_fibres(copies)
    assert [is_class(F, "distributive lattice") for F in copies] == [
        is_class(F.rename(F.name), "distributive lattice") for F in fibres
    ] == [True, True, False, True, True, True, True]


def test_dpl_sum_refuses_invalid_system():
    sys_ = a5_system()
    bad = dataclasses.replace(sys_, dualisers={**sys_.dualisers, "i": (1, 0)})
    with pytest.raises(ValidationError):
        dpl_sum(bad)


# ------------------------------------------------------------------- dpl_sum


def test_trivial_fibres_over_is4_give_is4():
    is4 = BASICS["IS4"]
    elems = is4.elements
    leq = [
        (i, j)
        for i in elems
        for j in elems
        if is4.join[is4.index(i)][is4.index(j)] == is4.index(j)
    ]
    sys_ = InvSemilatticeSystem(
        index=is4,
        fibres={e: D1 for e in elems},
        transitions={pair: (0,) for pair in leq},
        dualisers={e: (0,) for e in elems},
    )
    s = dpl_sum(sys_)
    assert is_isomorphic(s, is4) is not None


def test_single_d2_fibre_over_is1_with_swap_is_b2():
    sys_ = InvSemilatticeSystem(
        index=BASICS["IS1"],
        fibres={"i": D2},
        transitions={("i", "i"): (0, 1)},
        dualisers={"i": (1, 0)},
    )
    s = dpl_sum(sys_)
    assert is_isomorphic(s, BASICS["B2"]) is not None


def test_u_sum_matches_catalog():
    u = dpl_sum(build_U_system())
    assert u.size == 9
    bottom = [x for x in u.elements if x.startswith("(i,")]
    sub, _ = subalgebra_generated(u, bottom)
    assert is_isomorphic(sub, BASICS["DM4"]) is not None


def test_a5_sum_is_catalog_a5():
    assert is_isomorphic(dpl_sum(a5_system()), entry("A5").algebra) is not None


# ---------------------------------------------------------------- plonka_sum


def test_plonka_with_de_morgan_fibres_gives_dagger():
    b2 = BASICS["B2"]
    is2 = BASICS["IS2"]
    point = FiniteAlgebra("pt", ("0",), ((0,),), ((0,),), neg=(0,))
    sys_fibres = {"i": b2, "j": point}
    transitions = {("i", "i"): (0, 1), ("j", "j"): (0,), ("i", "j"): (0, 0)}
    s = plonka_sum(is2, sys_fibres, transitions)
    assert is_isomorphic(s, entry("B2+").algebra) is not None


def test_plonka_neg_free_trivial_fibres_over_is2():
    is2 = BASICS["IS2"]
    s = plonka_sum(
        is2,
        {"i": D1, "j": D1},
        {("i", "i"): (0,), ("j", "j"): (0,), ("i", "j"): (0,)},
    )
    assert s.neg is None
    reduct = FiniteAlgebra("2chain", is2.elements, is2.meet, is2.join)
    assert is_isomorphic(s, reduct) is not None


def test_plonka_rejects_index_with_real_negation():
    is3 = BASICS["IS3"]
    with pytest.raises(ValidationError):
        plonka_sum(
            is3,
            {"i": D1, "ni": D1, "j": D1},
            {
                ("i", "i"): (0,), ("ni", "ni"): (0,), ("j", "j"): (0,),
                ("i", "j"): (0,), ("ni", "j"): (0,),
            },
        )


def test_plonka_rejects_mixed_fibres():
    is2 = BASICS["IS2"]
    with pytest.raises(ValidationError):
        plonka_sum(
            is2,
            {"i": BASICS["B2"], "j": D1},  # one fibre with neg, one without
            {("i", "i"): (0, 1), ("j", "j"): (0,), ("i", "j"): (0, 0)},
        )


def test_plonka_rejects_a_negation_that_is_no_de_morgan_negation():
    # D2 with the identity as negation: ~(0 /\ 1) = 0 but ~0 \/ ~1 = 1
    d2 = FiniteAlgebra("D2id", D2.elements, D2.meet, D2.join, neg=(0, 1))
    point = FiniteAlgebra("pt", ("0",), ((0,),), ((0,),), neg=(0,))
    with pytest.raises(
        ValidationError, match="fibre at i must be a De Morgan lattice to act as its own dualiser"
    ):
        plonka_sum(
            BASICS["IS2"],
            {"i": d2, "j": point},
            {("i", "i"): (0, 1), ("j", "j"): (0,), ("i", "j"): (0, 0)},
        )


def test_plonka_preserves_regular_identities_from_fibres():
    # neg-free sum of D2 and D1 over the 2-chain
    is2 = BASICS["IS2"]
    s = plonka_sum(
        is2,
        {"i": D2, "j": D1},
        {("i", "i"): (0, 1), ("j", "j"): (0,), ("i", "j"): (0, 0)},
    )
    rng = random.Random(603)
    checked = 0
    while checked < 30:
        e = random_identity(rng, max_depth=3, num_vars=2)
        if any(str(t).count("~") for t in (e.lhs, e.rhs)):
            continue
        if variables(e.lhs) != variables(e.rhs):
            continue  # regular identities only
        checked += 1
        if satisfies(D2, e):
            assert satisfies(s, e), str(e)


# -------------------------------------------------------------- bilateralise


def test_bilateralise_examples():
    assert is_isomorphic(bilateralise(D2), BASICS["DM4"]) is not None
    assert is_isomorphic(bilateralise(D1), BASICS["IS1"]) is not None
    from dmbl.finalg import product

    assert bilateralise(product(D2, D2)).size == 16


def test_bilateralise_swaps_coordinates():
    b = bilateralise(D2)
    i = b.index("(1,0)")
    assert b.elements[b.neg[i]] == "(0,1)"
    # meet acts as (meet, join)
    x, y = b.index("(1,0)"), b.index("(0,1)")
    assert b.elements[b.meet[x][y]] == "(0,1)"
    assert b.elements[b.join[x][y]] == "(1,0)"


def test_bilateralise_rejects_neg_carrier():
    with pytest.raises(ValidationError):
        bilateralise(BASICS["B2"])


# ---------------------------------------------------- random systems and sums


def test_random_system_is_deterministic_per_seed():
    s1 = random_system(random.Random(42))
    s2 = random_system(random.Random(42))
    assert system_to_json(s1) == system_to_json(s2)


def _fresh_product_pools():
    # new objects on every call, so ids freed by one draw recur in the next
    b = BASICS
    indices = [
        product(b[i], b[j])
        for i, j in (("IS3", "IS2"), ("IS4", "IS2"), ("IS3", "IS3"), ("IS4", "IS3"))
    ]
    return indices, [D2, product(D2, D2)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_all_homs_lists_every_homomorphism_in_order(data):
    # the search prunes generator placements that no homomorphism extends;
    # it must list exactly the maps a plain scan in lexicographic order
    # accepts.  Law-free tables, the left projection (every map preserves
    # it) or small lattices, each with or without negation
    def algebra(name):
        n = data.draw(st.integers(1, 4))
        cell = st.integers(0, n - 1)
        table = st.one_of(
            st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n),
            st.just([[x] * n for x in range(n)]),
        )
        neg = data.draw(st.one_of(st.none(), st.permutations(range(n))))
        return FiniteAlgebra(name, [str(i) for i in range(n)], data.draw(table), data.draw(table), neg)

    lattices = [D1, D2, product(D2, D2), BASICS["DM4"]]
    F, G = (
        data.draw(st.sampled_from(lattices)) if data.draw(st.booleans()) else algebra(name)
        for name in "FG"
    )
    expected = [
        f
        for f in itertools.product(range(G.size), repeat=F.size)
        if _hom_failure(F, G, f) is None
    ]
    assert _all_homs(F, G) == expected


def test_random_systems_keep_the_default_pools_homomorphisms(monkeypatch):
    # the default fibre pool's D2xD2 is the catalog's, built once, so the
    # fibres' duals and the homomorphism lists between them stay in their
    # memos: once 200 draws have made them, 200 more compute none and give
    # the same systems
    assert sums._default_pools()[1][2] is get_algebra("D2xD2")
    first = [system_to_json(random_system(random.Random(s))) for s in range(200)]
    computed = []
    search = sums._homomorphisms
    monkeypatch.setattr(sums, "_homomorphisms", lambda *args: computed.append(args) or search(*args))
    assert [system_to_json(random_system(random.Random(s))) for s in range(200)] == first
    assert computed == []


def test_random_system_with_fresh_pools_validates():
    for seed in (11, 12, 13):
        for _ in range(3):
            sys_ = random_system(random.Random(seed), *_fresh_product_pools())
            assert validate(sys_) == []


def _corrupted(data, system):
    # 0-3 corruptions: a map entry set to -1, to |F| or to another element; a
    # fibre table entry changed; a transition dropped or added; a dualiser
    # made non-bijective; p[i->i] altered; a fibre given a negation
    idx = system.index
    neg_of = {e: idx.elements[idx.neg[k]] for k, e in enumerate(idx.elements)}
    fibres = dict(system.fibres)
    trans = {k: list(v) for k, v in system.transitions.items()}
    duals = {k: list(v) for k, v in system.dualisers.items()}
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        kinds = ["entry", "fibre", "negate", "drop", "add", "collapse", "identity"]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "entry":
            maps = data.draw(st.sampled_from([m for m in (trans, duals) if m]))
            key = data.draw(st.sampled_from(sorted(maps)))
            target = fibres[key[1] if maps is trans else neg_of[key]]
            at = data.draw(st.integers(0, len(maps[key]) - 1))
            maps[key][at] = data.draw(st.sampled_from([-1, target.size, *range(target.size)]))
        elif kind == "fibre":
            i = data.draw(st.sampled_from(sorted(fibres)))
            F = fibres[i]
            tables = [[list(r) for r in F.meet], [list(r) for r in F.join]]
            x, y, v = (data.draw(st.integers(0, F.size - 1)) for _ in range(3))
            data.draw(st.sampled_from(tables))[x][y] = v
            fibres[i] = FiniteAlgebra(F.name, F.elements, *tables)
        elif kind == "negate":
            i = data.draw(st.sampled_from(sorted(fibres)))
            F = fibres[i]
            neg = data.draw(st.permutations(range(F.size)))
            fibres[i] = FiniteAlgebra(F.name, F.elements, F.meet, F.join, neg)
        elif kind == "drop":
            if trans:
                trans.pop(data.draw(st.sampled_from(sorted(trans))))
        elif kind == "add":
            i, j = (data.draw(st.sampled_from(idx.elements)) for _ in "ij")
            trans.setdefault((j, i), [0] * fibres[j].size)
        elif kind == "collapse":
            i = data.draw(st.sampled_from(sorted(duals)))
            duals[i] = [0] * len(duals[i])
        else:
            i = data.draw(st.sampled_from(idx.elements))
            if (i, i) in trans:
                p = trans[(i, i)]
                at = data.draw(st.integers(0, len(p) - 1))
                p[at] = data.draw(st.integers(0, fibres[i].size - 1))
    return InvSemilatticeSystem(
        idx,
        fibres,
        {k: tuple(v) for k, v in trans.items()},
        {k: tuple(v) for k, v in duals.items()},
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_and_the_sums_match_the_loop_oracles(data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    pools = _fresh_product_pools() if data.draw(st.booleans(), label="fresh pools") else ()
    system = _corrupted(data, random_system(rng, *pools))
    expected = _validate_by_loop(system)
    assert validate(system) == expected
    # again, now reading the fibre verdicts the first call kept
    assert validate(system) == expected
    if expected:
        return
    idx, fibres, trans = system.index, system.fibres, system.transitions
    summed = dpl_sum(system)
    loop = _assemble_by_loop(idx, fibres, trans, system.dualisers, summed.name)
    assert (summed.elements, summed.meet, summed.join, summed.neg) == (
        loop.elements, loop.meet, loop.join, loop.neg
    )
    # the negation-free sum over the same index, read as a plain semilattice
    plain = FiniteAlgebra(idx.name, idx.elements, idx.meet, idx.join)
    summed = plonka_sum(plain, fibres, trans)
    loop = _assemble_by_loop(plain, fibres, trans, None, summed.name)
    assert (summed.elements, summed.meet, summed.join, summed.neg) == (
        loop.elements, loop.meet, loop.join, None
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validate_does_not_depend_on_the_row_bound(data):
    # a bound of a few rows splits the map checks down to one map at a time
    # and checks most fibres one by one
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    system = _corrupted(data, random_system(rng, *_fresh_product_pools()))
    expected = _validate_by_loop(system)
    bound = data.draw(st.sampled_from([1, 4, 64]), label="bound")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finalg, "_BLOCK", bound)
        mp.setattr(sums, "_BATCH", bound)
        assert validate(system) == expected


def test_validate_holds_the_fibres_tables_not_the_sums():
    # 243 fibres D2^4 over IS3^5, identity transitions and complements as
    # dualisers: N = 3888 elements, so the N x N tables of the sum would take
    # 29 MiB each as int16; the fibres' own tables take 0.5 MiB.  Holding
    # the sum's tables, validate peaked at 126 MiB here
    index = power(get_algebra("IS3"), 5)
    F = power(get_algebra("D2"), 4)
    complement = tuple(range(F.size))[::-1]
    system = InvSemilatticeSystem(index, {i: F for i in index.elements}, {}, {})
    system.transitions = {p: tuple(range(F.size)) for p in system.comparable_pairs()}
    system.dualisers = {i: complement for i in index.elements}
    tracemalloc.start()
    try:
        problems = validate(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problems == []
    assert len(system.transitions) == 3125
    assert peak < 48 * 2**20


@pytest.mark.parametrize("seed", range(12))
def test_random_systems_validate_and_sum_to_dmbl(seed):
    sys_ = random_system(random.Random(seed))
    assert validate(sys_) == []
    s = dpl_sum(sys_)
    assert is_class(s, "De Morgan bisemilattice")


@pytest.mark.parametrize("seed", range(8))
def test_fixpoint_fibre_is_subalgebra(seed):
    sys_ = random_system(random.Random(seed))
    s = dpl_sum(sys_)
    idx = sys_.index
    for i, e in enumerate(idx.elements):
        if idx.elements[idx.neg[i]] != e:
            continue
        members = [x for x in s.elements if x.startswith(f"({e},")]
        sub, inc = subalgebra_generated(s, members)
        assert len(inc) == len(members)  # closed as-is
        assert is_class(sub, "De Morgan bisemilattice")


# ------------------------------------- balanced-regular preservation (sampled)


TERMS = enumerate_terms()
SIG = signatures(TERMS)
_FIBRE_CACHE: dict = {}


def _flat_partition(algebra):
    key = (algebra.meet, algebra.join, algebra.neg)
    if key not in _FIBRE_CACHE:
        _FIBRE_CACHE[key] = theory_partition(algebra, term_index())
    return _FIBRE_CACHE[key]


@pytest.mark.parametrize("seed", range(10))
def test_balanced_regular_identities_lift_from_bilateralised_fibres(seed):
    sys_ = random_system(random.Random(1000 + seed))
    s = dpl_sum(sys_)
    p_sum = theory_partition(s, term_index())
    fibre_parts = [
        _flat_partition(bilateralise(f)).tolist() for f in sys_.fibres.values()
    ]
    combined = partition_ids(
        [
            ((p, m), *(fp[i] for fp in fibre_parts))
            for i, (_, p, m) in enumerate(SIG)
        ]
    )
    assert refines(combined, p_sum)


def test_non_balanced_regular_identities_fail_when_index_is_is4():
    found = 0
    for seed in range(200):
        sys_ = random_system(random.Random(5000 + seed))
        if sys_.index.name != "IS4":
            continue
        found += 1
        s = dpl_sum(sys_)
        p_sum = theory_partition(s, term_index())
        p_br = partition_ids([(p, m) for _, p, m in SIG])
        # sum's theory only contains balanced regular identities
        assert refines(p_sum, p_br)
        if found >= 4:
            break
    assert found >= 4


# ------------------------------------------------------------------------ JSON


def test_system_json_round_trip():
    for sys_ in (a5_system(), build_U_system(), random_system(random.Random(3))):
        blob = system_to_json(sys_)
        back = system_from_json(blob)
        assert system_to_json(back) == blob
        assert validate(back) == []


def test_system_json_shape():
    blob = system_to_json(build_U_system())
    assert set(blob) == {"index", "fibres", "transitions", "dualisers"}
    assert "i<=j" in blob["transitions"]


def test_system_json_rejects_a_transition_key_without_leq():
    blob = system_to_json(a5_system())
    blob["transitions"]["i<j"] = blob["transitions"].pop("i<=j")
    with pytest.raises(ValidationError, match="bad transition key 'i<j', expected 'i<=j'"):
        system_from_json(blob)


def test_system_file_round_trip(tmp_path):
    from dmbl.sums import load_system, save_system

    path = tmp_path / "sys.json"
    save_system(a5_system(), path)
    back = load_system(path)
    assert system_to_json(back) == system_to_json(a5_system())
