"""Tests for direct systems over involutive semilattices and their sums:
validation-with-witnesses, sum construction, bilateralisation, and the
balanced-regular preservation behaviour on randomly generated systems.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import finalg
from dmbl.catalog import build_basics, build_U_system, entry, get_algebra
from dmbl.finalg import (
    FiniteAlgebra,
    ValidationError,
    homomorphism_failure,
    is_class,
    is_isomorphic,
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


def test_comparable_pairs_follow_the_index_order():
    for name in ("IS1", "IS2", "IS3", "IS4"):
        s = InvSemilatticeSystem(BASICS[name], {})
        els = s.index.elements
        assert s.comparable_pairs() == [(i, j) for i in els for j in els if s.leq(i, j)]


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
        if homomorphism_failure(F, G, f) is None
    ]
    assert _all_homs(F, G) == expected


def test_random_system_with_fresh_pools_validates():
    for seed in (11, 12, 13):
        for _ in range(3):
            sys_ = random_system(random.Random(seed), *_fresh_product_pools())
            assert validate(sys_) == []


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


def test_system_file_round_trip(tmp_path):
    from dmbl.sums import load_system, save_system

    path = tmp_path / "sys.json"
    save_system(a5_system(), path)
    back = load_system(path)
    assert system_to_json(back) == system_to_json(a5_system())
