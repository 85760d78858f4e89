"""Tests for the canonical algebra catalog: the 11 subdirectly irreducible
De Morgan bisemilattices, the dagger construction, A5, and U.
"""

from __future__ import annotations

import pytest

from dmbl.catalog import (
    CATALOG_NAMES,
    build_A5,
    build_basics,
    build_U,
    build_U_system,
    catalog_entries,
    dagger,
    entry,
    get_algebra,
    known_algebra_names,
)
from dmbl.finalg import (
    ValidationError,
    congruences,
    is_class,
    is_isomorphic,
    is_subdirectly_irreducible,
    product,
    quotient,
    satisfies,
    subalgebra_generated,
)
from dmbl.sums import validate
from dmbl.terms import parse, parse_term
from oracles import eval_term


BASICS = build_basics()


def test_names_and_indices():
    assert CATALOG_NAMES == (
        "IS1", "B2", "K3", "DM4", "IS2", "B2+", "K3+", "DM4+", "IS3", "A5", "IS4",
    )
    for i, name in enumerate(CATALOG_NAMES, start=1):
        e = entry(i)
        assert e.index == i and e.name == name
        assert entry(name) is e


def test_every_entry_is_si_dmbl():
    for e in catalog_entries():
        assert is_class(e.algebra, "De Morgan bisemilattice"), e.name
        assert is_subdirectly_irreducible(e.algebra), e.name


def test_entry_sizes():
    sizes = {e.name: e.algebra.size for e in catalog_entries()}
    assert sizes == {
        "IS1": 1, "B2": 2, "K3": 3, "DM4": 4, "IS2": 2, "B2+": 3,
        "K3+": 4, "DM4+": 5, "IS3": 3, "A5": 5, "IS4": 4,
    }


# ------------------------------------------------------------------ the basics


def test_dm4_table_values():
    dm4 = BASICS["DM4"]
    assert eval_term(dm4, parse_term("x /\\ y"), {"x": "T", "y": "B"}) == "f"
    assert eval_term(dm4, parse_term("x \\/ y"), {"x": "T", "y": "B"}) == "t"
    assert eval_term(dm4, parse_term("~x"), {"x": "T"}) == "T"
    assert eval_term(dm4, parse_term("~x"), {"x": "B"}) == "B"
    assert eval_term(dm4, parse_term("~x"), {"x": "t"}) == "f"


def test_is3_and_is2_diagram_values():
    is3 = BASICS["IS3"]
    assert eval_term(is3, parse_term("x \\/ ~x"), {"x": "i"}) == "j"
    is2 = BASICS["IS2"]
    assert eval_term(is2, parse_term("~x"), {"x": "i"}) == "i"
    # involutive semilattices realize meet = join
    for name in ("IS1", "IS2", "IS3", "IS4"):
        a = BASICS[name]
        assert a.meet == a.join


def test_k3_is_subalgebra_of_dm4():
    sub, _ = subalgebra_generated(BASICS["DM4"], ["T", "f"])
    assert is_isomorphic(sub, BASICS["K3"]) is not None


def test_is4_negation_swaps_middles():
    is4 = BASICS["IS4"]
    assert eval_term(is4, parse_term("~x"), {"x": "j"}) == "nj"
    assert eval_term(is4, parse_term("~x"), {"x": "i"}) == "i"
    assert eval_term(is4, parse_term("~x"), {"x": "k"}) == "k"
    # diamond: j and nj are incomparable, i below, k on top
    assert eval_term(is4, parse_term("x /\\ y"), {"x": "j", "y": "nj"}) == "k"


# --------------------------------------------------------------------- dagger


def test_dagger_requires_de_morgan_lattice():
    with pytest.raises(ValidationError):
        dagger(BASICS["IS2"])


def test_dagger_adds_one_absorbing_fixpoint():
    for base in ("B2", "K3", "DM4"):
        a = BASICS[base]
        d = dagger(a)
        assert d.size == a.size + 1
        new = [x for x in d.elements if x.startswith("(j,")]
        assert len(new) == 1
        c = new[0]
        ci = d.index(c)
        assert d.neg[ci] == ci
        for x in range(d.size):
            assert d.meet[ci][x] == ci and d.meet[x][ci] == ci
            assert d.join[ci][x] == ci and d.join[x][ci] == ci


def test_dagger_image_is_subalgebra():
    a = BASICS["DM4"]
    d = dagger(a)
    image = [x for x in d.elements if x.startswith("(i,")]
    sub, _ = subalgebra_generated(d, image)
    assert is_isomorphic(sub, a) is not None


def test_dagger_matches_catalog_entries():
    assert is_isomorphic(dagger(BASICS["B2"]), entry("B2+").algebra) is not None
    assert is_isomorphic(dagger(BASICS["K3"]), entry("K3+").algebra) is not None
    assert is_isomorphic(dagger(BASICS["DM4"]), entry("DM4+").algebra) is not None


def test_dagger_is_quotient_of_product_with_is2():
    # collapse the top fibre of A x IS2 onto one point
    a = BASICS["DM4"]
    p = product(a, BASICS["IS2"])
    for c in congruences(p):
        q = quotient(p, c)
        if q.size == 5 and is_isomorphic(q, entry("DM4+").algebra):
            return
    pytest.fail("no congruence of DM4 x IS2 yields DM4+")


# ------------------------------------------------------------------------- A5


def test_a5_element_order_and_ops():
    a5 = build_A5()
    assert a5.elements == ("a", "b", "na", "nb", "u")
    assert eval_term(a5, parse_term("x /\\ y"), {"x": "a", "y": "b"}) == "b"
    assert eval_term(a5, parse_term("x \\/ y"), {"x": "a", "y": "b"}) == "a"
    assert eval_term(a5, parse_term("~x"), {"x": "a"}) == "na"
    assert eval_term(a5, parse_term("~x"), {"x": "u"}) == "u"


def test_a5_satisfies_bipolar_collapse_but_not_absorption():
    a5 = entry("A5").algebra
    assert satisfies(a5, parse("x /\\ ~x = y \\/ ~y"))
    res = satisfies(a5, parse("x = x /\\ (x \\/ y)"))
    assert not res


def test_is3_is_subalgebra_of_a5():
    a5 = entry("A5").algebra
    sub, _ = subalgebra_generated(a5, ["a", "u"])
    assert sorted(sub.elements) == ["a", "na", "u"]
    assert is_isomorphic(sub, BASICS["IS3"]) is not None


def test_a5_is_quotient_of_subalgebra_of_b2_x_is3():
    p = product(BASICS["B2"], BASICS["IS3"])
    a5 = entry("A5").algebra
    subs = set()
    import itertools

    for seed in itertools.combinations(p.elements, 2):
        sub, inc = subalgebra_generated(p, seed)
        subs.add(inc)
    for inc in subs:
        sub, _ = subalgebra_generated(p, [p.elements[i] for i in inc])
        if sub.size > 32:
            continue
        for c in congruences(sub):
            if c.num_blocks == 5 and is_isomorphic(quotient(sub, c), a5):
                return
    pytest.fail("A5 not found in H(S(B2 x IS3))")


# -------------------------------------------------------------------------- U


def test_u_system_is_valid():
    assert validate(build_U_system()) == []


def test_u_size_and_class():
    u = build_U()
    assert u.size == 9
    assert is_class(u, "De Morgan bisemilattice")
    assert not is_class(u, "De Morgan lattice")


def test_u_bottom_fibre_is_dm4():
    u = build_U()
    bottom = [x for x in u.elements if x.startswith("(i,")]
    assert len(bottom) == 4
    sub, _ = subalgebra_generated(u, bottom)
    assert is_isomorphic(sub, BASICS["DM4"]) is not None


def test_u_fibre_collapse_is_is4():
    u = build_U()
    from dmbl.finalg import Congruence

    groups: dict[str, list[int]] = {}
    for idx, name in enumerate(u.elements):
        fibre = name[1:].split(",")[0]
        groups.setdefault(fibre, []).append(idx)
    c = Congruence.from_blocks(u.size, list(groups.values()))
    assert is_isomorphic(quotient(u, c), BASICS["IS4"]) is not None


def test_u_is_not_isomorphic_to_any_catalog_entry():
    u = build_U()
    for e in catalog_entries():
        assert is_isomorphic(u, e.algebra) is None


# --------------------------------------- involutive-semilattice axiom placement


def test_isl_axiom_placement():
    is1, is2, is3, is4 = (BASICS[k] for k in ("IS1", "IS2", "IS3", "IS4"))
    fix = parse("x = ~x")
    bisl = parse("x \\/ ~x = (x \\/ ~x) \\/ y")
    rbisl = parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y")
    assert satisfies(is2, fix)
    assert not satisfies(is3, fix)
    assert satisfies(is3, bisl)
    assert not satisfies(is4, bisl)
    assert not satisfies(is4, rbisl)
    for a in (is1, is2, is3):
        assert satisfies(a, rbisl)


def test_absorption_and_collapse_placement():
    absorption = parse("x = x /\\ (x \\/ y)")
    collapse = parse("x /\\ y = x \\/ y")
    lattice_like = {"B2", "K3", "DM4"}
    isl_like = {"IS1", "IS2", "IS3", "IS4"}
    for e in catalog_entries():
        assert bool(satisfies(e.algebra, absorption)) == (
            e.name in lattice_like | {"IS1"}
        ), e.name
        assert bool(satisfies(e.algebra, collapse)) == (e.name in isl_like), e.name


# -------------------------------------------------------------------- lookups


def test_get_algebra_aliases():
    assert get_algebra("b2+").name == "B2+"
    assert get_algebra("B2DAG").name == "B2+"
    assert get_algebra("D2XD2").size == 4
    assert get_algebra("u").size == 9
    with pytest.raises(ValidationError):
        get_algebra("nonesuch")


def test_known_names_cover_catalog_and_auxiliaries():
    names = known_algebra_names()
    for n in CATALOG_NAMES:
        assert n in names
    for n in ("D1", "D2", "U"):
        assert n in names
