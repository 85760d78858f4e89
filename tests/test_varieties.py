"""Tests for the subvariety lattice machinery."""

import collections
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import signal
import time
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmbl.catalog import catalog_entries, entry, get_algebra
from dmbl import varieties
from dmbl.finalg import (
    Congruence,
    ValidationError,
    _canonical,
    _closure,
    _least,
    _meet,
    _require_canonical_rows,
    _row_keys,
    congruences,
    is_congruence,
    is_isomorphic,
    power,
    product,
    quotient,
    satisfies,
    si_quotient_flags,
    subalgebra_generated,
)
from dmbl.sweep import (
    partition_ids,
    random_identity,
    same_partition,
    signatures,
    term_index,
    theory_partition,
)
from dmbl.terms import parse_identity
from dmbl.varieties import (
    ABSORPTION,
    AXIOM_POOL,
    B_ABS,
    BISL_AXIOM,
    COLLAPSE,
    R_ABS,
    RB_ABS,
    RBISL_AXIOM,
    RISL_AXIOM,
    SEPARATOR_POOL,
    all_varieties,
    build_lattice,
    classifier_sweep,
    enumerate_generator_sets,
    hsp_membership,
    jonsson_check,
    syntactic_vs_semantic,
    variety,
    variety_satisfies,
    verify_theorems,
)
from dmbl.varieties import (
    _free_pair,
    _generating_kernels,
    _keys,
    _signature_columns,
    _split,
    _subpower,
    _subuniverses,
    _term_codes,
)
from oracles import eval_term

# ---------------------------------------------------------------------------
# descriptors and generator sets

# name -> generator indices, as an independent transcription
EXPECTED_GENERATORS = {
    "T": {1},
    "BA": {1, 2},
    "KL": {1, 2, 3},
    "DML": {1, 2, 3, 4},
    "R(T)": {1, 5},
    "R(BA)": {1, 2, 5, 6},
    "R(KL)": {1, 2, 3, 5, 6, 7},
    "R(DML)": {1, 2, 3, 4, 5, 6, 7, 8},
    "Bip(T)": {1, 9},
    "R(Bip(T))": {1, 5, 9},
    "B(T)": {1, 5, 9, 11},
    "Bip^-(DML)": {1, 9, 10},
    "R(Bip^-(DML))": {1, 5, 9, 10},
    "B^-(DML)": {1, 5, 9, 10, 11},
    "Bip(BA)": {1, 2, 9, 10},
    "R(Bip(BA))": {1, 2, 5, 6, 9, 10},
    "B(BA)": {1, 2, 5, 6, 9, 10, 11},
    "Bip(KL)": {1, 2, 3, 9, 10},
    "R(Bip(KL))": {1, 2, 3, 5, 6, 7, 9, 10},
    "B(KL)": {1, 2, 3, 5, 6, 7, 9, 10, 11},
    "Bip(DML)": {1, 2, 3, 4, 9, 10},
    "R(Bip(DML))": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
    "B(DML)": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
}

# which pool identities each variety satisfies (verified by hand for the
# small generator sets, and by satisfies() for the rest)
EXPECTED_AXIOMS = {
    "T": (ABSORPTION, R_ABS, B_ABS, RB_ABS, COLLAPSE, RISL_AXIOM, BISL_AXIOM, RBISL_AXIOM),
    "BA": (ABSORPTION, R_ABS, B_ABS, RB_ABS, BISL_AXIOM, RBISL_AXIOM),
    "KL": (ABSORPTION, R_ABS, B_ABS, RB_ABS),
    "DML": (ABSORPTION, R_ABS, B_ABS, RB_ABS),
    "R(T)": (R_ABS, RB_ABS, COLLAPSE, RISL_AXIOM, RBISL_AXIOM),
    "R(BA)": (R_ABS, RB_ABS, RBISL_AXIOM),
    "R(KL)": (R_ABS, RB_ABS),
    "R(DML)": (R_ABS, RB_ABS),
    "Bip(T)": (B_ABS, RB_ABS, COLLAPSE, BISL_AXIOM, RBISL_AXIOM),
    "R(Bip(T))": (RB_ABS, COLLAPSE, RBISL_AXIOM),
    "B(T)": (COLLAPSE,),
    "Bip^-(DML)": (B_ABS, RB_ABS, BISL_AXIOM, RBISL_AXIOM),
    "R(Bip^-(DML))": (RB_ABS, RBISL_AXIOM),
    "B^-(DML)": (),
    "Bip(BA)": (B_ABS, RB_ABS, BISL_AXIOM, RBISL_AXIOM),
    "R(Bip(BA))": (RB_ABS, RBISL_AXIOM),
    "B(BA)": (),
    "Bip(KL)": (B_ABS, RB_ABS),
    "R(Bip(KL))": (RB_ABS,),
    "B(KL)": (),
    "Bip(DML)": (B_ABS, RB_ABS),
    "R(Bip(DML))": (RB_ABS,),
    "B(DML)": (),
}


def test_twenty_three_varieties_with_expected_generators():
    vs = all_varieties()
    assert len(vs) == 23
    assert {v.name: set(v.generators) for v in vs} == EXPECTED_GENERATORS
    # ordered by size, then lexicographically
    keys = [(len(v.generators), tuple(sorted(v.generators))) for v in vs]
    assert keys == sorted(keys)


def test_enumerated_sets_are_exactly_the_fifteen():
    got = enumerate_generator_sets()
    expected = [
        frozenset(EXPECTED_GENERATORS[name])
        for name in (
            "Bip(T)", "R(Bip(T))", "Bip^-(DML)", "Bip(BA)", "R(Bip^-(DML))",
            "B(T)", "Bip(KL)", "B^-(DML)", "Bip(DML)", "R(Bip(BA))",
            "B(BA)", "R(Bip(KL))", "B(KL)", "R(Bip(DML))", "B(DML)",
        )
    ]
    assert sorted(got, key=lambda s: (len(s), tuple(sorted(s)))) == sorted(
        expected, key=lambda s: (len(s), tuple(sorted(s)))
    )
    assert got == sorted(got, key=lambda s: (len(s), tuple(sorted(s))))


def test_enumerated_sets_respect_the_closure_rules():
    for s in enumerate_generator_sets():
        assert 1 in s
        assert s & {9, 10, 11}
        if 11 in s:
            assert {5, 9} <= s
        if 10 in s:
            assert 9 in s
        if 4 in s:
            assert {2, 3} <= s
        if 3 in s:
            assert 2 in s
        for small, pair in ((6, {2, 5}), (7, {3, 5}), (8, {4, 5})):
            assert (small in s) == (pair <= s)
        if 7 in s:
            assert 6 in s
        if 8 in s:
            assert {6, 7} <= s
        for other in (2, 3, 4):
            assert (10 in s and other in s) == (9 in s and other in s)


def test_enumerated_sets_match_the_descriptor_projection():
    from_descriptors = {
        v.generators for v in all_varieties() if v.generators & {9, 10, 11}
    }
    assert set(enumerate_generator_sets()) == from_descriptors


def test_axioms_fields():
    for v in all_varieties():
        assert v.axioms == EXPECTED_AXIOMS[v.name], v.name
        # the field is exactly the satisfied subset of the pool, in order
        rederived = tuple(t for t in AXIOM_POOL if variety_satisfies(v, t))
        assert v.axioms == rederived, v.name


def test_variety_lookup():
    v = variety("Bip^-(DML)")
    assert v.generators == frozenset({1, 9, 10})
    assert variety(" B(KL) ").name == "B(KL)"
    with pytest.raises(ValidationError):
        variety("Bip(QL)")


def test_descriptor_json():
    data = variety("Bip(BA)").to_json()
    assert data["name"] == "Bip(BA)"
    assert data["generators"] == [1, 2, 9, 10]
    assert data["generatorNames"] == ["IS1", "B2", "IS3", "A5"]
    assert data["axioms"] == list(EXPECTED_AXIOMS["Bip(BA)"])
    json.dumps(data)


# ---------------------------------------------------------------------------
# identities in varieties

def test_variety_satisfies_examples():
    assert variety_satisfies("R(DML)", R_ABS)
    assert not variety_satisfies("B(DML)", R_ABS)
    assert variety_satisfies("Bip(BA)", "x /\\ ~x = y /\\ ~y")
    # the failure of R-absorption in B(DML) is witnessed inside IS4
    res = satisfies(entry("IS4").algebra, parse_identity(R_ABS))
    assert not res
    assert res.counterexample == {"x": "i", "y": "j"}


def test_variety_satisfies_accepts_descriptors_and_parsed_identities():
    v = variety("KL")
    assert variety_satisfies(v, parse_identity(ABSORPTION))
    assert not variety_satisfies(v, parse_identity(COLLAPSE))


def test_variety_satisfies_reads_each_verdict_once(monkeypatch):
    calls = []
    check = varieties.satisfies
    monkeypatch.setattr(varieties, "satisfies", lambda a, e: calls.append(a.name) or check(a, e))
    text = "x /\\ (y \\/ ~y) = x \\/ (y /\\ ~y)"  # in no pool, so no verdict is kept yet
    assert not variety_satisfies("DML", text)
    assert calls
    first = list(calls)
    # the same identity again, as text or parsed afresh and with the
    # variety's descriptor, is read from the generators' memos
    assert not variety_satisfies("DML", text)
    assert not variety_satisfies(variety("DML"), parse_identity(text))
    assert calls == first


def test_exact_satisfaction_sets():
    names = lambda text: {v.name for v in all_varieties() if variety_satisfies(v, text)}
    assert names(COLLAPSE) == {"T", "R(T)", "Bip(T)", "R(Bip(T))", "B(T)"}
    assert names("x /\\ ~x = x \\/ ~x") == {
        "T", "R(T)", "Bip(T)", "R(Bip(T))", "B(T)",
        "Bip^-(DML)", "R(Bip^-(DML))", "B^-(DML)",
    }
    # the two bounded-absorption separators track B-Abs and RB-Abs exactly
    assert names("x /\\ (x \\/ y \\/ ~y) = x /\\ (x \\/ ~x)") == names(B_ABS)
    assert names("x /\\ (x \\/ y \\/ ~y) = x /\\ (x \\/ ~x \\/ y)") == names(RB_ABS)
    assert names(B_ABS) == {
        "T", "BA", "KL", "DML",
        "Bip(T)", "Bip^-(DML)", "Bip(BA)", "Bip(KL)", "Bip(DML)",
    }
    assert names(RB_ABS) == set(EXPECTED_GENERATORS) - {
        "B(T)", "B^-(DML)", "B(BA)", "B(KL)", "B(DML)",
    }


def test_satisfaction_is_monotone_down_the_order():
    lattice = build_lattice()
    verdict = {
        (v.name, text): variety_satisfies(v, text)
        for v in lattice.nodes
        for text in SEPARATOR_POOL
    }
    for below, above in lattice.order:
        for text in SEPARATOR_POOL:
            if verdict[(above, text)]:
                assert verdict[(below, text)], (below, above, text)


# ---------------------------------------------------------------------------
# syntactic classes vs their test algebras

def test_syntactic_vs_semantic_examples():
    r = syntactic_vs_semantic("x /\\ ~x = y \\/ ~y")
    rows = {c["class"]: c for c in r["checks"]}
    assert r["agree"]
    assert not rows["regular"]["syntactic"]
    assert rows["bipolarly-balanced"]["syntactic"]
    assert rows["bipolarly-balanced"]["semantic"]
    assert not rows["regular-bipolarly-balanced"]["syntactic"]

    r = syntactic_vs_semantic("~(x /\\ y) = ~x \\/ ~y")
    assert r["agree"]
    assert all(c["syntactic"] and c["semantic"] for c in r["checks"])

    r = syntactic_vs_semantic("x = ~x")
    rows = {c["class"]: c for c in r["checks"]}
    assert r["agree"]
    assert rows["regular"]["semantic"]
    assert not rows["balanced-regular"]["semantic"]


def test_classifier_sweep_is_exhaustively_clean():
    report = classifier_sweep()
    assert report["terms"] == 8427
    assert report["agree"]
    assert set(report["classes"]) == {
        "regular",
        "balanced-regular",
        "bipolarly-balanced",
        "regular-bipolarly-balanced",
    }
    for row in report["classes"].values():
        assert row["agree"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_identities_always_agree(seed):
    e = random_identity(random.Random(seed), max_depth=6, num_vars=4)
    assert syntactic_vs_semantic(e)["agree"], str(e)


# ---------------------------------------------------------------------------
# HSP membership

def recheck_in_certificate(algebra, gens, cert):
    """Rebuild every stage of an 'in' certificate and verify it from scratch."""
    P = gens[cert["factorIndices"][0]]
    for i in cert["factorIndices"][1:]:
        P = product(P, gens[i])
    carrier = sorted(P.index(name) for name in cert["subalgebra"])
    S, inclusion = subalgebra_generated(P, carrier)
    assert list(inclusion) == carrier  # the claimed carrier is closed
    if cert["congruence"] is None:
        Q = S
    else:
        blocks = [[S.index(name) for name in blk] for blk in cert["congruence"]]
        theta = Congruence.from_blocks(S.size, blocks)
        assert is_congruence(S, theta)
        Q = quotient(S, theta)
    iso = cert["isomorphism"]
    assert sorted(iso) == sorted(algebra.elements)
    assert sorted(iso.values()) == sorted(Q.elements)
    for a in algebra.elements:
        ia, qa = algebra.index(a), Q.index(iso[a])
        assert iso[algebra.elements[algebra.neg[ia]]] == Q.elements[Q.neg[qa]]
        for b in algebra.elements:
            ib, qb = algebra.index(b), Q.index(iso[b])
            assert iso[algebra.elements[algebra.meet[ia][ib]]] == Q.elements[Q.meet[qa][qb]]
            assert iso[algebra.elements[algebra.join[ia][ib]]] == Q.elements[Q.join[qa][qb]]


def test_is3_lies_in_the_variety_of_a5():
    result = hsp_membership(entry("IS3").algebra, "A5")
    assert result.verdict == "in"
    assert result.certificate["factors"] == ["A5"]
    assert result.certificate["subalgebra"] == ["a", "na", "u"]
    recheck_in_certificate(entry("IS3").algebra, [entry("A5").algebra], result.certificate)


def test_a5_lies_in_the_variety_of_b2_and_is3():
    gens = [entry("B2").algebra, entry("IS3").algebra]
    result = hsp_membership(entry("A5").algebra, gens)
    assert result.verdict == "in"
    assert result.certificate["factors"] == ["B2", "IS3"]
    assert result.certificate["congruence"] is not None
    recheck_in_certificate(entry("A5").algebra, gens, result.certificate)


def test_u_lies_in_the_variety_of_dm4_and_is4():
    gens = [entry("DM4").algebra, entry("IS4").algebra]
    result = hsp_membership(get_algebra("U"), gens)
    assert result.verdict == "in"
    assert result.certificate["factors"] == ["DM4", "IS4"]
    recheck_in_certificate(get_algebra("U"), gens, result.certificate)


def test_dagger_lies_in_the_variety_of_its_parts():
    gens = [entry("DM4").algebra, entry("IS2").algebra]
    result = hsp_membership(entry("DM4+").algebra, gens)
    assert result.verdict == "in"
    recheck_in_certificate(entry("DM4+").algebra, gens, result.certificate)


def test_b2_is_outside_the_variety_of_is4():
    result = hsp_membership(entry("B2").algebra, "IS4")
    assert result.verdict == "out"
    assert result.identity is not None
    e = parse_identity(result.identity)
    assert satisfies(entry("IS4").algebra, e)
    b2 = entry("B2").algebra
    cex = result.counterexample
    assert eval_term(b2, e.lhs, cex) != eval_term(b2, e.rhs, cex)


def test_is4_is_outside_every_lattice_generated_variety():
    result = hsp_membership(entry("IS4").algebra, ["B2", "K3", "DM4"])
    assert result.verdict == "out"
    e = parse_identity(result.identity)
    for name in ("B2", "K3", "DM4"):
        assert satisfies(entry(name).algebra, e)
    assert not satisfies(entry("IS4").algebra, e)


def test_hsp_membership_input_errors():
    with pytest.raises(ValidationError):
        hsp_membership(power(entry("DM4").algebra, 4), "DM4")
    with pytest.raises(ValidationError):
        hsp_membership(entry("B2").algebra, [])


def test_hsp_membership_is_unknown_past_the_search_bounds():
    # IS3^4 has 81 elements, more than CONGRUENCE_SIZE_LIMIT, and the
    # products of IS3 within the budget have 3, 9 or 27: no identity
    # separates them, and no subalgebra is large enough
    result = hsp_membership(power(entry("IS3").algebra, 4), "IS3")
    assert result.verdict == "unknown"
    assert (result.certificate, result.identity, result.counterexample) == (None, None, None)


def test_hsp_membership_skips_a_subalgebra_with_too_many_congruences():
    # IS2^5 has 32 elements but more than CONGRUENCE_COUNT_LIMIT congruences,
    # which congruences refuses; the search skips it as it skips a larger one
    is2_5 = power(entry("IS2").algebra, 5)
    with pytest.raises(ValidationError, match="limited to 65536 congruences"):
        congruences(is2_5)
    assert hsp_membership(is2_5, is2_5).verdict == "unknown"


def test_hsp_result_json():
    data = hsp_membership(entry("B2").algebra, "IS4").to_json()
    assert data["verdict"] == "out"
    json.dumps(data)


# ---------------------------------------------------------------------------
# the lattice

EXPECTED_COVER_PAIRS = {
    ("T", "BA"), ("T", "R(T)"), ("T", "Bip(T)"),
    ("BA", "KL"), ("BA", "R(BA)"), ("BA", "Bip(BA)"),
    ("KL", "DML"), ("KL", "R(KL)"), ("KL", "Bip(KL)"),
    ("DML", "R(DML)"), ("DML", "Bip(DML)"),
    ("R(T)", "R(BA)"), ("R(T)", "R(Bip(T))"),
    ("R(BA)", "R(KL)"), ("R(BA)", "R(Bip(BA))"),
    ("R(KL)", "R(DML)"), ("R(KL)", "R(Bip(KL))"),
    ("R(DML)", "R(Bip(DML))"),
    ("Bip(T)", "R(Bip(T))"), ("Bip(T)", "Bip^-(DML)"),
    ("R(Bip(T))", "R(Bip^-(DML))"), ("R(Bip(T))", "B(T)"),
    ("B(T)", "B^-(DML)"),
    ("Bip^-(DML)", "R(Bip^-(DML))"), ("Bip^-(DML)", "Bip(BA)"),
    ("R(Bip^-(DML))", "R(Bip(BA))"), ("R(Bip^-(DML))", "B^-(DML)"),
    ("B^-(DML)", "B(BA)"),
    ("Bip(BA)", "Bip(KL)"), ("Bip(BA)", "R(Bip(BA))"),
    ("R(Bip(BA))", "R(Bip(KL))"), ("R(Bip(BA))", "B(BA)"),
    ("B(BA)", "B(KL)"),
    ("Bip(KL)", "Bip(DML)"), ("Bip(KL)", "R(Bip(KL))"),
    ("R(Bip(KL))", "R(Bip(DML))"), ("R(Bip(KL))", "B(KL)"),
    ("B(KL)", "B(DML)"),
    ("Bip(DML)", "R(Bip(DML))"),
    ("R(Bip(DML))", "B(DML)"),
}


def test_lattice_shape():
    lattice = build_lattice()
    assert len(lattice.nodes) == 23
    assert {(e.lower, e.upper) for e in lattice.covers} == EXPECTED_COVER_PAIRS
    assert len(lattice.covers) == 40
    names = {v.name for v in lattice.nodes}
    # reflexive, antisymmetric, transitive
    for n in names:
        assert (n, n) in lattice.order
    for a, b in lattice.order:
        if a != b:
            assert (b, a) not in lattice.order
    for a, b in lattice.order:
        for c, d in lattice.order:
            if b == c:
                assert (a, d) in lattice.order
    # the order is generator-set inclusion
    by_name = {v.name: v for v in lattice.nodes}
    for a in names:
        for b in names:
            assert lattice.leq(a, b) == (
                by_name[a].generators <= by_name[b].generators
            )


def test_lattice_extremes_and_neighbourhoods():
    lattice = build_lattice()
    assert lattice.below("T") == ("T",)
    assert set(lattice.below("B(DML)")) == set(EXPECTED_GENERATORS)
    assert set(lattice.below("R(DML)")) == {
        "T", "BA", "KL", "DML", "R(T)", "R(BA)", "R(KL)", "R(DML)",
    }
    assert lattice.leq("Bip(T)", "Bip^-(DML)")
    assert lattice.leq("Bip^-(DML)", "Bip(BA)")
    assert not lattice.leq("B(T)", "R(Bip(DML))")
    with pytest.raises(ValidationError):
        lattice.node("DMBL")


def test_every_cover_identity_is_verified_both_ways():
    lattice = build_lattice()
    for e in lattice.covers:
        assert variety_satisfies(e.lower, e.identity), (e.lower, e.identity)
        assert not variety_satisfies(e.upper, e.identity), (e.upper, e.identity)
        witness = entry(e.fails_in).algebra
        ident = parse_identity(e.identity)
        assert eval_term(witness, ident.lhs, e.counterexample) != eval_term(
            witness, ident.rhs, e.counterexample
        )


def test_six_strict_chain_separations():
    # the separations along the two bipolar chains, one per covering step
    lattice = build_lattice()
    by_pair = {(e.lower, e.upper): e.identity for e in lattice.covers}
    assert by_pair[("Bip(BA)", "Bip(KL)")] == "x /\\ ~x = y /\\ ~y"
    assert by_pair[("Bip(KL)", "Bip(DML)")] == "x /\\ ~x = (x /\\ ~x) /\\ (y \\/ ~y)"
    assert by_pair[("R(Bip(BA))", "R(Bip(KL))")] == "(x /\\ ~x) /\\ y = (x /\\ ~x) /\\ ~y"
    assert (
        by_pair[("R(Bip(KL))", "R(Bip(DML))")]
        == "(x \\/ ~x) /\\ (y \\/ ~y) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
        " = (x /\\ ~x) \\/ (y /\\ ~y)"
    )
    assert by_pair[("B(BA)", "B(KL)")] == (
        "(x /\\ ~x) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
        " = (y /\\ ~y) /\\ ((y /\\ ~y) \\/ (x /\\ ~x))"
    )
    assert by_pair[("B(KL)", "B(DML)")] == by_pair[("R(Bip(KL))", "R(Bip(DML))")]


def test_lattice_serialisations_are_deterministic():
    lattice = build_lattice()
    data = lattice.to_json()
    assert len(data["nodes"]) == 23
    assert len(data["covers"]) == 40
    assert data == build_lattice().to_json()
    assert json.dumps(data) == json.dumps(build_lattice().to_json())
    dot = lattice.to_dot()
    assert dot == build_lattice().to_dot()
    assert dot.count("->") == 40
    for v in lattice.nodes:
        assert f'"{v.name}"' in dot


# ---------------------------------------------------------------------------
# the headline checks

def test_verify_theorems_is_clean():
    report = verify_theorems(include_jonsson=False)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert len(report["checks"]) == 38
    names = [c["check"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for c in report["checks"]:
        assert c["detail"]


# the Jónsson search of verify_theorems runs in a forked child; a child
# inherits the monkeypatches made before verify_theorems is called

def _search_report():
    # a report whose first count is the pid of the process that made it
    return {"subalgebras": os.getpid(), "quotients": 2, "si_quotients": 3, "failures": [], "ok": True}


@contextmanager
def _deadline(seconds):
    # a hang fails the test instead of stopping the run
    def expire(*_):
        raise TimeoutError(f"still waiting after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_appends_the_search_of_the_child_last(monkeypatch):
    monkeypatch.setattr(varieties, "_theorem_checks", lambda: [{"check": "c", "ok": True, "detail": "d"}])
    monkeypatch.setattr(varieties, "jonsson_check", _search_report)
    with _deadline(60):
        report = verify_theorems()
    assert report["ok"] and report["checks"][0]["check"] == "c"
    pid, rest = report["checks"][1]["detail"].split(" ", 1)
    assert int(pid) != os.getpid()
    assert rest == "subalgebras, 2 quotients, 3 subdirectly irreducible, 0 failures"
    _assert_no_child_left()


def test_verify_raises_the_error_of_the_search_again(monkeypatch):
    def search():
        raise ValidationError("no search in this child")

    monkeypatch.setattr(varieties, "jonsson_check", search)
    with _deadline(60), pytest.raises(ValidationError, match="^no search in this child$"):
        verify_theorems()
    _assert_no_child_left()


class _TwoArgumentError(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_verify_sends_an_error_that_cannot_be_rebuilt_as_its_repr(monkeypatch):
    def search():
        raise _TwoArgumentError(1, 2)

    monkeypatch.setattr(varieties, "_theorem_checks", list)
    monkeypatch.setattr(varieties, "jonsson_check", search)
    with _deadline(60), pytest.raises(RuntimeError, match=r"_TwoArgumentError\('1 and 2'\)"):
        verify_theorems()
    _assert_no_child_left()


@pytest.mark.parametrize(
    "end, message",
    [
        (lambda: os._exit(3), "exited with status 3 without a result"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9 without a result"),
    ],
    ids=["exit", "signal"],
)
def test_verify_reports_a_child_that_ends_without_a_result(monkeypatch, end, message):
    monkeypatch.setattr(varieties, "_theorem_checks", list)
    monkeypatch.setattr(varieties, "jonsson_check", end)
    with _deadline(60), pytest.raises(RuntimeError, match=message):
        verify_theorems()
    _assert_no_child_left()


def test_verify_kills_the_child_when_its_own_checks_raise(monkeypatch):
    def checks():
        raise ValidationError("the parent's half failed")

    monkeypatch.setattr(varieties, "_theorem_checks", checks)
    monkeypatch.setattr(varieties, "jonsson_check", lambda: time.sleep(600))
    start = time.perf_counter()
    with _deadline(60), pytest.raises(ValidationError, match="the parent's half failed"):
        verify_theorems()
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files through /proc")
def test_verify_closes_the_pipe_when_fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        verify_theorems()
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_verify_without_the_search_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    report = verify_theorems(include_jonsson=False)
    assert report["ok"] and len(report["checks"]) == 38


# ---------------------------------------------------------------------------
# the keys of the syntactic theory descriptions

def _labels(data, shape):
    # integer labels of one dtype: a few small values, a few around 0, or any
    # value of the dtype, so that mixed-radix codes and row offsets would
    # overflow int64 unless renumbered
    dtype = data.draw(st.sampled_from([np.int8, np.uint8, np.int32, np.int64]))
    info = np.iinfo(dtype)
    values = data.draw(
        st.sampled_from(
            [st.integers(0, 9), st.integers(max(-3, info.min), 3), st.integers(info.min, info.max)]
        )
    )
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_keys_match_tuple_keys(data):
    # _meet and _split against partition_ids of the tuple keys; then _meet on
    # any integer labels, 1-D and one partition per row
    n = data.draw(st.integers(0, 30))

    def column():
        return np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), dtype=np.int64)

    bip = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    bipolar = [column() for _ in range(data.draw(st.integers(0, 2)))]
    other = [column() for _ in range(data.draw(st.integers(1, 3)))]
    rows = [tuple(int(c[i]) for c in other) for i in range(n)]
    assert same_partition(_meet(*other), partition_ids(rows))
    keys = [("b", *(int(c[i]) for c in bipolar)) if bip[i] else rows[i] for i in range(n)]
    assert same_partition(_split(bip, bipolar, other), partition_ids(keys))
    shape = (data.draw(st.integers(0, 4)), n)
    grids = [_labels(data, shape) for _ in range(data.draw(st.integers(1, 4)))]
    got = _canonical(_least(_meet(*grids)))
    assert got.shape == shape
    for i, row in enumerate(got.tolist()):
        assert row == partition_ids(list(zip(*(g[i].tolist() for g in grids)))).tolist()
        assert _canonical(_least(_meet(*(g[i] for g in grids)))).tolist() == row


def test_signature_columns_are_the_signatures():
    index = term_index()
    v, p, m, bip = _signature_columns(index)
    assert list(zip(v.tolist(), p.tolist(), m.tolist())) == signatures(index)
    assert bip.tolist() == [bool(p & m) for (_, p, m) in signatures(index)]


def test_one_algebra_theory_partition_is_its_cached_labels(monkeypatch):
    # renamed copies are new algebras, whose memos hold no partition yet
    dm4, is4 = get_algebra("DM4").rename("DM4"), get_algebra("IS4").rename("IS4")
    labels = varieties._theory_partition([dm4])
    assert np.array_equal(labels, theory_partition(dm4, term_index()))
    assert not labels.flags.writeable
    calls = []
    monkeypatch.setattr(varieties, "_meet", lambda *c: calls.append(1) or _meet(*c))
    assert varieties._theory_partition([dm4]) is labels
    assert calls == []
    joint = varieties._theory_partition([dm4, is4])
    pairs = zip(labels.tolist(), varieties._theory_partition([is4]).tolist())
    assert np.array_equal(joint, partition_ids(list(pairs)))
    assert len(calls) == 1


def test_a_theory_partition_is_freed_with_its_algebra():
    # the labels live in the algebra's memo, so no cache keeps them (or a
    # copy of the tables as their key) once the algebra is gone
    a = product(get_algebra("DM4"), get_algebra("IS4"))
    labels = varieties._theory_partition([a])
    freed = weakref.ref(labels)
    del labels, a
    gc.collect()
    assert freed() is None


def test_jonsson_check_counts_are_pinned():
    # the certified search counts: a closure that finds other subuniverses
    # moves them even when every quotient still embeds
    for max_power, counts in ((1, (18, 30, 29)), (2, (522, 3233, 651))):
        report = jonsson_check(max_power=max_power)
        got = (report["subalgebras"], report["quotients"], report["si_quotients"])
        assert got == counts
        assert report["skipped_large"] == 0
        assert report["failures"] == []


@pytest.mark.parametrize(
    "algebra", [product(get_algebra("B2"), get_algebra("IS3")), power(get_algebra("IS2"), 3)],
    ids=lambda a: a.name,
)
def test_subuniverses_match_brute_force(algebra):
    n = algebra.size

    def closed(s):
        return all(
            algebra.meet[x][y] in s and algebra.join[x][y] in s for x in s for y in s
        ) and all(algebra.neg[x] in s for x in s)

    subsets = (
        frozenset(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)
    )
    universes = [s for s in subsets if closed(s)]
    for k in (1, 2, 3):
        # a subuniverse is k-generated when some seed of at most k of its
        # elements lies in no smaller subuniverse
        generated = {
            s
            for s in universes
            for size in range(1, k + 1)
            for seed in itertools.combinations(sorted(s), size)
            if not any(t < s and t >= set(seed) for t in universes)
        } | {frozenset(range(n))}
        expected = sorted((tuple(sorted(s)) for s in generated), key=lambda s: (len(s), s))
        assert _subuniverses(algebra, k) == expected


def test_jonsson_check_on_u_itself():
    report = jonsson_check(max_power=1)
    assert report["ok"]
    assert report["failures"] == []
    assert report["subalgebras"] > 0
    assert report["si_quotients"] > 0


# ---------------------------------------------------------------------------
# the Jónsson search through the free algebra F(2) of V(U)

U = get_algebra("U")
F2 = _free_pair(U)


def _free_pair_by_brute_force(a):
    # binary term functions as tuples over the pairs (x, y), row by row
    pairs = [(x, y) for x in range(a.size) for y in range(a.size)]
    rows = {tuple(x for x, _ in pairs), tuple(y for _, y in pairs)}
    while True:
        grown = rows | {tuple(a.neg[v] for v in r) for r in rows}
        for r, s in itertools.product(rows, repeat=2):
            grown.add(tuple(a.meet[v][w] for v, w in zip(r, s)))
            grown.add(tuple(a.join[v][w] for v, w in zip(r, s)))
        if grown == rows:
            return rows
        rows = grown


def test_free_algebra_on_two_generators_is_pinned():
    assert F2.shape == (266, 81) and F2.dtype == np.uint8
    assert hashlib.sha256(F2.tobytes()).hexdigest() == (
        "5ceef1aaae8a61792db1cf88143f145bc44963b2134d4b5733b16537457e0348"
    )
    # the projections come first, and the rows are distinct and closed
    x, y = np.divmod(np.arange(81), 9)
    assert (F2[0] == x).all() and (F2[1] == y).all()
    assert len({r.tobytes() for r in F2}) == 266
    meet, join, neg = U.arrays()
    rows = {r.tobytes() for r in F2}
    assert {r.tobytes() for r in neg[F2].astype(np.uint8)} <= rows
    for table in (meet, join):
        made = table[F2[:, None], F2[None]].astype(np.uint8).reshape(-1, 81)
        assert {r.tobytes() for r in made} == rows
    for name, size in (("DM4", 166), ("IS4", 15)):
        a = entry(name).algebra
        assert {tuple(r) for r in _free_pair(a).tolist()} == _free_pair_by_brute_force(a)
        assert len(_free_pair(a)) == size


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 40), st.data())
def test_kernels_are_first_occurrence_labels(rows, width, data):
    # _canonical(_least(x)) against partition_ids: on one partition per row,
    # on each row alone, and on the _row_keys items of the rows; and
    # _require_canonical_rows accepts exactly the integer rows that
    # partition_ids leaves as they are
    codes = _labels(data, (rows, width))
    expected = [partition_ids(r).tolist() for r in codes.tolist()]
    assert _canonical(_least(codes)).tolist() == expected
    assert _canonical(_least(_row_keys(codes))).tolist() == partition_ids(codes).tolist()
    for r, e in zip(codes, expected):
        assert _canonical(_least(r)).tolist() == e
        for row in (r, np.array(e), r.astype(float), np.array(e, dtype=float)):
            canonical = row.dtype.kind in "iu" and partition_ids(row).tolist() == row.tolist()
            try:
                _require_canonical_rows(row[None])
            except ValidationError:
                assert not canonical and width
            else:
                assert canonical or not width


@functools.lru_cache(maxsize=None)
def _power_of_u(k):
    return power(U, k)


def _seed(data, k):
    # one element of U^k, or two, as a pair of codes
    a = data.draw(st.integers(0, 9**k - 1))
    return a, data.draw(st.one_of(st.just(a), st.integers(0, 9**k - 1)))


def _generated(k, seed):
    # the codes t(a, b) of every term t of F(2), and the subalgebra's elements
    # in the order of the blocks of the seed's kernel
    place = 9 ** np.arange(k - 1, -1, -1)
    codes = _term_codes(F2, 9, place, *np.array(seed)[:, None])[0]
    kernel = _canonical(_least(codes))
    return place, codes, kernel, codes[np.unique(kernel, return_index=True)[1]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_free_pair_closures_match_the_closure_on_the_power(k, data):
    seed = _seed(data, k)
    _, codes, _, _ = _generated(k, seed)
    assert set(codes.tolist()) == _closure(_power_of_u(k), set(seed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_kernel_isomorphism_matches_is_isomorphic(k, data):
    seed = _seed(data, k)
    place, _, _, elements = _generated(k, seed)
    how = data.draw(st.sampled_from(["swap", "permute", "inside", "anywhere"]))
    a, b = seed
    if how == "swap":
        other = (b, a)
    elif how == "permute":
        order = data.draw(st.permutations(range(k)))
        digits = np.array(seed)[:, None] // place % 9
        other = tuple((digits[:, order] @ place).tolist())
    elif how == "inside":
        other = tuple(data.draw(st.sampled_from(elements.tolist())) for _ in "ab")
    else:
        other = _seed(data, k)
    _, _, kernel, others = _generated(k, other)
    if max(len(elements), len(others)) > 32:
        return  # the search does not compare subalgebras this large
    S, _ = subalgebra_generated(_power_of_u(k), elements.tolist())
    R, _ = subalgebra_generated(_power_of_u(k), others.tolist())
    by_kernel = _keys(kernel[None])[0] in _generating_kernels(F2, 9, place, elements)
    assert by_kernel == (is_isomorphic(S, R) is not None)


_U_SUBALGEBRAS = [
    subalgebra_generated(U, carrier)[0]
    for carrier in {
        frozenset(_closure(U, set(s)))
        for size in range(1, 10)
        for s in itertools.combinations(range(9), size)
    }
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_kernel_embedding_matches_is_isomorphic(k, data):
    seed = _seed(data, k)
    place, _, kernel, elements = _generated(k, seed)
    if len(elements) > 32:
        return  # the search skips subalgebras this large
    S = _subpower(U, place, elements)
    cons = congruences(S)
    flags = si_quotient_flags(cons)
    theta, si = data.draw(st.sampled_from(list(zip(cons, flags))))
    # θ's block of each term's value is a first-occurrence kernel as it stands
    row = np.array(theta.block_of)[kernel]
    assert row.tolist() == partition_ids(row.tolist()).tolist()
    embeds = _keys(row[None])[0] in set(_keys(F2.T))
    Q = quotient(S, theta)
    assert embeds == any(is_isomorphic(Q, t) is not None for t in _U_SUBALGEBRAS)
    if si:
        assert embeds  # what the search certifies


def test_build_lattice_checks_each_identity_once_per_algebra(monkeypatch):
    # a verdict is kept under the function that computed it, so `counting`
    # reads none of those kept before
    calls = collections.Counter()
    real = varieties.satisfies

    def counting(a, e):
        calls[(a.meet, a.join, a.neg, str(e))] += 1
        return real(a, e)

    monkeypatch.setattr(varieties, "satisfies", counting)
    build_lattice.cache_clear()
    build_lattice()
    assert calls and max(calls.values()) == 1
