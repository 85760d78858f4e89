"""Tests for the band reduct, Green's preorders, the D-class decomposition,
and the placement of the index semilattice."""

from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmbl import decomp as decomp_module
from dmbl.catalog import build_basics, catalog_entries, dagger, get_algebra
from dmbl.decomp import (
    Band,
    band_of,
    check_ailnb,
    decompose,
    greens,
    index_subvariety,
)
from dmbl.finalg import (
    FiniteAlgebra,
    ValidationError,
    congruences_ops,
    is_isomorphic,
    satisfies,
)
from dmbl.sums import dpl_sum, random_system
from dmbl.terms import parse


BASICS = build_basics()


# ----------------------------------------------------------------------- Band


def test_band_construction_rejects_non_band():
    with pytest.raises(ValidationError, match="idempotent"):
        Band(2, ((1, 1), (1, 1)))
    with pytest.raises(ValidationError, match="associative"):
        # x*y = x+y mod 3 is not associative with idempotence fixed up
        Band(3, ((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    with pytest.raises(ValidationError, match="bijection"):
        Band(2, ((0, 0), (0, 1)), neg=(0, 0))


def test_band_of_examples():
    b = band_of(BASICS["IS2"])
    assert b.dot == BASICS["IS2"].join
    for name in ("B2", "K3", "DM4", "IS1"):
        a = BASICS[name]
        b = band_of(a)
        assert all(
            b.dot[x][y] == x for x in range(a.size) for y in range(a.size)
        ), f"{name} should give a left-zero band"
    with pytest.raises(ValidationError):
        band_of(BASICS["D2"])  # no negation, not a De Morgan bisemilattice


# --------------------------------------------------------------------- greens


def test_a5_d_classes():
    a5 = get_algebra("A5")
    g = greens(band_of(a5))
    names = [[a5.elements[i] for i in c] for c in g.d_classes]
    assert names == [["a", "b"], ["na", "nb"], ["u"]]


def test_left_normal_bands_have_leqL_equal_leqD():
    for e in catalog_entries():
        g = greens(band_of(e.algebra))
        assert g.leqL == g.leqD, e.name


def test_leqH_is_intersection():
    g = greens(band_of(get_algebra("U")))
    n = len(g.leqL)
    for a in range(n):
        for b in range(n):
            assert g.leqH[a][b] == (g.leqL[a][b] and g.leqR[a][b])


def test_green_data_json_shape():
    g = greens(band_of(BASICS["IS2"]))
    blob = g.to_json()
    assert set(blob) == {"leqL", "leqR", "leqD", "leqH", "dClasses"}
    assert blob["dClasses"] == [[0], [1]]


# ---------------------------------------------------------------- check_ailnb


def test_check_ailnb_clean_on_catalog():
    for e in catalog_entries():
        assert check_ailnb(e.algebra) == [], e.name


def test_check_ailnb_reports_non_idempotent_dot():
    a = FiniteAlgebra("bad", ("0", "1"), ((1, 1), (1, 1)), ((0, 1), (1, 1)),
                      neg=(0, 1))
    msgs = check_ailnb(a)
    assert any("idempotent" in m for m in msgs)


def test_check_ailnb_reports_right_zero_band():
    # meet and join both the right projection: dot[x][y] = y, a right-zero
    # band, which is not left-normal
    proj2 = ((0, 1), (0, 1))
    a = FiniteAlgebra("rz", ("0", "1"), proj2, proj2, neg=(0, 1))
    msgs = check_ailnb(a)
    assert any("left-normal" in m for m in msgs)


def test_check_ailnb_reports_missing_negation():
    msgs = check_ailnb(BASICS["D2"])
    assert any("no negation" in m for m in msgs)


def test_check_ailnb_reports_broken_involution():
    # an involution that tears the D-classes apart (b <-> u) cannot commute
    # with the band operation
    a5 = get_algebra("A5")
    broken = FiniteAlgebra("x", a5.elements, a5.meet, a5.join,
                           neg=(2, 4, 0, 3, 1))
    msgs = check_ailnb(broken)
    assert any("a-involutive" in m for m in msgs)


def _ailnb_oracle(A):
    # the band conditions one tuple at a time, each law reporting its least
    # failing tuple in lexicographic order
    n, meet, join, neg, names = A.size, A.meet, A.join, A.neg, A.elements

    def dot(x, y):
        return meet[x][join[x][y]]

    def least(label, arity, holds):
        for t in itertools.product(range(n), repeat=arity):
            if not holds(*t):
                w = ",".join(names[v] for v in t)
                return [f"{label} {w}" if arity == 1 else f"{label} ({w})"]
        return []

    out = least("dot not idempotent at", 1, lambda x: dot(x, x) == x)
    out += least(
        "dot not associative at", 3,
        lambda x, y, z: dot(dot(x, y), z) == dot(x, dot(y, z)),
    )
    if out:
        return out
    out += least(
        "not left-normal: x.y.z != x.z.y at", 3,
        lambda x, y, z: dot(dot(x, y), z) == dot(dot(x, z), y),
    )
    if neg is None:
        return out + ["algebra has no negation"]
    out += least("negation not involutive at", 1, lambda x: neg[neg[x]] == x)
    out += least(
        "not a-involutive: ~(x.y) != ~x.~y at", 2,
        lambda x, y: neg[dot(x, y)] == dot(neg[x], neg[y]),
    )
    for g_name, g in (("/\\", meet), ("\\/", join)):
        out += least(
            f"compatibility a.g(b1,b2) fails for {g_name} at", 3,
            lambda a, b1, b2: dot(a, g[b1][b2]) == dot(dot(a, b1), b2),
        )
        out += least(
            f"compatibility g(b1,b2).a fails for {g_name} at", 3,
            lambda a, b1, b2: dot(g[b1][b2], a) == g[dot(b1, a)][dot(b2, a)],
        )
    return out


_SMALL = [e.algebra for e in catalog_entries() if e.algebra.size <= 4]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_ailnb_matches_loop_oracle(data):
    # law-free tables (the right projection makes x.y = y, a band that is not
    # left-normal), or a small catalog algebra with one entry changed, so that
    # the band passes and the later laws are reached
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        cell = st.integers(0, n - 1)
        table = st.one_of(
            st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n),
            st.just([list(range(n))] * n),
        )
        meet, join = data.draw(table), data.draw(table)
        neg = data.draw(st.one_of(st.none(), st.permutations(range(n))))
    else:
        base = data.draw(st.sampled_from(_SMALL))
        n = base.size
        meet, join = [list(r) for r in base.meet], [list(r) for r in base.join]
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        data.draw(st.sampled_from([meet, join]))[x][y] = v
        neg = data.draw(st.sampled_from([base.neg, None, *itertools.permutations(range(n))]))
    A = FiniteAlgebra("T", [f"e{i}" for i in range(n)], meet, join, neg)
    assert check_ailnb(A) == _ailnb_oracle(A)


def test_swapping_within_a_class_is_still_a_valid_band():
    # by contrast, an involution that merely relabels inside a D-class keeps
    # every band condition intact (it breaks nothing the band can see)
    a5 = get_algebra("A5")
    relabeled = FiniteAlgebra("x", a5.elements, a5.meet, a5.join,
                              neg=(1, 0, 2, 3, 4))
    assert check_ailnb(relabeled) == []


# ------------------------------------------------------------------ decompose


def test_decompose_a5():
    s = decompose(get_algebra("A5"))
    assert is_isomorphic(s.index, BASICS["IS3"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 2, 2]


def test_decompose_b2_and_dm4_have_trivial_index():
    for name in ("B2", "DM4"):
        s = decompose(BASICS[name])
        assert s.index.size == 1
        assert is_isomorphic(s.index, BASICS["IS1"]) is not None


def test_decompose_dagger_dm4():
    s = decompose(dagger(BASICS["DM4"]))
    assert is_isomorphic(s.index, BASICS["IS2"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 4]


def test_decompose_u():
    s = decompose(get_algebra("U"))
    assert is_isomorphic(s.index, BASICS["IS4"]) is not None
    assert sorted(f.size for f in s.fibres.values()) == [1, 2, 2, 4]


def test_decompose_rejects_neg_free_algebra():
    with pytest.raises(ValidationError):
        decompose(BASICS["D2"])


@pytest.mark.parametrize("name", [e.name for e in catalog_entries()])
def test_decompose_round_trip_on_catalog(name):
    a = get_algebra(name)
    back = dpl_sum(decompose(a))
    assert is_isomorphic(back, a) is not None


@pytest.mark.parametrize("seed", range(15))
def test_decompose_round_trip_on_random_sums(seed):
    sys_ = random_system(random.Random(7000 + seed))
    s = dpl_sum(sys_)
    assert check_ailnb(s) == []
    got = decompose(s)
    assert is_isomorphic(got.index, sys_.index) is not None
    # fibres are exactly the (i, _) name groups of the sum
    expected_partition = {}
    for name in s.elements:
        key = name[1:-1].split(",", 1)[0]
        expected_partition.setdefault(key, set()).add(name)
    got_partition = {frozenset(f.elements) for f in got.fibres.values()}
    assert got_partition == {frozenset(v) for v in expected_partition.values()}
    assert is_isomorphic(dpl_sum(got), s) is not None


# ------------------------------------------------------------ index placement


def test_index_subvariety_examples():
    assert index_subvariety(get_algebra("DM4+")) == "RISL"
    assert index_subvariety(get_algebra("A5")) == "BISL"
    assert index_subvariety(get_algebra("U")) == "ISL"
    assert index_subvariety(get_algebra("DM4")) == "T"
    assert index_subvariety(get_algebra("IS4")) == "ISL"
    assert index_subvariety(get_algebra("IS2")) == "RISL"
    assert index_subvariety(get_algebra("IS3")) == "BISL"


def test_index_subvariety_checks_each_condition_once(monkeypatch):
    calls = collections.Counter()
    for name in ("check_ailnb", "band_of", "greens", "validate"):
        def counted(*args, _f=getattr(decomp_module, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(decomp_module, name, counted)
    assert index_subvariety(get_algebra("U")) == "ISL"
    assert calls == {"check_ailnb": 1, "band_of": 1, "greens": 1, "validate": 1}


def _band_lemma_flags(a):
    band = band_of(a)
    n, d, neg = band.size, band.dot, band.neg

    def dd(*chain):
        acc = chain[0]
        for v in chain[1:]:
            acc = d[acc][v]
        return acc

    risl = all(dd(x, neg[x]) == x for x in range(n))
    bisl = all(
        dd(x, neg[x]) == dd(x, neg[x], y) for x in range(n) for y in range(n)
    )
    rbisl = all(
        dd(x, neg[x], y) == dd(x, neg[x], neg[y])
        for x in range(n)
        for y in range(n)
    )
    return risl, bisl, rbisl


@pytest.mark.parametrize(
    "algebra_name",
    [e.name for e in catalog_entries()] + ["U"],
)
def test_band_lemmas_match_index_axioms(algebra_name):
    a = get_algebra(algebra_name)
    risl, bisl, rbisl = _band_lemma_flags(a)
    idx = decompose(a).index
    assert risl == bool(satisfies(idx, parse("x = ~x")))
    assert bisl == bool(satisfies(idx, parse("x \\/ ~x = (x \\/ ~x) \\/ y")))
    assert rbisl == bool(
        satisfies(idx, parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"))
    )


@pytest.mark.parametrize("seed", range(10))
def test_band_lemmas_match_index_axioms_on_random_sums(seed):
    s = dpl_sum(random_system(random.Random(8800 + seed)))
    risl, bisl, rbisl = _band_lemma_flags(s)
    idx = decompose(s).index
    assert risl == bool(satisfies(idx, parse("x = ~x")))
    assert bisl == bool(satisfies(idx, parse("x \\/ ~x = (x \\/ ~x) \\/ y")))
    assert rbisl == bool(
        satisfies(idx, parse("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"))
    )
    # and the classifier runs its own cross-check without raising
    index_subvariety(s)


# ----------------------------------------------------- Clifford-McLean at desk


@pytest.mark.parametrize(
    "algebra_name", [e.name for e in catalog_entries() if e.algebra.size <= 8]
)
def test_d_is_least_congruence_with_semilattice_quotient(algebra_name):
    a = get_algebra(algebra_name)
    band = band_of(a)
    g = greens(band)
    n = band.size
    block_of = [0] * n
    for b, cls in enumerate(g.d_classes):
        for x in cls:
            block_of[x] = b

    def is_semilattice(op):
        m = len(op)
        return all(
            op[x][x] == x and op[x][y] == op[y][x] and op[op[x][y]][z] == op[x][op[y][z]]
            for x in range(m)
            for y in range(m)
            for z in range(m)
        )

    # A/D itself is a semilattice...
    reps = [cls[0] for cls in g.d_classes]
    qop = [
        [block_of[band.dot[x][y]] for y in reps] for x in reps
    ]
    assert is_semilattice(qop)

    # ...and D refines every congruence of the band with semilattice quotient
    for blocks in congruences_ops(n, [(2, band.dot)]):
        bo = [0] * n
        for i, blk in enumerate(blocks.blocks):
            for x in blk:
                bo[x] = i
        reps_t = [blk[0] for blk in blocks.blocks]
        qop_t = [[bo[band.dot[x][y]] for y in reps_t] for x in reps_t]
        if not is_semilattice(qop_t):
            continue
        for cls in g.d_classes:
            assert len({bo[x] for x in cls}) == 1
