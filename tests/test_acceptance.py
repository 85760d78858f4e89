"""Acceptance suite: ten headline checks, one reported line each.

Each test prints a single PASS/FAIL line (visible regardless of capture) and
then asserts, so a red line always comes with a failing test.  Stated runtime
budgets are asserted too.
"""

import itertools
import random
import time

import pytest

from dmbl.catalog import CATALOG_NAMES, build_U_system, catalog_entries, entry, get_algebra
from dmbl.decomp import band_of, check_ailnb, decompose, greens, index_subvariety
from dmbl.finalg import (
    Congruence,
    is_class,
    is_congruence,
    is_isomorphic,
    is_subdirectly_irreducible,
    product,
    quotient,
    satisfies,
    subalgebra_generated,
)
from dmbl.sums import bilateralise, dpl_sum, random_system, validate
from dmbl.sweep import (
    enumerate_terms,
    partition_ids,
    random_identity,
    refines,
    signatures,
    term_index,
    theory_partition,
)
from dmbl.terms import parse_identity
from dmbl.varieties import (
    B_ABS,
    COLLAPSE,
    R_ABS,
    RB_ABS,
    all_varieties,
    build_lattice,
    classifier_sweep,
    enumerate_generator_sets,
    hsp_membership,
    jonsson_check,
    syntactic_vs_semantic,
    variety_satisfies,
)
from oracles import eval_term


def _report(capsys, number, label, ok, elapsed=None):
    note = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}{note}")
    assert ok, f"criterion {number}: {label}"


# ---------------------------------------------------------------------------

def test_criterion_01_catalog_integrity(capsys):
    t0 = time.monotonic()
    problems = []
    entries = catalog_entries()
    if len(entries) != 11 or tuple(e.name for e in entries) != CATALOG_NAMES:
        problems.append("catalog roster mismatch")
    for e in entries:
        if not is_class(e.algebra, "De Morgan bisemilattice"):
            problems.append(f"{e.name} is not a De Morgan bisemilattice")
        if not is_subdirectly_irreducible(e.algebra):
            problems.append(f"{e.name} is not subdirectly irreducible")
    for a, b in itertools.combinations(entries, 2):
        if is_isomorphic(a.algebra, b.algebra) is not None:
            problems.append(f"{a.name} isomorphic to {b.name}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 1.0
    _report(capsys, 1, f"catalog integrity {problems or ''}".strip(), ok, elapsed)


def test_criterion_02_classifier_agreement(capsys):
    t0 = time.monotonic()
    sweep = classifier_sweep()
    failures = [] if sweep["agree"] else ["exhaustive sweep disagrees"]
    rng = random.Random(20260814)
    for _ in range(10_000):
        e = random_identity(rng, max_depth=6, num_vars=4)
        if not syntactic_vs_semantic(e)["agree"]:
            failures.append(str(e))
            break
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(
        capsys,
        2,
        "classifier agreement, exhaustive space + 10000 random identities"
        + (f" {failures}" if failures else ""),
        ok,
        elapsed,
    )


def _band_biconditionals(algebra):
    """The three band-shape/index-axiom biconditionals for one algebra."""
    band = band_of(algebra)
    n, d, neg = band.size, band.dot, band.neg
    up = [d[x][neg[x]] for x in range(n)]  # x . ~x
    band_risl = all(up[x] == x for x in range(n))
    band_bisl = all(d[up[x]][y] == up[x] for x in range(n) for y in range(n))
    band_rbisl = all(
        d[up[x]][y] == d[up[x]][neg[y]] for x in range(n) for y in range(n)
    )
    index = decompose(algebra).index
    axiom_risl = bool(satisfies(index, parse_identity("x = ~x")))
    axiom_bisl = bool(
        satisfies(index, parse_identity("x \\/ ~x = (x \\/ ~x) \\/ y"))
    )
    axiom_rbisl = bool(
        satisfies(index, parse_identity("(x \\/ ~x) \\/ y = (x \\/ ~x) \\/ ~y"))
    )
    return (
        band_risl == axiom_risl
        and band_bisl == axiom_bisl
        and band_rbisl == axiom_rbisl
    )


def test_criterion_03_band_lemmas(capsys):
    failures = []
    algebras = [e.algebra for e in catalog_entries()]
    count = 0
    seed = 0
    while count < 100:
        system = random_system(random.Random(seed))
        seed += 1
        if validate(system):
            continue
        algebras.append(dpl_sum(system))
        count += 1
    for a in algebras:
        if check_ailnb(a):
            failures.append(f"{a.name}: band conditions fail")
        elif not _band_biconditionals(a):
            failures.append(f"{a.name}: biconditional mismatch")
        else:
            index_subvariety(a)  # raises if its two routes disagree
    _report(
        capsys,
        3,
        f"band lemmas on {len(algebras)} algebras (catalog + {count} random sums)"
        + (f" {failures[:3]}" if failures else ""),
        not failures,
    )


def test_criterion_04_decomposition_round_trip(capsys):
    failures = []
    for e in catalog_entries():
        back = dpl_sum(decompose(e.algebra))
        if is_isomorphic(back, e.algebra) is None:
            failures.append(f"round trip changes {e.name}")
    systems = []
    seed = 1000
    while len(systems) < 100:
        system = random_system(random.Random(seed))
        seed += 1
        if not validate(system):
            systems.append(system)
    for system in systems:
        s = dpl_sum(system)
        back = dpl_sum(decompose(s))
        if is_isomorphic(back, s) is None:
            failures.append(f"round trip changes {s.name}")
            continue
        # D-classes of the sum are exactly the fibres
        expected, offset = set(), 0
        for i in system.index.elements:
            size = system.fibres[i].size
            expected.add(frozenset(range(offset, offset + size)))
            offset += size
        d_classes = {frozenset(c) for c in greens(band_of(s)).d_classes}
        if d_classes != expected:
            failures.append(f"D-classes deviate from fibres in {s.name}")
    _report(
        capsys,
        4,
        f"decomposition round trip on catalog + {len(systems)} random sums"
        + (f" {failures[:3]}" if failures else ""),
        not failures,
    )


def test_criterion_05_balanced_preservation(capsys):
    terms = enumerate_terms()
    sig = signatures(terms)
    balanced_keys = [(p, m) for _, p, m in sig]
    balanced_part = partition_ids(balanced_keys)
    failures = []
    preserved = refuted = 0
    systems = [build_U_system()]
    seed = 9000
    while len(systems) < 12 or sum(s.index.name == "IS4" for s in systems) < 4:
        system = random_system(random.Random(seed))
        seed += 1
        if not validate(system):
            systems.append(system)
    for system in systems:
        s = dpl_sum(system)
        p_sum = theory_partition(s, term_index())
        fibre_parts = [
            theory_partition(bilateralise(f), term_index()).tolist()
            for f in system.fibres.values()
        ]
        combined = partition_ids(
            [
                (balanced_keys[i], *(fp[i] for fp in fibre_parts))
                for i in range(len(terms))
            ]
        )
        # balanced identities valid in every (bilateralised) fibre lift
        if refines(combined, p_sum):
            preserved += 1
        else:
            failures.append(f"{s.name}: balanced identity fails to lift")
        if system.index.name == "IS4":
            # ... and nothing beyond balanced identities survives
            if refines(p_sum, balanced_part):
                refuted += 1
            else:
                failures.append(f"{s.name}: non-balanced identity holds")
    _report(
        capsys,
        5,
        f"balanced preservation over {preserved} sums, "
        f"{refuted} exhaustive refutation sweeps at index IS4"
        + (f" {failures[:3]}" if failures else ""),
        not failures and refuted >= 4,
    )


def _recheck(algebra, gens, result):
    if result.verdict != "in":
        return f"verdict {result.verdict}"
    cert = result.certificate
    P = gens[cert["factorIndices"][0]]
    for i in cert["factorIndices"][1:]:
        P = product(P, gens[i])
    carrier = sorted(P.index(name) for name in cert["subalgebra"])
    S, inclusion = subalgebra_generated(P, carrier)
    if list(inclusion) != carrier:
        return "claimed carrier is not closed"
    if cert["congruence"] is None:
        Q = S
    else:
        blocks = [[S.index(name) for name in blk] for blk in cert["congruence"]]
        theta = Congruence.from_blocks(S.size, blocks)
        if not is_congruence(S, theta):
            return "claimed blocks are not a congruence"
        Q = quotient(S, theta)
    iso = cert["isomorphism"]
    for a in algebra.elements:
        ia, qa = algebra.index(a), Q.index(iso[a])
        if iso[algebra.elements[algebra.neg[ia]]] != Q.elements[Q.neg[qa]]:
            return "isomorphism breaks negation"
        for b in algebra.elements:
            ib, qb = algebra.index(b), Q.index(iso[b])
            if iso[algebra.elements[algebra.meet[ia][ib]]] != Q.elements[Q.meet[qa][qb]]:
                return "isomorphism breaks meet"
            if iso[algebra.elements[algebra.join[ia][ib]]] != Q.elements[Q.join[qa][qb]]:
                return "isomorphism breaks join"
    return None


def test_criterion_06_generator_equalities(capsys):
    t0 = time.monotonic()
    U = get_algebra("U")
    claims = [
        ("U in HSP(DM4, IS4)", U, ["DM4", "IS4"]),
        ("DM4 in HSP(U)", entry("DM4").algebra, [U]),
        ("IS4 in HSP(U)", entry("IS4").algebra, [U]),
        ("DM4+ in HSP(DM4, IS2)", entry("DM4+").algebra, ["DM4", "IS2"]),
        ("DM4 in HSP(DM4+)", entry("DM4").algebra, ["DM4+"]),
        ("IS2 in HSP(DM4+)", entry("IS2").algebra, ["DM4+"]),
        ("A5 in HSP(B2, IS3)", entry("A5").algebra, ["B2", "IS3"]),
        ("IS3 in HSP(A5)", entry("IS3").algebra, ["A5"]),
    ]
    failures = []
    for label, algebra, gens in claims:
        resolved = [g if not isinstance(g, str) else entry(g).algebra for g in gens]
        result = hsp_membership(algebra, resolved)
        problem = _recheck(algebra, resolved, result)
        if problem:
            failures.append(f"{label}: {problem}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _report(
        capsys,
        6,
        "mutual generator certificates, no unknowns"
        + (f" {failures}" if failures else ""),
        ok,
        elapsed,
    )


def test_criterion_07_generator_set_enumeration(capsys):
    # independent oracle: direct truth-table evaluation of the constraints
    def implies(p, q):
        return (not p) or q

    oracle = []
    for bits in range(2048):
        s = {i + 1 for i in range(11) if bits & (1 << i)}
        valid = (
            1 in s
            and len(s & {9, 10, 11}) > 0
            and implies(11 in s, 9 in s and 5 in s)
            and implies(10 in s, 9 in s)
            and implies(8 in s, all(k in s for k in (2, 3, 4, 5, 6, 7)))
            and implies(7 in s, all(k in s for k in (2, 3, 5, 6)))
            and implies(6 in s, 2 in s and 5 in s)
            and implies(4 in s, 2 in s and 3 in s)
            and implies(3 in s, 2 in s)
            and ((10 in s and 2 in s) == (9 in s and 2 in s))
            and ((10 in s and 3 in s) == (9 in s and 3 in s))
            and ((10 in s and 4 in s) == (9 in s and 4 in s))
            and ((6 in s) == (2 in s and 5 in s))
            and ((7 in s) == (3 in s and 5 in s))
            and ((8 in s) == (4 in s and 5 in s))
        )
        if valid:
            oracle.append(frozenset(s))
    got = enumerate_generator_sets()
    ok = len(got) == 15 and sorted(map(sorted, got)) == sorted(map(sorted, oracle))
    _report(
        capsys,
        7,
        f"generator-set enumeration yields {len(got)} sets matching the oracle",
        ok,
    )


EXPECTED_COVERS = {
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

# the six separations refining the bipolar block, one per strict chain step
EXPECTED_CHAIN_ROWS = {
    ("Bip(BA)", "Bip(KL)"): "x /\\ ~x = y /\\ ~y",
    ("Bip(KL)", "Bip(DML)"): "x /\\ ~x = (x /\\ ~x) /\\ (y \\/ ~y)",
    ("R(Bip(BA))", "R(Bip(KL))"): "(x /\\ ~x) /\\ y = (x /\\ ~x) /\\ ~y",
    ("R(Bip(KL))", "R(Bip(DML))"): (
        "(x \\/ ~x) /\\ (y \\/ ~y) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
        " = (x /\\ ~x) \\/ (y /\\ ~y)"
    ),
    ("B(BA)", "B(KL)"): (
        "(x /\\ ~x) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
        " = (y /\\ ~y) /\\ ((y /\\ ~y) \\/ (x /\\ ~x))"
    ),
    ("B(KL)", "B(DML)"): (
        "(x \\/ ~x) /\\ (y \\/ ~y) /\\ ((x /\\ ~x) \\/ (y /\\ ~y))"
        " = (x /\\ ~x) \\/ (y /\\ ~y)"
    ),
}


def test_criterion_08_lattice(capsys):
    failures = []
    lattice = build_lattice()
    if len(lattice.nodes) != 23:
        failures.append(f"{len(lattice.nodes)} nodes")
    pairs = {(e.lower, e.upper) for e in lattice.covers}
    if pairs != EXPECTED_COVERS:
        failures.append(
            f"cover mismatch: missing {sorted(EXPECTED_COVERS - pairs)}, "
            f"extra {sorted(pairs - EXPECTED_COVERS)}"
        )
    for e in lattice.covers:
        ident = parse_identity(e.identity)
        if not variety_satisfies(e.lower, ident):
            failures.append(f"{e.identity!r} fails inside {e.lower}")
        if variety_satisfies(e.upper, ident):
            failures.append(f"{e.identity!r} holds throughout {e.upper}")
        witness = entry(e.fails_in).algebra
        if eval_term(witness, ident.lhs, e.counterexample) == eval_term(
            witness, ident.rhs, e.counterexample
        ):
            failures.append(f"stale counterexample on {e.lower} < {e.upper}")
    by_pair = {(e.lower, e.upper): e.identity for e in lattice.covers}
    for pair, text in EXPECTED_CHAIN_ROWS.items():
        if by_pair.get(pair) != text:
            failures.append(f"chain separation changed at {pair}")
    _report(
        capsys,
        8,
        "23-node lattice, expected covers, all separations verified"
        + (f" {failures[:3]}" if failures else ""),
        not failures,
    )


def test_criterion_09_axiomatisation_alignment(capsys):
    lattice = build_lattice()
    names = {v.name for v in lattice.nodes}
    failures = []
    for axiom, top in ((R_ABS, "R(DML)"), (B_ABS, "Bip(DML)"), (RB_ABS, "R(Bip(DML))")):
        expected = set(lattice.below(top))
        actual = {n for n in names if variety_satisfies(n, axiom)}
        if expected != actual:
            failures.append(f"{axiom!r} misaligned with {top}")
    isl_nodes = {"T", "R(T)", "Bip(T)", "R(Bip(T))", "B(T)"}
    if {n for n in names if variety_satisfies(n, COLLAPSE)} != isl_nodes:
        failures.append("meet=join nodes are not the five involutive semilattices")
    same_bounds = {n for n in names if variety_satisfies(n, "x /\\ ~x = x \\/ ~x")}
    above_ba = {n for n in names if lattice.leq("BA", n)}
    if same_bounds != names - above_ba:
        failures.append("x/\\~x = x\\/~x misaligned with the BA-free nodes")
    _report(
        capsys,
        9,
        "marker identities align with the lattice"
        + (f" {failures}" if failures else ""),
        not failures,
    )


@pytest.mark.slow
def test_criterion_10_subdirect_irreducibility_bound(capsys):
    t0 = time.monotonic()
    report = jonsson_check(max_power=3)
    elapsed = time.monotonic() - t0
    counts = (report["subalgebras"], report["quotients"], report["si_quotients"])
    ok = (
        report["ok"]
        and not report["failures"]
        and counts == (12831, 50129, 6164)
        and report["skipped_large"] == 435
        and elapsed < 600.0
    )
    _report(
        capsys,
        10,
        f"{report['si_quotients']} subdirectly irreducible quotients (of "
        f"{report['quotients']}) across "
        f"{report['subalgebras']} subalgebras of powers of U all embed into U"
        + (f"; failures {report['failures'][:2]}" if report["failures"] else ""),
        ok,
        elapsed,
    )
