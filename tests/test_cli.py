"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmbl import sums
from dmbl.catalog import build_U_system, catalog_entries, entry, get_algebra
from dmbl.cli import main
from dmbl.decomp import decompose
from dmbl.finalg import (
    FiniteAlgebra,
    algebra_from_json,
    algebra_to_json,
    is_isomorphic,
    power,
    product,
    save_algebra,
)
from dmbl.sums import random_system, save_system, system_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ classify

def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "x /\\ ~x = y \\/ ~y")
    assert code == 0
    assert out == "bipolar, bipolarly-balanced\n"


def test_classify_all_classes(capsys):
    code, out, _ = run(capsys, "classify", "~(x /\\ y) = ~x \\/ ~y")
    assert code == 0
    assert out == (
        "regular, balanced-regular, bipolarly-balanced, "
        "regular-bipolarly-balanced\n"
    )


def test_classify_no_classes(capsys):
    code, out, _ = run(capsys, "classify", "x = y")
    assert code == 0
    assert out == "none\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "x = ~x", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == ["regular"]
    assert data["identity"] == "x = ~x"


def test_classify_parse_error(capsys):
    code, out, err = run(capsys, "classify", "x /\\ (")
    assert code == 1
    assert not out
    assert "error:" in err


@pytest.mark.parametrize(
    "command", [("classify",), ("check", "--algebra", "DM4")]
)
@pytest.mark.parametrize(
    "identity, offset",
    [
        ("~" * 3000 + "x = x", 2799),
        ("(" * 600 + "x" + ")" * 600 + " = x", 200),
        (" /\\ ".join(["x"] * 3000) + " = x", 1002),
    ],
    ids=["negations", "parentheses", "chain"],
)
def test_too_deep_term_is_a_parse_error(capsys, command, identity, offset):
    code, out, err = run(capsys, *command, identity)
    assert code == 1
    assert not out
    assert f"nested deeper than 200 levels (at offset {offset})" in err


def test_term_at_depth_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "DM4", "~" * 200 + "x = x")
    assert code == 0
    assert out == "true\n"


@pytest.mark.parametrize(
    "command", [("classify",), ("check", "--algebra", "DM4")]
)
def test_nested_up_blow_up_is_a_parse_error(capsys, command):
    # each up(t) holds t twice: 30 levels would expand to about 3 * 2^30 nodes
    code, out, err = run(capsys, *command, "up(" * 30 + "x" + ")" * 30 + " = x")
    assert code == 1
    assert not out
    assert "expands to more than 100000 nodes (at offset 42)" in err


def test_term_under_node_limit_is_accepted(capsys):
    # 15 levels expand to 98302 nodes
    deep = "up(" * 15 + "x" + ")" * 15
    code, out, _ = run(capsys, "check", "--algebra", "DM4", deep + " = x \\/ ~x")
    assert code == 0
    assert out == "true\n"


# --------------------------------------------------------------------- check

def test_check_true(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "DM4", "x = x /\\ (x \\/ y)")
    assert code == 0
    assert out == "true\n"


def test_check_false_shows_counterexample(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "IS2", "x = x /\\ (x \\/ y)")
    assert code == 0
    assert out == "false (x=i, y=j)\n"


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--algebra", "IS4", "x \\/ ~x = y \\/ ~y",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "IS4"
    assert data["holds"] is False
    assert set(data["counterexample"]) == {"x", "y"}


def test_check_algebra_from_file(capsys, tmp_path):
    path = tmp_path / "k3.json"
    save_algebra(entry("K3").algebra, path)
    code, out, _ = run(
        capsys, "check", "--algebra", str(path),
        "(x /\\ ~x) /\\ (y \\/ ~y) = x /\\ ~x",
    )
    assert code == 0
    assert out == "true\n"


def test_check_refuses_an_identity_past_the_cost_limit(capsys):
    # 9^10 assignments over U; the scan would take minutes, the refusal none
    names = [f"x{i}" for i in range(10)]
    identity = " /\\ ".join(names) + " = " + " /\\ ".join(names[1:] + names[:1])
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--algebra", "U", identity)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "9^10 assignments" in err and "above the limit" in err


def test_check_unknown_algebra(capsys):
    code, _, err = run(capsys, "check", "--algebra", "nosuch", "x = x")
    assert code == 2
    assert "unknown algebra" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "check", "--algebra", str(tmp_path / "nope.json"), "x = x"
    )
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------ sum / decompose

def test_sum_and_decompose_round_trip(capsys, tmp_path):
    sys_path = tmp_path / "system.json"
    alg_path = tmp_path / "algebra.json"

    code, out, _ = run(capsys, "decompose", "--in", "A5", "--out", str(sys_path))
    assert code == 0
    assert "wrote system" in out

    code, out, _ = run(capsys, "sum", "--system", str(sys_path), "--out", str(alg_path))
    assert code == 0
    assert "wrote" in out

    back = algebra_from_json(json.loads(alg_path.read_text()))
    assert is_isomorphic(back, entry("A5").algebra) is not None


@pytest.mark.parametrize("name", [e.name for e in catalog_entries()])
def test_sum_re_checks_every_catalog_decomposition(capsys, tmp_path, name):
    # decompose does not validate its output, so `dmbl sum` is the
    # independent check of a saved decomposition
    path = tmp_path / "system.json"
    assert run(capsys, "decompose", "--in", name, "--out", str(path))[0] == 0
    assert run(capsys, "sum", "--system", str(path))[0] == 0


def test_sum_to_stdout(capsys, tmp_path):
    sys_path = tmp_path / "system.json"
    save_system(decompose(entry("IS4").algebra), sys_path)
    code, out, _ = run(capsys, "sum", "--system", str(sys_path))
    assert code == 0
    back = algebra_from_json(json.loads(out))
    assert is_isomorphic(back, entry("IS4").algebra) is not None


def test_sum_rejects_invalid_system(capsys, tmp_path):
    blob = system_to_json(decompose(entry("A5").algebra))
    name, dualiser = next(
        (k, v) for k, v in blob["dualisers"].items() if len(v) > 1
    )
    blob["dualisers"][name] = [0] * len(dualiser)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "sum", "--system", str(path))
    assert code == 2
    assert "invalid system" in err


def test_sum_validates_the_system_once(capsys, tmp_path, monkeypatch):
    calls = []
    violations = sums._violations

    def counting(system):
        calls.append(system)
        return violations(system)

    # `validate` and `dpl_sum` both check through `_violations`, so a call
    # of either, from any binding, is counted
    monkeypatch.setattr(sums, "_violations", counting)
    path = tmp_path / "u.json"
    save_system(build_U_system(), path)
    code, _, _ = run(capsys, "sum", "--system", str(path))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("decompose", ("meet", 0, 0), 0.7),
        ("decompose", ("neg",), [1.2, 0.3]),
        ("decompose", ("join", 1, 0), "a"),
        ("decompose", ("meet", 1), 1),
        ("decompose", ("elements",), "ft"),
        ("decompose", (), [1, 2]),
        ("sum", (), []),
        ("sum", ("fibres",), []),
        ("sum", ("fibres", "i", "meet", 0, 0), 0.7),
        ("sum", ("transitions", "i<=j"), ["a"]),
        ("sum", ("dualisers", "nj"), [0]),
    ],
    ids=[
        "float-entry", "float-neg", "string-entry", "int-row", "string-elements",
        "top-level-list", "system-list", "fibres-list", "fibre-float-entry",
        "string-transition", "short-dualiser",
    ],
)
def test_malformed_input_file_is_a_validation_error(capsys, tmp_path, command, path, value):
    # edits B2 (for decompose) or the U system (for sum) at `path`; the empty
    # path replaces the whole file
    if command == "decompose":
        blob, flag = algebra_to_json(entry("B2").algebra), "--in"
    else:
        blob, flag = system_to_json(build_U_system()), "--system"
    if path:
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        blob = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(blob))
    code, _, err = run(capsys, command, flag, str(file))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def _paths(blob, at=()):
    # every place in a JSON value, the value itself first
    yield at
    if isinstance(blob, (dict, list)):
        for key, value in blob.items() if isinstance(blob, dict) else enumerate(blob):
            yield from _paths(value, at + (key,))


_SYSTEMS = {
    "U": system_to_json(build_U_system()),
    "A5": system_to_json(decompose(entry("A5").algebra)),
    "IS3xIS2": system_to_json(random_system(
        random.Random(5), [product(get_algebra("IS3"), get_algebra("IS2"))],
        [get_algebra("D2"), product(get_algebra("D2"), get_algebra("D2"))],
    )),
}


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_sum_of_a_mutated_system_is_a_result_or_an_error(capsys, tmp_path, data):
    # 1-3 mutations of a valid system's JSON: a key deleted, a value set to
    # -1, the length of its list, a string, a float, null or [], or a list
    # shortened; `dmbl sum` answers each with a sum (0) or an error (2)
    blob = json.loads(json.dumps(_SYSTEMS[data.draw(st.sampled_from(sorted(_SYSTEMS)))]))
    for _ in range(data.draw(st.integers(1, 3))):
        *where, last = data.draw(st.sampled_from([p for p in _paths(blob) if p]))
        parent = blob
        for key in where:
            parent = parent[key]
        kind = data.draw(st.sampled_from(["delete", "set", "shorten"]))
        if kind == "delete":
            del parent[last]
        elif kind == "set":
            parent[last] = data.draw(st.sampled_from([-1, len(parent), "a", 0.5, None, []]))
        elif isinstance(parent[last], list) and parent[last]:
            parent[last].pop()
    file = tmp_path / "system.json"
    file.write_text(json.dumps(blob))
    start = time.perf_counter()
    code, _, err = run(capsys, "sum", "--system", str(file))
    assert time.perf_counter() - start < 5
    assert code == 0 or (code == 2 and err.startswith("error:") and "Traceback" not in err)


_ALGEBRAS = {name: algebra_to_json(get_algebra(name)) for name in ("B2", "A5", "U")}


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_a_mutated_algebra_file_is_a_result_or_an_error(capsys, tmp_path, data):
    # 1-3 mutations of a valid algebra's JSON: a key or list item deleted, a
    # value set to -1, the size, a float, a string, true, null or [], a list
    # shortened, or an element name duplicated; `dmbl check` and
    # `dmbl decompose --in` answer each with a result (0) or an error (2)
    blob = json.loads(json.dumps(_ALGEBRAS[data.draw(st.sampled_from(sorted(_ALGEBRAS)))]))
    size = len(blob["elements"])
    for _ in range(data.draw(st.integers(1, 3))):
        *where, last = data.draw(st.sampled_from([p for p in _paths(blob) if p]))
        parent = blob
        for key in where:
            parent = parent[key]
        kind = data.draw(st.sampled_from(["delete", "set", "shorten", "duplicate"]))
        if kind == "delete":
            del parent[last]
        elif kind == "set":
            parent[last] = data.draw(st.sampled_from([-1, size, 0.5, "a", True, None, []]))
        elif kind == "shorten":
            if isinstance(parent[last], list) and parent[last]:
                parent[last].pop()
        elif isinstance(blob.get("elements"), list) and len(blob["elements"]) > 1:
            names = blob["elements"]
            names[data.draw(st.integers(1, len(names) - 1))] = names[0]
    file = tmp_path / "algebra.json"
    file.write_text(json.dumps(blob))
    command = data.draw(st.sampled_from([
        ("check", "--algebra", str(file), "x /\\ ~y = ~(~x \\/ y)"),
        ("check", "--algebra", str(file), "x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)"),
        ("decompose", "--in", str(file)),
    ]))
    start = time.perf_counter()
    code, _, err = run(capsys, *command)
    assert time.perf_counter() - start < 5
    assert code == 0 or (code == 2 and err.startswith("error:") and "Traceback" not in err)


_IDENTITIES = (
    "x /\\ ~x = y /\\ ~y",
    "x \\/ (y /\\ z) = (x \\/ y) /\\ (x \\/ z)",
    "~(x /\\ y) = ~x \\/ ~y",
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_check_of_a_mutated_identity_is_a_result_or_an_error(capsys, data):
    # 1-3 edits of a valid identity: a character deleted, inserted or
    # duplicated; `dmbl check` answers each with a verdict (0), a parse
    # error (1) or a validation error (2)
    text = data.draw(st.sampled_from(_IDENTITIES))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + data.draw(st.sampled_from(list("xyzw~/\\()= 01"))) + text[at:]
        else:
            text = text[:at] + text[at : at + 3] + text[at:]
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--algebra", data.draw(st.sampled_from(["DM4", "U"])), text)
    assert time.perf_counter() - start < 5
    if code == 0:
        assert out.startswith(("true", "false"))
    else:
        assert code in (1, 2) and err.startswith("error:") and "Traceback" not in err


def test_decompose_to_stdout(capsys):
    code, out, _ = run(capsys, "decompose", "--in", "U")
    assert code == 0
    data = json.loads(out)
    assert len(data["fibres"]) == 4
    assert len(data["index"]["elements"]) == 4
    assert sorted(len(f["elements"]) for f in data["fibres"].values()) == [1, 2, 2, 4]


def test_decompose_refuses_an_algebra_past_the_cost_limit_at_once(capsys, tmp_path):
    # 729^3 assignments times the class axioms' steps; the laws of x.y would
    # take seconds before that check
    path = tmp_path / "u3.json"
    save_algebra(power(get_algebra("U"), 3), str(path))
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--in", str(path))
    assert time.perf_counter() - start < 3
    assert code == 2 and not out
    assert "729^3 assignments" in err and "above the limit" in err


@pytest.mark.parametrize(
    "neg, first_line",
    [
        ((2, 4, 0, 3, 1), "error: x is not decomposable:"),
        ((1, 0, 2, 3, 4), "error: x is not a De Morgan bisemilattice"),
    ],
)
def test_decompose_refuses_a_saved_non_member(capsys, tmp_path, neg, first_line):
    # A5 with its negation changed: one breaks a band law, one only the class
    a5 = get_algebra("A5")
    path = tmp_path / "x.json"
    save_algebra(FiniteAlgebra("x", a5.elements, a5.meet, a5.join, neg), str(path))
    code, out, err = run(capsys, "decompose", "--in", str(path))
    assert code == 2 and not out and "Traceback" not in err
    assert err.splitlines()[0] == first_line


# ------------------------------------------------------------------- catalog

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15  # 11 entries + 4 auxiliary
    assert any("DM4+" in line for line in lines)
    assert any(line.lstrip().startswith("-  U") for line in lines)


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [e["name"] for e in data["entries"]][:4] == ["IS1", "B2", "K3", "DM4"]
    assert len(data["entries"]) == 11
    assert {a["name"] for a in data["auxiliary"]} == {"D1", "D2", "D2xD2", "U"}


def test_catalog_single_algebra(capsys):
    code, out, _ = run(capsys, "catalog", "--algebra", "U", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "U"
    assert len(data["elements"]) == 9

    code, out, _ = run(capsys, "catalog", "--algebra", "IS3")
    assert code == 0
    assert "IS3 (3 elements)" in out
    assert "neg:" in out


def test_catalog_algebra_takes_names_only(capsys, tmp_path):
    # unlike check --algebra, catalog --algebra reads no file
    path = tmp_path / "dm4.json"
    save_algebra(entry("DM4").algebra, path)
    code, out, err = run(capsys, "catalog", "--algebra", str(path))
    assert code == 2 and not out
    assert err.startswith("error: unknown algebra") and "Traceback" not in err


# ------------------------------------------------------------------- lattice

def test_lattice_text(capsys):
    code, out, _ = run(capsys, "lattice")
    assert code == 0
    assert "23 varieties:" in out
    assert "40 covering pairs:" in out
    assert "Bip^-(DML)" in out


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 23
    assert len(data["covers"]) == 40
    assert all({"lower", "upper", "identity", "failsIn"} <= set(c) for c in data["covers"])


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 40


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "lattice", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# -------------------------------------------------------------------- verify

def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--skip-jonsson")
    assert code == 0
    assert "all 38 checks passed" in out
    assert "FAIL" not in out


VERIFY_SHA256 = "1f8f84de0aed896cffe066dda1e6b6ea28a8e194de39a794b24fbe0dbaea66fa"


def test_verify_report_is_pinned(capsys):
    # the full report, Jónsson search included: 39 checks, 522 subalgebras,
    # 3233 quotients, 651 subdirectly irreducible ones, no failure
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256


def test_verify_report_without_fork_is_pinned(capsys, monkeypatch):
    # where os.fork does not exist the search runs inline, with the same report
    monkeypatch.delattr(os, "fork")
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--skip-jonsson", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["checks"]) == 38
