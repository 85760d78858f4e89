"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os

import pytest

from dmbl import cli, sums
from dmbl.catalog import build_U_system, entry
from dmbl.cli import main
from dmbl.decomp import decompose
from dmbl.finalg import algebra_from_json, algebra_to_json, is_isomorphic, save_algebra
from dmbl.sums import save_system, system_to_json, validate


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

    def counting(system):
        calls.append(system)
        return validate(system)

    # also counted if cli calls validate through a binding of its own
    monkeypatch.setattr(sums, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting, raising=False)
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


def test_decompose_to_stdout(capsys):
    code, out, _ = run(capsys, "decompose", "--in", "U")
    assert code == 0
    data = json.loads(out)
    assert len(data["fibres"]) == 4
    assert len(data["index"]["elements"]) == 4
    assert sorted(len(f["elements"]) for f in data["fibres"].values()) == [1, 2, 2, 4]


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
