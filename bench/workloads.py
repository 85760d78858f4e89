"""The three workloads: how each makes its inputs from a seed, sets up, runs
one op and checks the op's output.

A workload's ``spec`` is plain JSON made by the benchmark from the seed; its
``setup`` is the part a user of `dmbl` pays (importing the package and
building the inputs through it), and is what `setup_s` times.  Modules of
`dmbl` are imported inside functions so that a set-up probe times them.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's `dmbl` first on the
    path, the thread default of `dmbl` (DMBL_THREADS unset), fixed hashing."""
    env = dict(os.environ)
    env.pop("DMBL_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _product(names):
    from dmbl.catalog import get_algebra
    from dmbl.finalg import product

    algebra = get_algebra(names[0])
    for name in names[1:]:
        algebra = product(algebra, get_algebra(name))
    return algebra


# ---------------------------------------------------------------------------
# verify: one complete `dmbl verify --format json` in a fresh interpreter

VERIFY_ARGS = ["verify", "--format", "json"]


def run_child(argv: list[str], stderr_name: str) -> tuple[int, bytes, float]:
    """Run a child interpreter to its end: exit code, stdout, peak RSS in MiB."""
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, stderr_name), "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out, usage.ru_maxrss / 1024


class Verify:
    name = "verify"
    in_process = False

    def spec(self, seed: int) -> dict:
        # the command has no inputs to draw; the seed changes nothing
        return {"argv": VERIFY_ARGS}

    def setup(self, spec: dict):
        import dmbl.cli  # noqa: F401  -- the child's start-up, cold

    def ops(self, spec: dict, inputs) -> list[tuple[str, object]]:
        # two ops per round, so a run takes about 40 s; more ops per run did
        # not steady the median, which follows the host's speed over minutes
        op = ("verify", lambda: run_child(["-m", "dmbl.cli", *spec["argv"]], "verify.stderr"))
        return [op] * 2

    def traced_op(self, spec: dict, spans_path: str):
        launcher = os.path.join(BENCH_DIR, "launch.py")
        return run_child([launcher, spans_path, *spec["argv"]], "verify-traced.stderr")

    def digest(self, out):
        return out[0], out[1]

    def check(self, spec: dict, inputs, key: str, out) -> list[str]:
        code, stdout, _ = out
        if code != 0:
            return [f"dmbl verify exited with {code}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"dmbl verify printed no JSON report: {exc}"]
        problems = []
        checks = report.get("checks") or []
        if not checks:
            problems.append("the report has no checks")
        for c in checks:
            if c.get("ok") is not True:
                problems.append(f"check not ok: {c.get('check')}: {c.get('detail')}")
        if report.get("ok") is not True:
            problems.append("the report is not ok")
        details = {c.get("check", ""): c.get("detail", "") for c in checks}
        lattice = [d for k, d in details.items() if k.startswith("subvariety lattice")]
        if not lattice or not re.match(r"23 nodes\b", lattice[0]):
            problems.append(f"the lattice does not have 23 varieties: {lattice}")
        search = [d for k, d in details.items() if "embed into U" in k]
        found = re.search(r"(\d+) failures", search[0]) if search else None
        if found is None or int(found.group(1)) != 0:
            problems.append(f"the embedding search does not report 0 failures: {search}")
        return problems


# ---------------------------------------------------------------------------
# identities: in-process satisfies(A, e), A with 81 elements, e in 4 variables

VARS = ("a", "b", "c", "d")

# laws of De Morgan bisemilattices, in x, y, z; the seed picks a law or its
# dual (meet and join swapped), which has the same shape
LAWS = {
    "distributive": (
        ("meet", ("var", "x"), ("join", ("var", "y"), ("var", "z"))),
        ("join", ("meet", ("var", "x"), ("var", "y")), ("meet", ("var", "x"), ("var", "z"))),
    ),
    "de_morgan": (
        ("neg", ("meet", ("var", "x"), ("var", "y"))),
        ("join", ("neg", ("var", "x")), ("neg", ("var", "y"))),
    ),
    "associative": (
        ("meet", ("meet", ("var", "x"), ("var", "y")), ("var", "z")),
        ("meet", ("var", "x"), ("meet", ("var", "y"), ("var", "z"))),
    ),
}

# the terms put in for x, y and z; together they use all four variables,
# and which variables meet at each node is fixed, because satisfies pays
# n^k for a node over k distinct variables: only the meet/join labels vary
SUBSTITUTES = {
    "x": ("op", ("var", "a"), ("neg", ("var", "b"))),
    "y": ("op", ("var", "c"), ("neg", ("var", "d"))),
    "z": ("op", ("var", "b"), ("neg", ("var", "c"))),
}

# one slot per algebra of a round; slot 0 is always U x U, the others draw
# from 81-element products, so every op evaluates over the same 81^4 grid
SLOT_LAWS = ("distributive", "de_morgan", "associative")
PRODUCTS_81 = (
    ("U", "K3", "IS3"),
    ("U", "B2+", "IS3"),
    ("U", "K3", "B2+"),
    ("K3", "B2+", "IS3", "IS3"),
    ("K3", "K3", "B2+", "IS3"),
    ("B2+", "B2+", "K3", "IS3"),
)


def _relabel(t, rng, ops=("op",)):
    """Make each binary node whose label is in `ops` a random meet or join."""
    kind = t[0]
    if kind == "var":
        return t
    if kind == "neg":
        return ("neg", _relabel(t[1], rng, ops))
    label = rng.choice(("meet", "join")) if kind in ops else kind
    return (label, _relabel(t[1], rng, ops), _relabel(t[2], rng, ops))


def _dual(t):
    swap = {"meet": "join", "join": "meet"}
    if t[0] == "var":
        return t
    return (swap.get(t[0], t[0]), *(_dual(c) for c in t[1:]))


def _substitute(t, subs):
    if t[0] == "var":
        return subs[t[1]]
    return (t[0], *(_substitute(c, subs) for c in t[1:]))


def _law_instance(rng, law):
    lhs, rhs = LAWS[law]
    if rng.random() < 0.5:
        lhs, rhs = _dual(lhs), _dual(rhs)
    subs = {v: _relabel(t, rng) for v, t in SUBSTITUTES.items()}
    return _substitute(lhs, subs), _substitute(rhs, subs)


def _random_twin(rng, lhs, rhs, factors):
    """An identity with the same tree and variable at each leaf as lhs = rhs,
    every meet or join drawn at random, that fails in the product of
    `factors`: it fails there exactly when it fails in some factor."""
    for _ in range(1000):
        l2 = _relabel(lhs, rng, ("meet", "join"))
        r2 = _relabel(rhs, rng, ("meet", "join"))
        if not all(oracle.identity_holds(f, l2, r2) for f in factors):
            return l2, r2
    raise RuntimeError("no failing identity of this shape")


class Identities:
    name = "identities"
    in_process = True

    def spec(self, seed: int) -> dict:
        from dmbl.catalog import get_algebra

        rng = random.Random(seed)
        picks = [("U", "U")] + [list(p) for p in rng.sample(PRODUCTS_81, len(SLOT_LAWS) - 1)]
        ops = []
        for slot, (law, names) in enumerate(zip(SLOT_LAWS, picks)):
            factors = [get_algebra(n) for n in names]
            lhs, rhs = _law_instance(rng, law)
            holds = all(oracle.identity_holds(f, lhs, rhs) for f in factors)
            ops.append({"key": f"{slot}-{law}-holds", "factors": list(names),
                        "lhs": lhs, "rhs": rhs, "law": True, "holds": holds})
            l2, r2 = _random_twin(rng, lhs, rhs, factors)
            ops.append({"key": f"{slot}-{law}-random", "factors": list(names),
                        "lhs": l2, "rhs": r2, "law": False, "holds": False})
        rng.shuffle(ops)
        for op in ops:
            op["text"] = oracle.term_text(op["lhs"]) + " = " + oracle.term_text(op["rhs"])
        return {"ops": ops}

    def setup(self, spec: dict):
        import dmbl.cli  # noqa: F401
        from dmbl.terms import parse_identity

        algebras = {}
        inputs = []
        for op in spec["ops"]:
            names = tuple(op["factors"])
            if names not in algebras:
                algebras[names] = _product(names)
            inputs.append((algebras[names], parse_identity(op["text"])))
        return inputs

    def ops(self, spec: dict, inputs) -> list[tuple[str, object]]:
        from dmbl import finalg  # looked up per call, so traced runs see wrappers

        def op(algebra, identity):
            res = finalg.satisfies(algebra, identity)
            return res.holds, res.counterexample

        return [(s["key"], (lambda a=a, e=e: op(a, e))) for s, (a, e) in zip(spec["ops"], inputs)]

    def digest(self, out):
        holds, cex = out
        return holds, None if cex is None else tuple(sorted(cex.items()))

    def check(self, spec: dict, inputs, key: str, out) -> list[str]:
        k = [s["key"] for s in spec["ops"]].index(key)
        op, (algebra, _) = spec["ops"][k], inputs[k]
        holds, cex = out
        lhs, rhs = op["lhs"], op["rhs"]
        if op["law"] and not (holds and op["holds"]):
            return [f"{key}: an instance of a De Morgan-bisemilattice law fails"]
        if holds != op["holds"]:
            return [f"{key}: verdict {holds}, the factors say {op['holds']}"]
        if holds:
            return [] if cex is None else [f"{key}: a holding identity came with a counterexample"]
        if not isinstance(cex, dict) or sorted(cex) != sorted(oracle.term_vars(lhs) | oracle.term_vars(rhs)):
            return [f"{key}: counterexample {cex!r} does not assign exactly the identity's variables"]
        if any(v not in algebra.elements for v in cex.values()):
            return [f"{key}: counterexample {cex!r} assigns a non-element of {algebra.name}"]
        if oracle.evaluate(algebra, lhs, cex) == oracle.evaluate(algebra, rhs, cex):
            return [f"{key}: counterexample {cex!r} satisfies the identity"]
        return []


# ---------------------------------------------------------------------------
# sums: decompose, JSON round trip of the system, validate and dpl_sum

# 13 algebras from 9 to 81 elements, so the median op is one algebra's
SUM_ALGEBRAS = (
    ("U",),
    ("DM4", "K3"),
    ("A5", "IS3"),
    ("U", "IS2"),
    ("DM4+", "K3+"),
    ("DM4+", "DM4+"),
    ("A5", "A5"),
    ("U", "K3+"),
    ("K3+", "IS3", "IS3"),
    ("U", "A5"),
    ("DM4+", "IS3", "IS3"),
    ("U", "DM4", "IS2"),
    ("U", "U"),
)


def sum_names(system) -> dict[str, str]:
    """The name map (k,a) -> a from the sum's elements to the fibres'."""
    return {f"({i},{a})": a for i, F in system.fibres.items() for a in F.elements}


class Sums:
    name = "sums"
    in_process = True

    def spec(self, seed: int) -> dict:
        from dmbl.catalog import get_algebra

        rng = random.Random(seed)
        ops = []
        for names in SUM_ALGEBRAS:
            n = 1
            for name in names:
                n *= get_algebra(name).size
            order = list(range(n))
            rng.shuffle(order)
            ops.append({"key": "x".join(names), "factors": list(names), "order": order})
        rng.shuffle(ops)
        return {"ops": ops}

    def setup(self, spec: dict):
        import dmbl.cli  # noqa: F401

        return [_product(op["factors"]).permute(op["order"]) for op in spec["ops"]]

    def ops(self, spec: dict, inputs) -> list[tuple[str, object]]:
        from dmbl import decomp, sums  # looked up per call, so traced runs see wrappers

        def op(algebra):
            system = decomp.decompose(algebra)
            text = json.dumps(sums.system_to_json(system), indent=2, sort_keys=True)
            system = sums.system_from_json(json.loads(text))
            return system, sums.validate(system), sums.dpl_sum(system)

        return [(s["key"], (lambda a=a: op(a))) for s, a in zip(spec["ops"], inputs)]

    def digest(self, out):
        system, problems, summed = out
        fibres = tuple((i, F.elements) for i, F in system.fibres.items())
        return hash((tuple(problems), fibres, summed.elements, summed.meet, summed.join, summed.neg))

    def check(self, spec: dict, inputs, key: str, out) -> list[str]:
        algebra = inputs[[s["key"] for s in spec["ops"]].index(key)]
        system, problems, summed = out
        found = [f"{key}: validate reports {p}" for p in problems]
        fibres = {frozenset(F.elements) for F in system.fibres.values()}
        if fibres != oracle.d_classes(algebra) or sum(len(F.elements) for F in system.fibres.values()) != len(algebra.elements):
            found.append(f"{key}: the fibres are not the D-classes of x.y = x /\\ (x \\/ y)")
        found += [f"{key}: dpl_sum is not the algebra: {p}"
                  for p in oracle.isomorphic_under(summed, algebra, sum_names(system))]
        return found


WORKLOADS = {w.name: w for w in (Verify(), Identities(), Sums())}
