"""Shows that each workload's check passes real outputs and rejects corrupted
ones: a flipped verdict, a counterexample that satisfies its identity, a
fibre with one element moved.

    python3 bench/selftest.py

Run from the root of a checkout.  It runs `dmbl verify` once (about 20 s on
a 2-CPU machine).  Exits 0 when every check behaves.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import types

import workloads
import oracle

sys.path.insert(0, workloads.SRC)
failures: list[str] = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if problems else 'accepted'}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def run_ops(workload, seed: int):
    spec = workload.spec(seed)
    inputs = workload.setup(spec)
    return spec, inputs, {key: op() for key, op in workload.ops(spec, inputs)}


def identities() -> None:
    w = workloads.WORKLOADS["identities"]
    spec, inputs, outs = run_ops(w, 1)
    for key, out in outs.items():
        expect(f"identities {key} as computed", w.check(spec, inputs, key, out), False)

    key = next(k for k in outs if k.endswith("holds"))
    expect(f"identities {key} with its verdict flipped",
           w.check(spec, inputs, key, (False, {v: "x" for v in "abcd"})), True)
    key = next(k for k in outs if k.endswith("random"))
    expect(f"identities {key} with its verdict flipped",
           w.check(spec, inputs, key, (True, None)), True)

    k = [s["key"] for s in spec["ops"]].index(key)
    algebra, op = inputs[k][0], spec["ops"][k]
    lhs, rhs = op["lhs"], op["rhs"]
    for values in itertools.product(algebra.elements, repeat=4):
        assignment = dict(zip("abcd", values))
        if oracle.evaluate(algebra, lhs, assignment) == oracle.evaluate(algebra, rhs, assignment):
            break
    else:
        raise RuntimeError(f"{key} fails under every assignment")
    expect(f"identities {key} with a counterexample that satisfies it",
           w.check(spec, inputs, key, (False, assignment)), True)


def sums() -> None:
    w = workloads.WORKLOADS["sums"]
    spec, inputs, outs = run_ops(w, 1)
    for key, out in outs.items():
        expect(f"sums {key} as computed", w.check(spec, inputs, key, out), False)

    key = "U"
    system, problems, summed = outs[key]
    fibres = {i: list(F.elements) for i, F in system.fibres.items()}
    big = next(i for i, els in fibres.items() if len(els) > 1)
    other = next(i for i in fibres if i != big)
    fibres[other].append(fibres[big].pop())
    moved = types.SimpleNamespace(fibres={
        i: types.SimpleNamespace(elements=tuple(els)) for i, els in fibres.items()
    })
    expect(f"sums {key} with one element moved to another fibre",
           w.check(spec, inputs, key, (moved, problems, summed)), True)
    expect(f"sums {key} with a validation problem",
           w.check(spec, inputs, key, (system, ["made up"], summed)), True)


def verify() -> None:
    w = workloads.WORKLOADS["verify"]
    spec, inputs, outs = run_ops(w, 1)
    code, stdout, rss = outs["verify"]
    expect("verify as computed", w.check(spec, inputs, "verify", outs["verify"]), False)

    report = json.loads(stdout)
    report["checks"][0]["ok"] = False
    expect("verify with one check's verdict flipped",
           w.check(spec, inputs, "verify", (code, json.dumps(report).encode(), rss)), True)
    expect("verify with exit code 3",
           w.check(spec, inputs, "verify", (3, stdout, rss)), True)
    fewer = stdout.replace(b"23 nodes", b"22 nodes")
    expect("verify with 22 varieties",
           w.check(spec, inputs, "verify", (code, fewer, rss)), True)
    failed = stdout.replace(b" 0 failures", b" 1 failures")
    expect("verify with an embedding failure",
           w.check(spec, inputs, "verify", (code, failed, rss)), True)


if __name__ == "__main__":
    os.environ.pop("DMBL_THREADS", None)
    identities()
    sums()
    verify()
    print("all checks behave" if not failures else f"{len(failures)} checks misbehave")
    sys.exit(1 if failures else 0)
