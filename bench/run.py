"""Benchmark of `dmbl`: one workload per run, one client in a closed loop.

    python3 bench/run.py --workload verify|identities|sums --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports `dmbl` from its
``src``.  An op is run in whole rounds of the workload's op list; another
round starts while the time spent plus one more round fits in S seconds, and
at least one round always runs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a traced run, whose spans are written under ``bench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads

SETUP_PROBES = 5


def setup_probe(workload, spans_path: str | None) -> None:
    """Child side of a set-up probe: read the spec from stdin, set up, and
    print the seconds it took.  With `spans_path`, trace the input building."""
    spec = json.loads(sys.stdin.read())
    start = time.perf_counter()
    if spans_path is None:
        workload.setup(spec)
    else:
        import dmbl.cli  # noqa: F401
        import spans

        tracer = spans.Tracer()
        tracer.install()
        workload.setup(spec)
        tracer.uninstall()
        tracer.write(spans_path)
    print(time.perf_counter() - start)


def time_setup(workload, spec: dict, spans_path: str | None = None) -> float:
    """Set up in a fresh interpreter, as a user of `dmbl` would."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload.name]
    proc = subprocess.run(
        argv + (["--spans", spans_path] if spans_path else []),
        input=json.dumps(spec), capture_output=True, text=True,
        env=workloads.child_env(), cwd=workloads.ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Runs whole rounds of ops, keeps the first output of each op for the
    checks and a digest of every later one."""

    def __init__(self, workload, spec, inputs):
        self.workload, self.spec, self.inputs = workload, spec, inputs
        self.ops = workload.ops(spec, inputs)
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.first: dict[str, tuple[object, object]] = {}
        self.problems: list[str] = []
        self.peak_child_mib = 0.0
        self.tracer = None

    def run_op(self, key: str, op) -> float:
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.record(key, out)
        return elapsed

    def record(self, key: str, out) -> None:
        if not self.workload.in_process:
            self.peak_child_mib = max(self.peak_child_mib, out[2])
        digest = self.workload.digest(out)
        if key not in self.first:
            self.first[key] = (out, digest)
        elif digest != self.first[key][1]:
            self.problems.append(f"{key}: output differs from the first run of the same op")

    def round(self) -> float:
        """One pass over the op list; returns the summed op time."""
        return sum(self.run_op(key, op) for key, op in self.ops)

    def check(self) -> list[str]:
        found = list(self.problems)
        for key, (out, _) in self.first.items():
            found += self.workload.check(self.spec, self.inputs, key, out)
        return found


def run_untraced(workload, spec, inputs, seconds: float) -> tuple[Loop, dict]:
    loop = Loop(workload, spec, inputs)
    phase = time.perf_counter()
    last = None
    while last is None or (time.perf_counter() - phase) + last <= seconds:
        last = loop.round()
    wall = time.perf_counter() - phase
    return loop, {
        "ops_per_s": len(loop.latencies) / wall,
        "p50_ms": statistics.median(loop.latencies) * 1e3 if loop.latencies else None,
        "peak_rss_mib": loop.peak_child_mib if not workload.in_process
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, spec, inputs, seconds: float, tag: str) -> tuple[Loop, dict]:
    """Untraced and traced rounds in turn; per-layer metrics cover one traced
    set-up plus one traced round."""
    import spans

    os.makedirs(workloads.RESULTS, exist_ok=True)
    setup_path = os.path.join(workloads.RESULTS, f"spans-{tag}-setup.json")
    time_setup(workload, spec, setup_path)
    setup_spans = spans.read_spans(setup_path)
    os.remove(setup_path)

    loop = Loop(workload, spec, inputs)
    tracer = spans.Tracer()
    op_spans: list[list] = []
    plain = traced = 0.0
    pairs = 0
    phase = time.perf_counter()
    while pairs == 0 or (time.perf_counter() - phase) + plain / pairs + traced / pairs <= seconds:
        if workload.in_process:
            plain += loop.round()
            loop.tracer = tracer
            tracer.install()
            try:
                traced += loop.round()
            finally:
                tracer.uninstall()
                loop.tracer = None
        else:
            # one op at a time: a round of fresh interpreters is too long
            plain += loop.run_op(*loop.ops[0])
            child_path = os.path.join(workloads.RESULTS, f"spans-{tag}-op{loop.attempted}.json")
            traced += loop.run_op("verify", lambda: workload.traced_op(spec, child_path))
            if os.path.exists(child_path):
                offset = len(op_spans)
                for span in spans.read_spans(child_path):
                    span[3] += offset if span[3] >= 0 else 0
                    span[4] = loop.attempted - 1
                    op_spans.append(span)
                os.remove(child_path)
        pairs += 1
    op_spans = tracer.spans if workload.in_process else op_spans

    with open(os.path.join(workloads.RESULTS, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "outcome"],
                   "setup": setup_spans, "ops": op_spans}, fh)

    setup_t, ops_t = spans.layer_totals(setup_spans), spans.layer_totals(op_spans)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = setup_t[name]["calls"] + ops_t[name]["calls"] / pairs
        metrics[f"{name}.self_s"] = setup_t[name]["self_s"] + ops_t[name]["self_s"] / pairs
    for name, (ratio, _) in spans.OUTCOMES.items():
        calls = setup_t[name]["calls"] + ops_t[name]["calls"]
        hits = setup_t[name]["true"] + ops_t[name]["true"]
        metrics[f"{name}.{ratio}"] = hits / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = traced / plain
    return loop, metrics


def host_facts() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "dmbl", "__init__.py")):
        print(f"error: no dmbl package under {workloads.SRC}; run from a checkout", file=sys.stderr)
        return 2
    # on SIGTERM unwind, so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.pop("DMBL_THREADS", None)
    sys.path.insert(0, workloads.SRC)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.spans)
        return 0

    spec = workload.spec(args.seed)
    inputs = workload.setup(spec)
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    print("inputs", json.dumps({
        "workload": workload.name, "seed": args.seed,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "ops_per_round": len(workload.ops(spec, inputs)),
    }))
    print("host", json.dumps(host_facts()), flush=True)
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        loop, metrics = run_traced(workload, spec, inputs, args.seconds, tag)
        import spans

        units = dict(spans.per_layer_names())
        reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        setup_s = statistics.median(time_setup(workload, spec) for _ in range(SETUP_PROBES))
        loop, measured = run_untraced(workload, spec, inputs, args.seconds)
        reported = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": measured["ops_per_s"], "unit": "1/s"},
            "p50_ms": {"value": measured["p50_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": measured["peak_rss_mib"], "unit": "MiB"},
        }
    if loop.latencies:
        ms = sorted(t * 1e3 for t in loop.latencies)
        print("ops", json.dumps({"completed": len(ms), "min_ms": ms[0],
                                 "p50_ms": statistics.median(ms), "max_ms": ms[-1]}))
    problems = loop.check()
    for p in problems:
        print("incorrect:", p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
