"""Benchmark for majroman: time to a validated, proven optimum.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree_audit --seed 1 --seconds 28 --trace 0

Workloads: tree_audit, family_bb, bb_reach, small_oracle (see
workloads.py and README.md). The program is imported from ``src/`` of the
checkout; the benchmark exits with an error if it is missing.

With ``--trace 0`` the run repeats untraced passes for ``--seconds`` and
reports the end-to-end metrics (medians over passes). With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced pass with the median wall time. Every pass is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and the
environment stamp are written under ``.perfbench/`` in the checkout.

``--write-reference`` records the default seed's outputs and exact counts
in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_RUNS = 5
DEFAULT_SEED = 1  # the seed whose outputs reference.json pins

WORKLOAD_NAMES = ("tree_audit", "family_bb", "bb_reach", "small_oracle")

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "proven_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

BF, BB = "solver.brute_force", "solver.branch_and_bound"

PER_LAYER_UNITS = {
    "graph.generate.calls": "count",
    "graph.generate.s": "s",
    "labeling.validate.calls": "count",
    "labeling.validate.s": "s",
    f"{BF}.calls": "count",
    f"{BF}.s": "s",
    f"{BF}.labelings": "count",
    f"{BF}.labelings_per_s": "1/s",
    f"{BB}.calls": "count",
    f"{BB}.s": "s",
    f"{BB}.nodes": "count",
    f"{BB}.nodes_per_s": "1/s",
    f"{BB}.truncated": "count",
    "solver.solves_per_instance": "ratio",
    "formulas.predict.calls": "count",
    "formulas.predict.s": "s",
    "certificates.calls": "count",
    "certificates.self_s": "s",
    "trees.tree_profile.s": "s",
    "trees.find_gamma_set.calls": "count",
    "trees.find_gamma_set.s": "s",
    "harness.check.self_s": "s",
    "harness.export.s": "s",
    "cli.main.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}

# the exact counts that must repeat between runs of the same code
EXACT_COUNTS = (
    f"{BF}.calls",
    f"{BF}.labelings",
    f"{BB}.calls",
    f"{BB}.nodes",
    "solver.solves_per_instance",
    "labeling.validate.calls",
)


def _import_program():
    """Import majroman from this checkout's src/, never from elsewhere."""
    if not (SRC / "majroman" / "__init__.py").is_file():
        print(f"error: {SRC / 'majroman'} not found; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import majroman

    if Path(majroman.__file__).resolve().parent != (SRC / "majroman").resolve():
        print(f"error: majroman imported from {majroman.__file__}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# environment stamp


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    """sha256 over src/majroman/*.py, so runs of one code state can be matched
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "majroman").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, traced, wall, output, outcomes, probe):
        self.traced = traced
        self.wall = wall
        self.output = output
        self.outcomes = outcomes
        self.spans = probe.spans
        self.counts = _solver_counts(probe.solves, len(outcomes))
        self.proven = sum(o.proven for o in outcomes)
        self.failed = [o for o in outcomes if o.failure]


def _solver_counts(solves, instances) -> dict:
    bf = [s.result for s in solves if s.layer == BF]
    bb = [s.result for s in solves if s.layer == BB]
    return {
        f"{BF}.calls": len(bf),
        f"{BF}.labelings": sum(r.nodes_explored for r in bf),
        f"{BB}.calls": len(bb),
        f"{BB}.nodes": sum(r.nodes_explored for r in bb),
        f"{BB}.truncated": sum(not r.proven for r in bb),
        "solver.solves_per_instance": (len(bf) + len(bb)) / instances,
    }


def run_pass(workload, traced: bool, reference) -> Pass:
    from probe import Probe

    probe = Probe(timed=traced)
    probe.install()
    try:
        t0 = time.perf_counter()
        output = workload.run_pass(probe)
        wall = time.perf_counter() - t0
    finally:
        probe.remove()
    outcomes = workload.check(output, probe.solves, reference)
    return Pass(traced, wall, output, outcomes, probe)


def layer_metrics(p: Pass) -> dict:
    calls = defaultdict(int)
    self_s = defaultdict(float)
    top = 0.0
    for span in p.spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        if span.parent is None:
            top += span.end - span.start
    bf_s, bb_s = self_s[BF], self_s[BB]
    c = p.counts
    m = {
        "graph.generate.calls": calls["graph.generate"],
        "graph.generate.s": self_s["graph.generate"],
        "labeling.validate.calls": calls["labeling.validate"],
        "labeling.validate.s": self_s["labeling.validate"],
        f"{BF}.calls": calls[BF],
        f"{BF}.s": bf_s,
        f"{BF}.labelings": c[f"{BF}.labelings"],
        f"{BF}.labelings_per_s": c[f"{BF}.labelings"] / bf_s if bf_s else 0.0,
        f"{BB}.calls": calls[BB],
        f"{BB}.s": bb_s,
        f"{BB}.nodes": c[f"{BB}.nodes"],
        f"{BB}.nodes_per_s": c[f"{BB}.nodes"] / bb_s if bb_s else 0.0,
        f"{BB}.truncated": c[f"{BB}.truncated"],
        "solver.solves_per_instance": c["solver.solves_per_instance"],
        "formulas.predict.calls": calls["formulas.predict"],
        "formulas.predict.s": self_s["formulas.predict"],
        "certificates.calls": calls["certificates"],
        "certificates.self_s": self_s["certificates"],
        "trees.tree_profile.s": self_s["trees.tree_profile"],
        "trees.find_gamma_set.calls": calls["trees.find_gamma_set"],
        "trees.find_gamma_set.s": self_s["trees.find_gamma_set"],
        "harness.check.self_s": self_s["harness.check"],
        "harness.export.s": self_s["harness.export"],
        "cli.main.self_s": self_s["cli.main"],
        "bench.self_s": p.wall - top,
        "trace.wall_s": p.wall,
    }
    # fails if a span's layer has no metric above
    layer_sum = sum(v for k, v in m.items() if PER_LAYER_UNITS[k] == "s" and k != "trace.wall_s")
    if abs(layer_sum - p.wall) > 1e-6 * max(1.0, p.wall):
        raise RuntimeError(f"layer self times sum to {layer_sum}, wall is {p.wall}")
    return m


# ---------------------------------------------------------------------------
# set-up time


def _setup_only(args) -> None:
    """Child process: set up as a measured run does, then report ready."""
    workload = _build(args.workload, args.seed)
    workload.warm_up()
    print("READY", flush=True)


def measure_setup(args) -> list:
    """Process start to ready, in fresh interpreters: import, inputs, warm-up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "READY" or rc != 0:
            raise RuntimeError(f"set-up child failed (exit code {rc})")
        samples.append(elapsed)
    return samples


def _build(name: str, seed: int):
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    return WORKLOADS[name](seed, OUT)


def _load_reference(name: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None, None
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(name)
    if data is None:
        return None, None
    return data["output"], data["counts"]


# ---------------------------------------------------------------------------
# main


def measure(args, env) -> dict:
    setup = measure_setup(args) if not args.trace else []
    workload = _build(args.workload, args.seed)
    workload.warm_up()
    reference, ref_counts = _load_reference(args.workload, args.seed)
    errors = []
    passes = []
    kinds = [False, True] if args.trace else [False]
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = kinds[len(passes) % len(kinds)]
        done = [p for p in passes if p.traced == traced]
        have_all = all(any(p.traced == k for p in passes) for k in kinds)
        if have_all and time.perf_counter() + done[-1].wall > deadline:
            break
        p = run_pass(workload, traced, reference)
        passes.append(p)
        print(
            f"pass {len(passes)} {'traced' if traced else 'untraced'} "
            f"wall={p.wall:.4f}s proven={p.proven}/{len(p.outcomes)} "
            f"failed={len(p.failed)}"
        )
        for o in p.failed[:5]:
            print(f"  FAILED {o.instance}: {o.failure}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # exact counts must repeat across passes, traced or not
    counts = passes[0].counts
    for p in passes[1:]:
        if p.counts != counts:
            errors.append(f"solver counts differ between passes: {counts} vs {p.counts}")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall_s = statistics.median(p.wall for p in untraced)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    proven = sum(p.proven for p in passes)

    if not args.trace:
        metrics = {
            "wall_s": wall_s,
            "instances_per_s": statistics.median(p.proven / p.wall for p in untraced),
            "proven_frac": proven / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"setup samples: {' '.join(f'{s:.4f}' for s in setup)}")
    else:
        chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
        metrics = layer_metrics(chosen)
        # spans count the same calls the untraced OptResults do
        for key in (f"{BF}.calls", f"{BB}.calls"):
            if metrics[key] != counts[key]:
                errors.append(f"traced {key}={metrics[key]} but untraced count {counts[key]}")
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / wall_s - 1.0
        )
        units = PER_LAYER_UNITS
        _write_spans(args, env, traced)
        if ref_counts is not None:
            exact = {k: metrics[k] for k in EXACT_COUNTS}
            same = exact == ref_counts
            print(f"exact counts vs reference: {'identical' if same else 'DIFFERENT'}")
            for k in EXACT_COUNTS:
                print(f"  {k}: {metrics[k]} (reference {ref_counts.get(k)})")

    print(
        f"summary {args.workload} seed={args.seed} passes={len(passes)} "
        f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}"
    )
    for k, v in metrics.items():
        print(f"  {k} = {v} {units[k]}")
    for e in errors:
        print(f"ERROR {e}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stamp = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    stamp.write_text(json.dumps({"env": env, "args": vars(args), **result}, indent=1))
    return result


def _write_spans(args, env, traced) -> None:
    path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}) + "\n")
        for i, p in enumerate(traced):
            for j, s in enumerate(p.spans):
                fh.write(json.dumps({
                    "pass": i, "id": j, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "instance": s.instance, "self_s": s.self_s,
                }) + "\n")


def write_reference() -> None:
    out = {"seed": DEFAULT_SEED, "env": environment(), "workloads": {}}
    for name in WORKLOAD_NAMES:
        workload = _build(name, DEFAULT_SEED)
        workload.warm_up()
        plain = run_pass(workload, False, None)
        output = workload.reference_output(plain.output)
        traced = run_pass(workload, True, None)
        bad = plain.failed + traced.failed
        if bad:
            raise RuntimeError(f"{name}: {bad[0].instance}: {bad[0].failure}")
        metrics = layer_metrics(traced)
        out["workloads"][name] = {
            "output": output,
            "counts": {k: metrics[k] for k in EXACT_COUNTS},
        }
        print(f"{name}: {out['workloads'][name]['counts']}")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.setup_only:
        _setup_only(args)
        return
    if args.write_reference:
        write_reference()
        return
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result = measure(args, env)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
