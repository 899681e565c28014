"""Benchmark of the trisect package: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it records provenance and a summary.  With --trace 0 the
metrics are the end-to-end ones, measured untraced.  With --trace 1 the
run alternates untraced and traced passes and reports the per-layer
metrics; the spans go to perfbench/out/trace-<workload>.csv.gz.
perfbench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from checkout import OUT, ROOT, SRC, CheckoutError, child_env, import_trisect
from tracing import Tracer, Untraced

# workloads imports trisect, so it is imported inside functions, after
# import_trisect has put the checkout's src/ first on the path.

WORKLOAD_NAMES = ("cli-single", "batch-mixed", "census", "orbit-walk")
MIN_PASSES = 3
MIN_SAMPLES = 200  # a p95 needs ten samples beyond it
SETUP_ROUNDS = 9
REF_LOOPS = 2_000
# Times are reported at the host speed on which the reference loop runs
# this many times a second; see README.md, "Host phases".
REF_NOMINAL_PER_S = 400.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layers the harness calls, and whether their rejections are counted.
LAYERS = (
    ("cli.parse_document", True),
    ("diagram.validate_torus", True),
    ("diagram.validate_genus2", True),
    ("diagram.surgery_project", True),
    ("lattice.symplectic_reduce", False),
    ("moves.canonical_form", False),
    ("lattice.sl2_complete", False),
    ("moves.orbit", False),
    ("vertical.six_tuple", False),
    ("vertical.classify", False),
    ("diagram.theorem_hypotheses", False),
    ("diagram.intersection_invariant", False),
    ("moves.apply_sigma2", False),
)
# Counters as (metric, counter, layer whose calls are the base).
RATIOS = (
    ("diagram.surgery_project.std_a1_share", "diagram.surgery_project.std_a1", "diagram.surgery_project"),
    ("moves.canonical_form.unique_ratio", "moves.canonical_form.unique", "moves.canonical_form"),
    ("vertical.classify.match_ratio", "vertical.classify.match", "vertical.classify"),
    ("moves.orbit.nodes_mean", "moves.orbit.nodes", "moves.orbit"),
)


def per_layer_units() -> dict[str, str]:
    from workloads import VERBS

    units = {
        "python.start_ms": "ms",
        "cli.import_ms": "ms",
        "host.ref_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
    }
    units.update({f"cli.main.{verb}.us_p50": "us" for verb in VERBS})
    for layer, with_raised in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_ms"] = "ms"
        units[f"{layer}.us_p50"] = "us"
        if with_raised:
            units[f"{layer}.raised"] = "count"
    for metric, _, _ in RATIOS:
        units[metric] = "count" if metric.endswith("_mean") else "ratio"
    return units


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ref_pair(v, w):
    return v[0] * w[1] - v[1] * w[0]


def _ref_loop() -> int:
    # Fixed pure-Python work of the package's kind: small tuples, calls,
    # generator expressions, a gcd loop and a dict.  It never changes, so
    # its speed tracks the host, not the code under test.
    acc, seen = 0, {}
    for i in range(REF_LOOPS):
        v, w = (i % 7 - 3, i % 5 - 2), (i % 3 - 1, 1)
        p = _ref_pair(v, w)
        t = tuple(x + p * y for x, y in zip(v, w))
        a, b = abs(t[0]) + 1, abs(t[1]) + 1
        while b:
            a, b = b, a % b
        seen[t] = seen.get(t, 0) + a
        acc += p
    return acc + len(seen)


def host_ref_per_s() -> float:
    """Reference loops per second: the speed of the host right now."""
    t0 = perf_counter()
    _ref_loop()
    return 1.0 / (perf_counter() - t0)


def measure_setup() -> dict:
    """Fresh interpreters with warm bytecode: bare start, and import trisect.cli.

    Each start is timed between host probes and scaled to the nominal
    host speed, as the workloads' operations are.
    """
    env = child_env()
    bare = [sys.executable, "-c", "pass"]
    imp = [sys.executable, "-c", "import trisect.cli"]
    probe = host_ref_per_s()

    def scaled(cmd):
        nonlocal probe
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t = perf_counter() - t0
        before, probe = probe, host_ref_per_s()
        return t * (before + probe) / 2 / REF_NOMINAL_PER_S

    scaled(imp)  # fills the bytecode cache
    bares, imports = [], []
    for _ in range(SETUP_ROUNDS):
        bares.append(scaled(bare))
        imports.append(scaled(imp))
    start, total = statistics.median(bares), statistics.median(imports)
    return {"setup_s": total, "python.start_ms": start * 1e3, "cli.import_ms": (total - start) * 1e3}


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(args, workload) -> dict:
    import tomllib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    return {
        "package_version": version,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": workload.describe(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(args) -> tuple[dict, dict]:
    from workloads import WORKLOADS, CliSingle

    workload = WORKLOADS[args.workload](args.seed)
    info = {"provenance": provenance(args, workload)}
    # One CPU for the harness and its children, so that each host probe
    # measures the CPU the work around it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = measure_setup()
    if isinstance(workload, CliSingle):
        workload.warm()
    untraced = Untraced()
    tracer = Tracer() if args.trace else None
    passes = []
    samples = 0
    probes = [host_ref_per_s()]
    start = perf_counter()
    while True:
        # Traced and untraced passes alternate, a whole round at a time.
        tr = tracer if tracer is not None and len(passes) // workload.round_passes % 2 else untraced
        p = workload.run_pass(len(passes), tr)
        probes.append(host_ref_per_s())
        p.scale = (probes[-2] + probes[-1]) / 2 / REF_NOMINAL_PER_S
        passes.append((tr.traced, p))
        samples += len(p.times)
        if (
            perf_counter() - start >= args.seconds
            and workload.at_boundary()
            and len(passes) >= MIN_PASSES
            and samples >= MIN_SAMPLES
            and (tracer is None or len(tracer) > 0)
        ):
            break
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliSingle) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    attempted = sum(len(p.times) for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    plain = [p for traced, p in passes if not traced]
    raw = sorted(t for p in plain for t in p.times)
    info["summary"] = {
        "op": workload.op,
        "passes": len(passes),
        "fail_ratio": failed / attempted,
        "errors": [e for _, p in passes for e in p.errors][:10],
        "host.ref_per_s": statistics.median(probes),
        "unscaled": {
            "op_ms_p50": percentile(raw, 0.50) * 1e3,
            "op_ms_p95": percentile(raw, 0.95) * 1e3,
            "ops_per_s": len(raw) / sum(raw),
        },
    }
    if tracer is None:
        times = sorted(t * p.scale for p in plain for t in p.times)
        values = {
            "setup_s": setup["setup_s"],
            "op_ms_p50": percentile(times, 0.50) * 1e3,
            "op_ms_p95": percentile(times, 0.95) * 1e3,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        if isinstance(workload, CliSingle):
            workload.trace_in_process(tracer)

        def busy(ps):
            return statistics.median(sum(p.times) * p.scale for p in ps)

        values = layer_metrics(tracer, setup, statistics.median(probes))
        values["trace.overhead_ratio"] = busy(p for t, p in passes if t) / busy(plain)
        units = per_layer_units()
        tracer.write(OUT / f"trace-{args.workload}.csv.gz", info)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def layer_metrics(tracer, setup: dict, host: float) -> dict:
    from workloads import VERBS

    durations = tracer.durations_ns()
    values = {
        "python.start_ms": setup["python.start_ms"],
        "cli.import_ms": setup["cli.import_ms"],
        "host.ref_per_s": host,
    }

    def p50_us(name):
        d = durations.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    for verb in VERBS:
        values[f"cli.main.{verb}.us_p50"] = p50_us(f"cli.main.{verb}")
    for layer, with_raised in LAYERS:
        d = durations.get(layer, [])
        values[f"{layer}.calls"] = len(d)
        values[f"{layer}.busy_ms"] = sum(d) / 1e6
        values[f"{layer}.us_p50"] = p50_us(layer)
        if with_raised:
            values[f"{layer}.raised"] = tracer.raised[layer]
    for metric, counter, layer in RATIOS:
        calls = len(durations.get(layer, ()))
        values[metric] = tracer.counters[counter] / calls if calls else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_trisect()
    except CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info, result = run(args)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
