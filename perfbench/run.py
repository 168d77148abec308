"""Run one polyaprofile benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

Run it from the repository root: the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced rounds,
separate from any measured ones.  The lines before it record the
environment and the workload's own named figures.

Timings of the timed phase are in calibrated seconds (see ``clock.py``):
wall time corrected for the shared machine's speed at the moment it was
taken.  Set-up time is in wall seconds.

Count tables are cached under ``.bench_build/counts``.  The first run fills
that cache before anything is timed; without gmpy2 the n = 6400 table takes
about five minutes.  Traced runs write their spans to ``.bench_build/traces``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".bench_build" / "counts"
TRACE_DIR = ROOT / ".bench_build" / "traces"
SETUP_SAMPLES = 3  # this process's own set-up plus fresh processes, median reported
PROBE_TIMEOUT_S = 120
FILL_TIMEOUT_S = 850  # the n = 6400 table takes about 340 s to build without gmpy2
WORKLOAD_NAMES = ("montecarlo", "exact", "asymptotics")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "path_a_s": "s",
    "path_b_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run.py starts itself in these roles as a child process
    parser.add_argument("--role", choices=("run", "setup-probe", "fill-cache"), default="run",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(cache_state):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "polyaprofile").glob("*.py"))),
        "count_cache": cache_state,
    }


def _run_child(args, role, timeout):
    """Run this script in ``role`` in a fresh process; returns its last output line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_setup(args, ops):
    """Set-up seconds of one fresh process (import included), merged into ``ops``."""
    label = f"setup.probe.{ops.attempted}"
    try:
        out = _run_child(args, "setup-probe", PROBE_TIMEOUT_S)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        ops.attempted += 1
        ops.fail(label, repr(exc))
        return None
    ops.attempted += out["attempted"]
    for failed in out["failed"]:
        ops.failed.add(f"{label}.{failed}")
    ops.errors.extend(out["errors"])
    return out["setup_s"]


def _rounds(wl, ops, count, tag):
    """``count`` untimed rounds: a list of {unit name: output}."""
    return [{name: thunk() for name, _, thunk in wl.units(ops, r, f"{tag}{r}")}
            for r in range(count)]


def _measure(wl, ops, timer, seconds):
    """Rounds of timed units for about ``seconds``, at least one.

    Returns one {unit name: (output, raw s, calibrated s)} per round.
    """
    rounds = []
    start = time.perf_counter()
    with timer:
        while True:
            r = len(rounds)
            rounds.append({name: timer.time(thunk)
                           for name, _, thunk in wl.units(ops, r, f"round{r}")})
            elapsed = time.perf_counter() - start
            # stop where the measured time ends nearest to ``seconds``
            if elapsed + elapsed / len(rounds) / 2 >= seconds:
                return rounds


def _report(ops, metrics):
    return {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": metrics,
    }


def _run_untraced(args, wl, ops, import_s):
    t0 = time.perf_counter()
    wl.setup(ops)
    setup_samples = [import_s + time.perf_counter() - t0]
    wl.check_setup(ops)
    for _ in range(SETUP_SAMPLES - 1):
        sample = _probe_setup(args, ops)
        if sample is not None:
            setup_samples.append(sample)
    timer = clock.Clock()
    rounds = _measure(wl, ops, timer, args.seconds)
    wl.check(ops, [{name: out for name, (out, _, _) in row.items()} for row in rounds])
    # per unit over rounds: the median, or the mean when every round has new inputs
    over_rounds = statistics.fmean if wl.FRESH_INPUTS else statistics.median
    paths = {name: path for name, path, _ in wl.units(ops, 0, "paths")}
    cal_s = {name: over_rounds(row[name][2] for row in rounds) for name in paths}
    raw_s = {name: over_rounds(row[name][1] for row in rounds) for name in paths}
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": sum(cal_s.values()),
        "path_a_s": sum(v for name, v in cal_s.items() if paths[name] == "a"),
        "path_b_s": sum(v for name, v in cal_s.items() if paths[name] == "b"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    figures = {name: (values[name], END_TO_END_UNITS[name])
               for name in ("setup_s", "pass_s", "peak_rss_mb")}
    figures["raw.pass_s"] = (sum(raw_s.values()), "s")
    figures["probe_ms"] = (timer.probe_median() * 1000.0, "ms")
    figures["fail_frac"] = (len(ops.failed) / ops.attempted, "ratio")
    figures["rounds"] = (len(rounds), "count")
    figures.update(wl.figures(cal_s))
    print(json.dumps({"figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}}))
    if ops.errors:
        print(json.dumps({"errors": ops.errors}))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _run_traced(args, wl, ops):
    """Traced set-up and rounds in this fresh process, then the same rounds untraced to compare."""
    from tracer import Tracer, per_layer_metric_units
    from workloads import same_outputs

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id)
    tracer.install()
    try:
        wl.setup(ops)
        t0 = time.perf_counter()
        traced = _rounds(wl, ops, wl.TRACE_ROUNDS, "traced")
        traced_wall = time.perf_counter() - t0
    finally:
        restored = tracer.uninstall()
    ops.attempted += 2  # the tracer's own self-test: outputs unchanged, wrappers removed
    ops.verify("tracer.removed", lambda: restored, "a wrapper was left installed")
    wl.check_setup(ops)
    t0 = time.perf_counter()
    untraced = _rounds(wl, ops, wl.TRACE_ROUNDS, "round")
    untraced_wall = time.perf_counter() - t0
    ops.verify("tracer.outputs",
               lambda: all(same_outputs(a, b) for a, b in zip(traced, untraced, strict=True)),
               "traced and untraced outputs differ")
    wl.check(ops, untraced)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")  # a rerun overwrites
    values = tracer.per_layer()
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    if ops.errors:
        print(json.dumps({"errors": ops.errors}))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_metric_units().items()}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "polyaprofile" / "__init__.py").is_file():
        print(f"error: {SRC / 'polyaprofile'} not found; run from a polyaprofile checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - start
    if args.role == "fill-cache":
        print(json.dumps({"count_cache": workloads.ensure_count_cache(CACHE_DIR)}))
        return 0
    wl = workloads.WORKLOADS[args.workload](args.seed, CACHE_DIR)
    ops = workloads.Ops()
    if args.role == "setup-probe":
        t0 = time.perf_counter()
        wl.setup(ops)
        setup_s = import_s + time.perf_counter() - t0
        wl.check_setup(ops)
        print(json.dumps({"setup_s": setup_s, "attempted": ops.attempted,
                          "failed": sorted(ops.failed), "errors": ops.errors}))
        return 0
    # a child fills the cache, so that this process's peak memory is the workload's own
    cache_state = _run_child(args, "fill-cache", FILL_TIMEOUT_S)["count_cache"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "why": wl.WHY,
                      "environment": _environment(cache_state)}))
    if args.trace:
        metrics = _run_traced(args, wl, ops)
    else:
        metrics = _run_untraced(args, wl, ops, import_s)
    print(json.dumps(_report(ops, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
