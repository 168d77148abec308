"""Record alternating parent/new runs of the benchmark into BENCH_<k>.json.

    python3 benchmarks/record.py --parent 5ab1920 --workload exact=10 \\
        --workload montecarlo=3 --workload asymptotics=3 --seconds 30

Run it from the repository root.  The "new" side is this checkout's working
tree; the parent side is ``--parent`` exported with ``git archive`` into a
temporary directory, removed afterwards.  Each ``--workload NAME=PAIRS`` runs
PAIRS pairs of ``perfbench/run.py``, one run per side; pair i uses seed
``--first-seed`` + i, and the parent runs first in even pairs, the new side
in odd ones.  The output keeps each run's environment line and last JSON
line, and per workload and end-to-end metric (from BENCHMARK.json) the
median and quartiles of each side and the number of pairs the new side won.
It is written to ``--out``, by default the first free BENCH_<k>.json in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800  # a first run also fills its checkout's count cache


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _workload(text):
    name, _, pairs = text.partition("=")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME=PAIRS, got {text!r}")
    return name, int(pairs)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision of the parent side")
    parser.add_argument("--workload", type=_workload, action="append", required=True,
                        metavar="NAME=PAIRS")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def _run(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: its environment line and its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    head = next(line for line in lines if "environment" in line)
    return {"environment": head["environment"], "result": lines[-1]}


def _quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(pairs, metrics):
    """Per end-to-end metric: each side's quartiles and the pairs the new side won."""
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "new")}
        wins = sum((new < old) if better == "lower" else (new > old)
                   for old, new in zip(sides["parent"], sides["new"]))
        out[name] = {"better": better, "parent": _quartiles(sides["parent"]),
                     "new": _quartiles(sides["new"]), "new_wins": wins, "pairs": len(pairs)}
    return out


def _default_out():
    k = 0
    while (ROOT / f"BENCH_{k}.json").exists():
        k += 1
    return ROOT / f"BENCH_{k}.json"


def main(argv=None):
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    known = {w["name"] for w in spec["workloads"]}
    for name, _ in args.workload:
        if name not in known:
            sys.exit(f"error: unknown workload {name!r}; BENCHMARK.json has {sorted(known)}")
    parent_commit = _git("rev-parse", args.parent)
    record = {
        "parent": {"revision": args.parent, "commit": parent_commit},
        "new": {"commit": _git("rev-parse", "HEAD"),
                "working_tree_changes": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive, check=True)
        checkouts = {"parent": Path(parent_dir), "new": ROOT}
        for name, count in args.workload:
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                order = ("parent", "new") if i % 2 == 0 else ("new", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(checkouts[side], name, seed, args.seconds)
                    value = pair[side]["result"]["metrics"].get("path_a_s", {}).get("value")
                    print(f"{name} pair {i} seed {seed} {side}: path_a_s {value}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            record["workloads"][name] = {"pairs": pairs, "summary": _summary(pairs, metrics)}
    out = args.out or _default_out()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
