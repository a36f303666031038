#!/usr/bin/env python3
"""Builds and runs the repository benchmark, and compares result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload dknn-1m --seed 1 --seconds 50 --trace 0 \
        [--record results.jsonl]

The benchmark is built from source with `cargo build --release --offline`
into `$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to
stderr. Standard output carries a detail line (what ran, provenance, the
correctness problems found) and, last, the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`--record FILE` appends the run, with its provenance, to a JSON-lines file.

Compare a parent and a change:

    python3 perfbench/run.py compare parent.jsonl change.jsonl

Runs are paired by seed. Each (workload, end-to-end metric) pair is
reported as better, worse, within-bound, unresolved or changed, by the
rules in README.md and the bounds in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

# End-to-end metrics the simulator computes from its seed alone. They must
# repeat exactly for a given (workload, seed): a speed-only change that
# moves one of them has changed what the simulator does.
SIMULATED = {"msgs_per_tick", "uplink_msgs_per_tick", "bytes_per_tick", "exactness", "recall"}

# Provenance fields that must agree for a comparison to hold.
HOST_FIELDS = ("cpu_model", "nproc", "pool_width", "build_profile", "rustc")

# A run must end within this many seconds (the first run may also build).
RUN_TIMEOUT_S = 170


def eprint(*args):
    print(*args, file=sys.stderr, flush=True)


def command_output(args, cwd=None):
    """Stdout of a command, or None when it cannot run or fails."""
    try:
        done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(detail):
    """Host and build facts recorded with every result."""
    commit = None
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"], cwd=ROOT)
    return {
        "nproc": detail.get("nproc"),
        "pool_width": detail.get("pool_width"),
        "git_commit": commit,
        "build_profile": detail.get("build_profile"),
        "rustc": command_output(["rustc", "--version"]),
        "cpu_model": cpu_model(),
    }


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    args = ["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(args, stdout=sys.stderr, env=env, timeout=700)
    except (OSError, subprocess.SubprocessError) as e:
        eprint(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        eprint(f"perfbench: build failed with exit code {done.returncode}")
        return None
    return target / "release" / "perfbench"


def run(argv):
    record = None
    if "--record" in argv:
        i = argv.index("--record")
        if i + 1 >= len(argv):
            eprint("perfbench: --record needs a file")
            return 2
        record = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    binary = build()
    if binary is None:
        return 1
    started = time.time()
    try:
        done = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        eprint(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode == 2 or len(lines) < 2:
        sys.stderr.write(done.stdout)
        return done.returncode or 1
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    detail["provenance"] = provenance(detail)
    print(json.dumps({"detail": detail}))
    print(lines[-1], flush=True)
    if record:
        entry = {
            "workload": detail["workload"],
            "seed": detail["seed"],
            "trace": detail["trace"],
            "unix_time": started,
            "detail": detail,
            "result": result,
        }
        with open(record, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry) + "\n")
    return done.returncode


# ---- compare mode ---------------------------------------------------------


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, pairs, better, bound):
    """better / worse / within-bound / unresolved, with the reason.

    - better: at least 10 pairs, the change wins at least 9/10 of them (ties
      count for neither), and the medians differ by more than the parent's
      interquartile range.
    - worse: the change's median is worse than the parent's by more than
      `bound` (a share of the parent's median).
    - unresolved: fewer than 10 pairs, or the parent's own spread is wider
      than the bound, unless every change run beats every parent run.
    - within-bound: none of the above; no gain shown and no regression.
    """
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    gain = (med_c - med_p) * sign
    if len(pairs) < 10:
        return "unresolved", f"{len(pairs)} pairs (< 10)", wins, losses
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "better", "", wins, losses
    if med_p != 0 and -gain / abs(med_p) > bound:
        return "worse", f"median worse by {-gain / abs(med_p):.1%} > {bound:.0%}", wins, losses
    all_better = min(c * sign for c in change) > max(p * sign for p in parent)
    if med_p != 0 and iqr / abs(med_p) > bound and not all_better:
        return "unresolved", f"parent spread {iqr / abs(med_p):.1%} > bound", wins, losses
    return "within-bound", "", wins, losses


def compare(parent_path, change_path):
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent = [r for r in load(parent_path) if r["trace"] == 0]
    change = [r for r in load(change_path) if r["trace"] == 0]
    status = 0

    hosts = {tuple(str(r["detail"]["provenance"].get(k)) for k in HOST_FIELDS)
             for r in parent + change}
    flagged = len(hosts) > 1
    if flagged:
        print("FLAG: the result sets come from different hosts, pool widths or builds:")
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_FIELDS, h)))

    rows = [("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
             "pairs", "wins/losses", "verdict")]
    for w in spec["workloads"]:
        name = w["name"]
        ps = [r for r in parent if r["workload"] == name]
        cs = [r for r in change if r["workload"] == name]
        if not ps or not cs:
            rows.append((name, "-", f"{len(ps)} runs", f"{len(cs)} runs", "0", "-", "unresolved"))
            continue
        # Pair runs of the same seed in order of appearance.
        pairs_idx = []
        for seed in sorted({r["seed"] for r in ps}):
            a = [r for r in ps if r["seed"] == seed]
            b = [r for r in cs if r["seed"] == seed]
            pairs_idx.extend(zip(a, b))
        # Alternating which side runs first gives about half parent-first.
        parent_first = sum(1 for a, b in pairs_idx if a["unix_time"] < b["unix_time"])
        for m in spec["end_to_end"]:
            metric = m["name"]
            pv = [r["result"]["metrics"][metric]["value"] for r in ps]
            cv = [r["result"]["metrics"][metric]["value"] for r in cs]
            pairs = [(a["result"]["metrics"][metric]["value"], b["result"]["metrics"][metric]["value"])
                     for a, b in pairs_idx]
            v, why, wins, losses = verdict(pv, cv, pairs, m["better"], m["bound"])
            if metric in SIMULATED and any(a != b for a, b in pairs):
                v, why = "changed", "simulated value differs for the same seed"
            if not all(r["result"]["correct"] for r in ps + cs):
                v, why = "unresolved", "a run failed its correctness check"
            if v in ("worse", "changed"):
                status = 1
            if flagged:
                v += " (flagged)"
            pq, cq = quartiles(pv), quartiles(cv)
            rows.append((name, metric,
                         f"{statistics.median(pv):.6g} [{pq[0]:.6g}, {pq[2]:.6g}]",
                         f"{statistics.median(cv):.6g} [{cq[0]:.6g}, {cq[2]:.6g}]",
                         str(len(pairs)), f"{wins}/{losses}",
                         v + (f": {why}" if why else "")))
        rows.append((name, "(order)", "", "", str(len(pairs_idx)),
                     f"{parent_first} parent-first", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())
    return status


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            eprint("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
