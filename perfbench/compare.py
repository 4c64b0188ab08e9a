#!/usr/bin/env python3
"""Runs a change against its parent in pairs and judges the result.

Run from the repository root:

    # ten parent/change pairs per workload, alternating which side runs first
    python3 perfbench/compare.py run PARENT_ROOT CHANGE_ROOT --out DIR
    # judge two saved sets again
    python3 perfbench/compare.py compare DIR/parent DIR/change

PARENT_ROOT and CHANGE_ROOT are checkouts of the two commits; each builds
and runs its own perfbench/run.py under its own .bench_build. Giving the
same checkout twice makes two interleaved sets of the same code, whose
comparison must come out clean. Runs use the run length, the workloads and
the bounds of the BENCHMARK.json next to this directory, untraced.

A result set is a directory of `<workload>-seed<N>.json` files: the last
line each run printed, with its exit code added (a run that printed no
result is saved as a failed one). `compare` reports, per workload:

- FAILED when a run failed or its checks did not hold, when only one set
  ran the workload, when the two sets ran different seeds or lack a
  metric, or when the change fails a larger share of its operations than
  the parent;
- per end-to-end metric, each side's median and quartiles, then
  REGRESSION when the change's median is worse than the parent's by more
  than the bound; UNRESOLVED when either side's spread (interquartile
  distance over the median) is wider than the bound, unless every run of
  the change beats every run of the parent; improved when the change wins
  at least nine tenths of the pairs and the medians differ by more than
  the parent's interquartile distance; unchanged otherwise.

It exits 1 when any workload is FAILED or any metric is a REGRESSION.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def run_one(root, workload, seed, seconds):
    """One run from checkout `root`; the parsed result with its exit code."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result["exit"] = proc.returncode
    return result


def run(args, benchmark):
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side in roots:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result = run_one(roots[side], workload, seed,
                                 benchmark["run_seconds"])
                path = os.path.join(args.out, side,
                                    "%s-seed%d.json" % (workload, seed))
                with open(path, "w") as f:
                    f.write(json.dumps(result) + "\n")
                print("%s %s seed %d: exit %d" % (side, workload, seed,
                                                  result["exit"]),
                      file=sys.stderr)
    return compare(os.path.join(args.out, "parent"),
                   os.path.join(args.out, "change"), benchmark)


def load_set(directory):
    """{workload: {seed: result}} from a result directory."""
    results = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "-seed" not in name:
            continue
        workload, seed = name[:-len(".json")].rsplit("-seed", 1)
        with open(os.path.join(directory, name)) as f:
            results.setdefault(workload, {})[int(seed)] = json.load(f)
    return results


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def set_problems(runs, metrics):
    problems = []
    for seed, r in sorted(runs.items()):
        if r.get("exit", 0) != 0 or not r["correct"]:
            problems.append("seed %d: exit %s, correct %s" % (
                seed, r.get("exit", 0), r["correct"]))
        missing = [m for m in metrics if m not in r["metrics"]]
        if missing:
            problems.append("seed %d: no %s" % (seed, ", ".join(missing)))
    return problems


def verdict(metric, parent, change, seeds):
    a = [parent[s]["metrics"][metric["name"]]["value"] for s in seeds]
    b = [change[s]["metrics"][metric["name"]]["value"] for s in seeds]
    lower = metric["better"] == "lower"
    (a1, ma, a3), (b1, mb, b3) = quartiles(a), quartiles(b)
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    wide = max(spread(a), spread(b)) > metric["bound"]
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    if wide and not all_better:
        text = "UNRESOLVED"
    elif worse_by > metric["bound"]:
        text = "REGRESSION"
    elif wins >= 0.9 * len(seeds) and abs(mb - ma) > a3 - a1:
        text = "improved"
    else:
        text = "unchanged"
    print("  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
          "%+.1f%% worse, spreads %.3f/%.3f, bound %.2f, change wins %d/%d"
          "  %s" % (metric["name"], ma, a1, a3, mb, b1, b3, 100 * worse_by,
                    spread(a), spread(b), metric["bound"], wins, len(seeds),
                    text))
    return text


def compare(parent_dir, change_dir, benchmark):
    parent, change = load_set(parent_dir), load_set(change_dir)
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    names = [w["name"] for w in benchmark["workloads"]]
    ran = [w for w in names if w in parent or w in change]
    if len(ran) < len(names):
        print("not run: %s" % ", ".join(w for w in names if w not in ran))
    bad = 0 if ran else 1
    for workload in ran:
        p, c = parent.get(workload, {}), change.get(workload, {})
        problems = []
        if not p or not c:
            problems.append("no runs in %s" % ("parent" if not p else "change"))
        elif sorted(p) != sorted(c):
            problems.append("seeds differ: %s vs %s" % (sorted(p), sorted(c)))
        problems += ["parent " + x for x in set_problems(p, metrics)]
        problems += ["change " + x for x in set_problems(c, metrics)]
        if not problems and failed_share(c.values()) > failed_share(p.values()):
            problems.append("failed share %.6g > parent's %.6g" % (
                failed_share(c.values()), failed_share(p.values())))
        if problems:
            print("%s: FAILED" % workload)
            for x in problems:
                print("  " + x)
            bad += 1
            continue
        print("%s: %d pairs" % (workload, len(p)))
        for m in benchmark["end_to_end"]:
            bad += verdict(m, p, c, sorted(p)) == "REGRESSION"
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run parent/change pairs and compare")
    r.add_argument("parent", help="checkout of the parent commit")
    r.add_argument("change", help="checkout of the change")
    r.add_argument("--out", required=True, help="directory for both sets")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", nargs="*")
    c = sub.add_parser("compare", help="judge two saved sets")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    if args.command == "run":
        sys.exit(run(args, benchmark))
    sys.exit(compare(args.parent, args.change, benchmark))


if __name__ == "__main__":
    main()
