"""Steadiness of the benchmark: spread within one set of runs, and the
shift between two sets.

    python3 perfbench/steady.py run --workload paper-cold --seeds 1-10 -o set1.json
    python3 perfbench/steady.py run --workload paper-cold --seeds 1-10 -o set2.json
    python3 perfbench/steady.py compare set1.json set2.json

``run`` makes one untraced run per seed and prints, for every end-to-end
metric, the median and the spread (distance between the first and third
quartile as a share of the median).  ``compare`` prints how far each
median of the second set moved against the first, in the worse
direction, next to the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def run_set(args, spec):
    runs = []
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, handle, indent=1)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    worst = 0.0
    for name, bound in bounds.items():
        median, share = spread([run["metrics"][name]["value"] for run in runs])
        if name != "setup_s":
            worst = max(worst, share / bound)
        print(f"{name:16s} median {median:12.5g}  spread {share:7.2%}  bound {bound:.0%}")
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}")
    return 0 if all(run["correct"] for run in runs) else 1


def compare(args, spec):
    sets = []
    for path in (args.first, args.second):
        with open(path, "r", encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])
    failed = False
    for entry in spec["end_to_end"]:
        name = entry["name"]
        first, second = (statistics.median(run["metrics"][name]["value"] for run in runs) for runs in sets)
        worse = (second - first) / first if entry["better"] == "lower" else (first - second) / first
        ok = worse <= entry["bound"]
        failed |= not ok
        print(f"{name:16s} {first:12.5g} -> {second:12.5g}  worse by {worse:+7.2%}  "
              f"bound {entry['bound']:.0%}  {'ok' if ok else 'REGRESSED'}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    run = sub.add_parser("run", help="one run per seed, then median and spread")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    run.add_argument("-o", "--output", required=True)
    cmp_ = sub.add_parser("compare", help="median shift of a second set against a first")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    spec = load_spec()
    return run_set(args, spec) if args.verb == "run" else compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
