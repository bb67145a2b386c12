"""Host-speed benchmark of the dsi-sim path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-coherence --seed 0 --seconds 10 --trace 0

Each run starts fresh interpreters on ``src/`` (see ``worker.py``),
measures one workload, checks its outputs against ``pins.json`` and
prints one JSON result as the last line of standard output.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("sim-coherence", "sim-private", "paper-cold", "paper-warm")

#: Any of these changes which engine runs or what the harness writes.
REFUSED_ENV = ("DSI_MODE", "DSI_NO_FASTPATH", "DSI_LOG", "DSI_PROFILE")

#: Fresh interpreters set up per run; ``setup_s`` is the median of their
#: set-up times in reference seconds (see calibrate.py).
SETUP_REPEATS = 7

#: Wall-clock budget of one run, fixture build included.
BUDGET_S = 170.0


def host_metadata():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def launch(mode, args, out, deadline):
    """Run the worker in a fresh interpreter; returns (its output, launch
    stamp).  The worker's process group is killed at the ``deadline``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--pins", args.pins,
        "--work", WORK, "--out", out,
    ]
    if os.path.exists(out):
        os.remove(out)
    launched = time.monotonic()
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker ({mode}) exceeded the {BUDGET_S:.0f} s budget") from None
    if code != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {code}")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle), launched


def measure(args):
    deadline = time.monotonic() + BUDGET_S
    out = os.path.join(WORK, f"worker-{os.getpid()}.json")
    try:
        if args.workload == "paper-warm":
            launch("fixture", args, out, deadline)
        kernel = calibrate.Kernel(WORK)
        setups = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for index in range(repeats):
            before = kernel.sample()
            mode = "run" if index == repeats - 1 else "setup"
            result, launched = launch(mode, args, out, deadline)
            slowdown = (before + result["setup"]["factor"]) / 2
            setups.append((result["setup"]["t_ready"] - launched) / slowdown)
    finally:
        if os.path.exists(out):
            os.remove(out)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def report(args, result, spec):
    """Human-readable lines, the saved result file, and the JSON line."""
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        value = result["setup_s"] if name == "setup_s" else result["metrics"][name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    host = host_metadata()
    print(f"# host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} platform={host['platform']}")
    print(f"# engine: {result['env']} (DSI_* variables unset)")
    samples = result["samples"]
    for name, entry in metrics.items():
        count = len(result["setup_samples"]) if name == "setup_s" else samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"# {name:36s} {entry['value']:.6g} {entry['unit']}{suffix}")
    if "host_slowdown" in samples:
        print(f"# {samples['rounds']} rounds in {samples['timed_reference_s']:.2f} reference s; "
              f"median host slowdown {samples['host_slowdown']:.3f} (see perfbench/calibrate.py)")
    print(f"# ops: attempted={result['attempted']} failed={result['failed']}; "
          f"digests: {result['pinned']['checked']} pinned, {result['pinned']['unpinned']} unpinned")
    for line in result["mismatches"]:
        print(f"# MISMATCH {line}")
    saved = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host, "engine": result["env"],
        "setup_samples": result["setup_samples"], "samples": samples,
        "metrics": metrics, "digests": result["digests"], "mismatches": result["mismatches"],
    }
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    path = os.path.join(WORK, "results", stem + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1)
    print(f"# wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Host-speed benchmark of the dsi-sim path.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's self-test")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned output digests (default: perfbench/pins.json)")
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set; the benchmark "
              "measures the default engine with no harness logging. Unset and retry.",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no system under test at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from the root of a dsi-sim checkout.", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    try:
        result = measure(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, result, load_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
