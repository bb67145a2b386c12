"""Merge the output digests of benchmark runs into ``pins.json``.

Every run saves the digests it observed in
``perfbench/_work/results/<workload>-<scale>-seed<n>-trace<t>.json``::

    python3 perfbench/pin.py perfbench/_work/results/*.json

adds the digests that ``pins.json`` lacks.  A digest that differs from
its pin is reported and left alone: it means a simulated output changed,
which is a bug unless the change was meant, and then ``--replace`` takes
the new value.
"""

import argparse
import json
import os
import sys

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="saved run results")
    parser.add_argument("--replace", action="store_true", help="overwrite differing pins")
    args = parser.parse_args(argv)

    pins = {"records": {}, "tables": {}}
    if os.path.exists(PINS):
        with open(PINS, "r", encoding="utf-8") as handle:
            pins = json.load(handle)
    added = conflicts = 0
    for path in args.results:
        with open(path, "r", encoding="utf-8") as handle:
            digests = json.load(handle)["digests"]
        for kind, observed in digests.items():
            pinned = pins.setdefault(kind, {})
            for ident, digest in observed.items():
                if ident not in pinned:
                    pinned[ident] = digest
                    added += 1
                elif pinned[ident] != digest:
                    conflicts += 1
                    print(f"{path}: {kind} {ident}: {digest} != pinned {pinned[ident]}", file=sys.stderr)
                    if args.replace:
                        pinned[ident] = digest
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump({kind: dict(sorted(pins[kind].items())) for kind in sorted(pins)}, handle, indent=0)
        handle.write("\n")
    print(f"{added} digests added, {conflicts} differing")
    return 1 if conflicts and not args.replace else 0


if __name__ == "__main__":
    sys.exit(main())
