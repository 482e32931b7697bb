"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scalar_n64 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics.  Lines before it (prefixed
``#``) carry the environment stamp, the calibration loop and the
per-layer table; ``perfbench-out/`` keeps them as JSON with the spans.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE.parent))

from perfbench import core  # noqa: E402
from perfbench.workloads import WORKLOADS, load  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = core.spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    # Fail before measuring anything when the program is not there.
    import repro.serve  # noqa: F401

    calib = core.calibrate()
    env = core.environment(args.seed)
    outcome = load(args.workload)(args.seed, args.seconds, bool(args.trace))
    result = core.emit(args.workload, args.seed, bool(args.trace), outcome,
                       env, calib, wanted)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
