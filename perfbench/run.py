"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_8row --seed 1 --seconds 20 --trace 0

Standard output ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``). The line before it
is the full record of the run: environment, per-phase accounting and
every metric computed. Traced runs also write their spans to
``.perfbench/spans-<workload>-<seed>.json``. The exit code is non-zero,
with no result line, when the program cannot be imported or a run fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still stops the daemons it started (finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        from perfbench import session
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    try:
        result, detail, tracer = session.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except Exception:  # noqa: BLE001 - the run failed; no result line
        traceback.print_exc()
        return 1
    if args.trace:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(tracer.to_json()))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
