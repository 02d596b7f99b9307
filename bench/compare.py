"""Compare two runs of one workload, flagging workload drift.

    python3 bench/compare.py BEFORE.log AFTER.log

Each file holds the stdout of one ``bench/run.py`` run.  When the
input-side counts differ (requests, search leaves, bytes handed to the
JSON readers, denominator digits) the two runs measured different work:
the pair is reported as workload drift, no speed change is computed, and
the exit code is 3.  Otherwise each metric is printed with its ratio
after/before.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (before_info, before), (after_info, after) = load(argv[1]), load(argv[2])
    for key in ("workload", "trace"):
        if before_info[key] != after_info[key]:
            print(f"error: runs differ in {key}", file=sys.stderr)
            return 2
    if before_info["counts"] != after_info["counts"]:
        print("workload drift: input-side counts differ, no speed change computed")
        for key, value in before_info["counts"].items():
            print(f"  {key}: {value} -> {after_info['counts'].get(key)}")
        return 3
    for name, metric in before["metrics"].items():
        old, new = metric["value"], after["metrics"][name]["value"]
        ratio = f"{new / old:.3f}x" if old else "n/a"
        print(f"{name}: {old} -> {new} {metric['unit']} ({ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
