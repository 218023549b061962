"""Time one set-up in a fresh interpreter: ``import cfsm.cli`` plus the
warm-up jobs, at the nominal host speed of ``harness.py``. Prints
``{"nominal_s": ..., "ok": ...}``; ``run.py`` starts it.

    python3 bench/setup_probe.py --workload W --seed N --tag T --dir D [--tiny]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import harness


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    harness.use_source()
    _, nominal, runs = harness.set_up(args.workload, args.seed, args.tag, args.dir, args.tiny)
    ok = all(code == 0 for run in runs for code in run.codes)
    print(json.dumps({"nominal_s": nominal, "ok": ok}))


if __name__ == "__main__":
    main()
