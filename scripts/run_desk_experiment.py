#!/usr/bin/env python3
"""End-to-end desk-scale experiment.

Builds the N=16, t=4 construction to level 5, writes the level files, runs
the full invariant suite, and emits spectrum/energy/norm/ratio reports.
Everything is derived from the seed, so reruns reproduce the artifacts
byte for byte.
"""

import argparse
import sys
import time
from pathlib import Path

from salemlab.cli import main as cli_main


def run(argv, label):
    t0 = time.time()
    code = cli_main(argv)
    print(f"[{label}] exit={code} ({time.time() - t0:.1f}s)")
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="desk_run", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = out / "desk.cfg"
    cfg.write_text(
        "# desk-scale parameters: N = 16, t = 4, alpha = 1/2\n"
        "N0 = 4\nt0 = 2\nn0 = 1\nj_max = 5\n"
        f"seed = {args.seed}\n"
    )
    run(["construct", "-c", str(cfg), "-o", str(out)], "construct")
    run(["verify", str(out)], "verify")
    run(["analyze", str(out), "--level", "4", "--kmax", "65536",
         "--spectrum", "--decay", "--energy", "--norms", "--ratio"], "analyze")
    print(f"done; reports in {out / 'reports'}")


if __name__ == "__main__":
    main()
