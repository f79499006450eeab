#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload's pipeline once at each seed in SEEDS and writes
perfbench/reference.json: the SHA-256 of each level file, the exact integer
fields of the energy report and every float of the reports (see
verdict.snapshot). Re-record only on purpose: a program change that moves
these values is a change of results, not of speed.
"""

import json
import sys
import time

import run
import verdict

SEEDS = (7, 11)     # 7 is the ROADMAP reference seed, 11 is held out


def main() -> int:
    if not (run.SRC / "salemlab" / "cli.py").is_file():
        print(f"error: no salemlab sources under {run.SRC}", file=sys.stderr)
        return 2
    ref = {"recorded_with": run.environment()}
    for name, w in run.WORKLOADS.items():
        for seed in SEEDS:
            work = run.RUNS / "reference" / f"{name}-seed{seed}"
            it = run.run_pipeline(w, seed, work, False, time.monotonic() + 900,
                                  None, None)
            fails = [f for s in it["stages"] for f in s["fails"]]
            if fails or len(it["stages"]) != len(w.stages):
                print("\n".join(fails), file=sys.stderr)
                return 1
            ref.setdefault(name, {})[str(seed)] = verdict.snapshot(work)
            print(f"recorded {name} seed {seed}")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
