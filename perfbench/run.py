#!/usr/bin/env python3
"""salemlab benchmark: time to solution of construct -> verify -> analyze.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 10 --trace 0

Runs the workload's stages through the public entry point
`salemlab.cli.main`, each stage in its own child process (perfbench/stage.py)
built from the checkout's `src/`. The pipeline repeats until `--seconds` have
passed (at least once); each metric is the median over the repetitions. The
construction seed is `--seed`. Every stage's output is checked (verdict.py);
a stage run fails on a nonzero exit, an uncaught exception or a failed check.

`--trace 0` reports the end-to-end metrics; `--trace 1` wraps the layer
functions (layers.py) in every stage and reports the per-layer metrics.
The last line of standard output is the JSON result; a run record with the
environment and the raw samples goes to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

import layers    # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import verdict   # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    N0: int
    t0: int
    n0: int
    j_max: int
    stages: tuple
    level: int = 4          # analyze --level
    kmax: int = 65536       # analyze --kmax

    @property
    def N(self):
        return self.N0 ** (2 * self.n0)

    @property
    def t(self):
        return self.t0 ** (2 * self.n0)


PIPELINE = ("construct", "verify", "analyze")
WORKLOADS = {
    # the reference config (N=16, t=4); verify splits its time over the
    # energy, spectral and norms modules
    "desk": Workload("desk", 4, 2, 1, 5, PIPELINE),
    # construction only: rotation chi-sums and dense FFTs do all the work;
    # verify cannot run here (|Y|^(2r) overflows int64 energy counts)
    "deep-construct": Workload("deep-construct", 4, 2, 1, 6, ("construct",)),
    # N=9: periods 9^j are not powers of two; direct exp_sum carries verify
    "odd-base": Workload("odd-base", 3, 2, 1, 5, PIPELINE),
}

END_TO_END = {   # name -> unit
    "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "construct_rss_mb": "MB",
}
MIN_SETUP_SAMPLES = 11    # stage processes plus import-only probes
RUN_CAP_S = 170           # stage processes still running then are killed


def per_layer_units() -> dict:
    units = {}
    for name in layers.TARGETS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s"})
    units.update({
        "kernel.fft.points": "count",
        "spectral.exp_sum.terms": "count",
        "spectral.exp_sum_all.points": "count",
        "energy.sum_distribution.adds": "count",
        "energy.sum_distribution.repeat_ratio": "ratio",
        "storage.write_construction.bytes": "bytes",
        "construction.rotation_draws": "count",
        "construction.rotation_accept_ratio": "ratio",
        "construction.verified_k": "count",
        "trace.pipeline_s": "s",
        "trace.coverage_min": "ratio",
        "trace.spans": "count",
    })
    for stage in PIPELINE:
        units.update({f"stage.{stage}.s": "s", f"stage.{stage}.rss_mb": "MB"})
    return units


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env.pop("SALEMLAB_THREADS", None)          # so the CLI uses one worker
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(work: Path, name: str, cli_args, deadline: float, trace=False,
          probe=False) -> dict:
    """Run one stage process; return its timings, peak RSS and exit code."""
    result = work / f"{name}.result.json"
    spans = work / f"{name}.spans.json"
    cmd = [sys.executable, str(HERE / "stage.py"), str(result), str(SRC)]
    cmd += ["--trace", str(spans)] if trace else []
    cmd += ["--probe"] if probe else []
    cmd += ["--"] + list(cli_args)
    result.unlink(missing_ok=True)
    spans.unlink(missing_ok=True)
    out = {"name": name, "fails": []}
    with open(work / f"{name}.out", "w") as so, open(work / f"{name}.err", "w") as se:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    out["fails"].append(f"{name}: killed at the run's time cap")
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    out["code"] = code
    out["rss_mb"] = usage.ru_maxrss / 1024.0
    if not result.exists():
        out["fails"].append(f"{name}: exit {code}, no result; see {work / (name + '.err')}")
        return out
    res = json.loads(result.read_text())
    out["setup_s"] = res["ready"] - spawned
    if Path(res["salemlab"]).parent.parent != SRC:
        out["fails"].append(f"{name}: imported salemlab from {res['salemlab']}")
    if res.get("error"):
        out["fails"].append(f"{name}: uncaught exception\n{res['error']}")
    elif code != 0:
        out["fails"].append(f"{name}: exit code {code}")
    if not probe:
        out["stage_s"] = res["stage_s"]
        out["stage_cpu_s"] = res["stage_cpu_s"]
        if trace and spans.exists():
            data = json.loads(spans.read_text())
            out["layers"], root_s = layers.summarize(data["spans"], data["counts"])
            out["coverage"] = root_s / res["stage_s"]
    return out


def stage_args(w: Workload, stage: str, work: Path, cfg: Path):
    if stage == "construct":
        return ["construct", "-c", str(cfg), "-o", str(work)]
    if stage == "verify":
        return ["verify", str(work)]
    return ["analyze", str(work), "--level", str(w.level), "--kmax", str(w.kmax),
            "--spectrum", "--decay", "--energy", "--norms", "--ratio"]


def audit_counts(work: Path) -> dict:
    """Rotation draws, acceptance and verified frequencies from the
    construction audit that `construct` writes into the manifest."""
    audit = json.loads((work / "manifest.json").read_text()).get("audit", [])
    rotated = [a for a in audit if "rotation_verified_k" in a]
    draws = sum(a["retries"] + 1 for a in rotated)
    return {
        "construction.rotation_draws": draws,
        "construction.rotation_accept_ratio": len(rotated) / draws if draws else 1.0,
        "construction.verified_k": sum(a["rotation_verified_k"] + a["block_verified_k"]
                                       for a in rotated),
    }


def run_pipeline(w: Workload, seed: int, work: Path, trace: bool, deadline: float,
                 ref: dict | None, first_hashes: dict | None) -> dict:
    """One construct -> verify -> analyze pass; stops at the first failed stage."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "bench.cfg"
    start = time.perf_counter()
    cfg.write_text(f"N0 = {w.N0}\nt0 = {w.t0}\nn0 = {w.n0}\n"
                   f"j_max = {w.j_max}\nseed = {seed}\n")
    it = {"config_s": time.perf_counter() - start, "stages": []}
    for stage in w.stages:
        run = spawn(work, stage, stage_args(w, stage, work, cfg), deadline, trace)
        it["stages"].append(run)
        if run["fails"]:
            break
        if stage == "construct":
            it["hashes"] = verdict.level_hashes(work)
            if first_hashes is not None and it["hashes"] != first_hashes:
                run["fails"].append("construct: level files differ between repeats")
            it["audit"] = audit_counts(work)
        elif stage == "verify":
            run["fails"] += verdict.verify_output(work, (work / "verify.out").read_text())
        else:
            run["fails"] += verdict.analyze_output(work, w.N, w.t, w.level)
        if ref is not None:
            run["fails"] += verdict.against_reference(work, ref, stage)
        if run["fails"]:
            break
    return it


# ---------------------------------------------------------------------------
# metrics

def end_to_end(w: Workload, iterations, setup_samples) -> tuple[dict, dict]:
    """Medians over complete iterations; also the per-stage medians and the
    sample count behind each."""
    per = {}
    for it in iterations:
        row = {"pipeline_s": sum(s["stage_s"] for s in it["stages"]),
               "peak_rss_mb": max(s["rss_mb"] for s in it["stages"])}
        for s in it["stages"]:
            row[f"{s['name']}_s"] = s["stage_s"]
            row[f"{s['name']}_rss_mb"] = s["rss_mb"]
        for k, v in row.items():
            per.setdefault(k, []).append(v)
    values = {k: statistics.median(v) for k, v in per.items()}
    values["setup_s"] = (statistics.median([it["config_s"] for it in iterations])
                         + len(w.stages) * statistics.median(setup_samples))
    samples = {k: len(v) for k, v in per.items()}
    samples["setup_s"] = len(setup_samples)
    return values, samples


def per_layer(iterations) -> tuple[dict, dict]:
    rows = []
    for it in iterations:
        row = Counter()
        for s in it["stages"]:
            row.update(s["layers"])
            row[f"stage.{s['name']}.s"] = s["stage_s"]
            row[f"stage.{s['name']}.rss_mb"] = s["rss_mb"]
        calls = row["energy.sum_distribution.calls"]
        row["energy.sum_distribution.repeat_ratio"] = (
            row.pop("energy.sum_distribution.repeats", 0) / calls if calls else 0.0)
        row["trace.pipeline_s"] = sum(s["stage_s"] for s in it["stages"])
        row["trace.coverage_min"] = min(s["coverage"] for s in it["stages"])
        row["trace.spans"] = sum(v for k, v in row.items() if k.endswith(".calls"))
        row.update(it["audit"])
        rows.append(row)
    values = {name: statistics.median([row.get(name, 0) for row in rows])
              for name in per_layer_units()}
    return values, {name: len(rows) for name in values}


# ---------------------------------------------------------------------------
# run record

def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").exists():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SALEMLAB_THREADS": os.environ.get("SALEMLAB_THREADS"),   # stages run unset
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: float, trace: bool, runs_dir: Path,
            ref: dict | None) -> dict:
    env = environment()
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    work = runs_dir / tag
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    iterations = []
    while True:
        t0 = time.monotonic()
        first = iterations[0]["hashes"] if iterations else None
        iterations.append(run_pipeline(w, seed, work, trace, deadline, ref, first))
        now = time.monotonic()
        failed = any(s["fails"] for s in iterations[-1]["stages"])
        if failed or now >= start + seconds or now + (now - t0) > deadline:
            break
    stage_runs = [s for it in iterations for s in it["stages"]]
    setup_samples = [s["setup_s"] for s in stage_runs if "setup_s" in s]
    probes = 0
    while len(setup_samples) < MIN_SETUP_SAMPLES and not any(s["fails"] for s in stage_runs):
        probe = spawn(work, "probe", [], deadline, probe=True)
        probes += 1
        if probe["fails"]:
            stage_runs.append(probe)
            break
        setup_samples.append(probe["setup_s"])
    complete = [it for it in iterations
                if len(it["stages"]) == len(w.stages)
                and not any(s["fails"] for s in it["stages"])]
    fails = [f for s in stage_runs for f in s["fails"]]
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "reference_seed": ref is not None,
        "iterations": len(iterations), "setup_probes": probes,
        "attempted": len(stage_runs), "failed": sum(bool(s["fails"]) for s in stage_runs),
        "fails": fails, "wall_s": time.monotonic() - start,
    }
    if complete:
        e2e, e2e_n = end_to_end(w, complete, setup_samples)
        record.update(values=e2e, samples=e2e_n)
        if trace:
            record["layers"], record["layer_samples"] = per_layer(complete)
    record["raw"] = [
        {"config_s": it["config_s"],
         "stages": [{k: s.get(k) for k in ("name", "code", "stage_s", "setup_s",
                                           "stage_cpu_s", "rss_mb", "coverage")}
                    for s in it["stages"]]}
        for it in iterations
    ]
    record["setup_samples"] = setup_samples
    return record


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        units, values = per_layer_units(), record.get("layers", {})
    else:
        units, values = END_TO_END, record.get("values", {})
    return {
        "correct": record["failed"] == 0 and bool(values),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def load_reference(workload: str, seed: int):
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "salemlab" / "cli.py").is_file():
        print(f"error: no salemlab sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    record = measure(w, args.seed, args.seconds, bool(args.trace), RUNS,
                     load_reference(w.name, args.seed))
    RUNS.mkdir(parents=True, exist_ok=True)
    path = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for f in record["fails"]:
        print(f"FAIL {f}")
    if args.trace:
        values, samples = record.get("layers", {}), record.get("layer_samples")
        units = per_layer_units()
    else:
        values, samples = record.get("values", {}), record.get("samples")
        units = {name: "MB" if name.endswith("_mb") else "s" for name in values}
    for name, value in sorted(values.items()):
        print(f"{name:44s} {value:>16.6g} {units[name]:6s} (median of {samples[name]})")
    print(f"fail_ratio {record['failed']}/{record['attempted']}; record: {path}")
    result = result_line(record, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
