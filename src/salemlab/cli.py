"""Command-line front end: construct, analyze, verify.

Consumers are scripts and CI. Output is CSV/JSON plus a run manifest that
is sufficient to reproduce the run (params + seed + command). Exit codes:
0 pass, 1 verification failure, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .construction import (
    Construction, ConstructionError, build_construction, check_level_invariants,
)
from .energy import EnergyError, energy_lower_bound, sum_distribution
from .norms import (
    NormError, ball_condition_report, direct_mass, holder_chain_check,
    lp_norm, lq_mass, pick_r, restriction_ratio, thresholds,
)
from .params import ParamError, derive_params
from .spectral import (
    SpectralError, compute_spectrum, decay_report, exp_sum_all, f_mu_hat,
    mu_hat, restricted_atoms, telescope_check, trivial_bound_check,
)
from .storage import (
    StorageError, atomic_write_text, load_construction, write_construction,
    write_manifest,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

PARAM_KEYS = {
    "N0": int, "t0": int, "n0": int, "j_max": int, "seed": int,
    "c_eta": float, "c_rot": float, "ap_offset": int, "ap_gap": int,
    "k_budget": int, "max_retries": int, "fft_budget": int,
}


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("SALEMLAB_THREADS", "1")))
    except ValueError:
        return 1


def parse_config(path) -> dict:
    """Flat key = value text; # starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ParamError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = PARAM_KEYS[key](value.strip())
        except ValueError:
            raise ParamError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return out


def params_from_config(cfg: dict):
    missing = [k for k in ("N0", "t0", "n0") if k not in cfg]
    if missing:
        raise ParamError(f"config missing required keys: {', '.join(missing)}")
    cfg = dict(cfg)
    N0, t0, n0 = cfg.pop("N0"), cfg.pop("t0"), cfg.pop("n0")
    j_max = cfg.pop("j_max", 5)
    seed = cfg.pop("seed", 0)
    return derive_params(N0, t0, n0, j_max=j_max, seed=seed, **cfg)


def base_manifest(args, params) -> dict:
    return {
        "command": args.command,
        "argv": sys.argv[1:],
        "version": __version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": params.as_dict(),
        "threads": worker_count(),
        "checks": [],
        "outputs": [],
    }


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    for item in args.set or []:
        key, _, value = item.partition("=")
        if key not in PARAM_KEYS:
            raise ParamError(f"--set: unknown key {key!r}")
        cfg[key] = PARAM_KEYS[key](value)
    params = params_from_config(cfg)
    manifest = base_manifest(args, params)
    con = build_construction(params)
    manifest["audit"] = con.audit
    manifest["outputs"] = write_construction(args.out, con)
    manifest["checks"].append({
        "name": "construction-invariants", "passed": True,
        "detail": f"{params.j_max + 1} levels verified on assembly",
    })
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_manifest(args.out, manifest)
    print(f"wrote {len(manifest['outputs'])} level files to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

def _verify_frequencies(params, j, full: bool) -> np.ndarray:
    period = params.N ** (j + 1)
    top = min(period, 2**20 if full else 2**16)
    ks = [np.arange(1, top, dtype=np.int64)]
    if period > top:
        rng = np.random.default_rng(params.seed ^ 0xA5A5)
        ks.append(rng.integers(top, period, size=4096, dtype=np.int64))
    # sampled frequencies beyond the period exercise the min(1, .) regime
    rng = np.random.default_rng(params.seed ^ 0x5A5A)
    ks.append(rng.integers(period, period * 64, size=2048, dtype=np.int64))
    return np.unique(np.concatenate(ks))


def cmd_analyze(args) -> int:
    con = load_construction(args.dir)
    params = con.params
    out_dir = Path(args.out or (Path(args.dir) / "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = base_manifest(args, params)
    j = args.level if args.level is not None else params.j_max
    if j > params.j_max:
        raise ParamError(f"--level {j} exceeds j_max={params.j_max}")
    level = con.levels[j]
    lmax = min(args.lmax, j)

    if args.spectrum:
        ks = np.arange(args.kmax, dtype=np.int64)
        for ell in range(0, lmax + 1):
            spec = compute_spectrum(params, level, ks, ell=ell)
            name = f"spectrum_{'mu' if ell == 0 else f'f{ell}'}_j{j}.csv"
            spec.to_csv(out_dir / name)
            manifest["outputs"].append(str(out_dir / name))

    if args.decay:
        ks = np.arange(1, args.kmax, dtype=np.int64)
        spec = compute_spectrum(params, level, ks)
        rep = decay_report(spec.ks, spec.coefficients, args.beta)
        path = out_dir / f"decay_mu_j{j}.json"
        atomic_write_text(path, json.dumps(rep.to_json_dict(), indent=2) + "\n")
        manifest["outputs"].append(str(path))
        manifest["checks"].append({
            "name": "decay-octaves", "inequality": "salem-decay",
            "passed": True, "sup_constant": rep.sup_constant,
        })

    if args.energy:
        rows = []
        worst = None
        for ell in range(0, lmax + 1):
            for r in args.r:
                table = sum_distribution(restricted_atoms(params, level, ell), r)
                lb = energy_lower_bound(params, j, ell, r)
                slack = float(table.M - lb["bound"])
                rows.append({
                    "j": j, "ell": ell, "r": r, "M": table.M,
                    "support_size": table.support_size,
                    "bound_3_2": lb["bound_float"], "slack": slack,
                    "z_bound_3_3": lb["z_bound"],
                    "z_bound_holds": table.support_size <= lb["z_bound"],
                    "inequality": "3.2",
                })
                if worst is None or slack < worst:
                    worst = slack
        path = out_dir / f"energy_j{j}.json"
        atomic_write_text(path, json.dumps(rows, indent=2) + "\n")
        manifest["outputs"].append(str(path))
        manifest["checks"].append({
            "name": "energy-lower-bound", "inequality": "3.2",
            "passed": all(r["slack"] >= 0 and r["z_bound_holds"] for r in rows),
            "worst_slack": worst,
        })

    if args.norms:
        rows = []
        for ell in range(0, lmax + 1):
            for p in args.p:
                est = lp_norm(params, level, ell, p)
                d = est.to_json_dict()
                d.update({"j": j, "ell": ell})
                rows.append(d)
        path = out_dir / f"norms_j{j}.json"
        atomic_write_text(path, json.dumps(rows, indent=2) + "\n")
        manifest["outputs"].append(str(path))

    if args.ratio:
        lines = ["ell,p,q,numerator,denominator,ratio,bound_3_1,slack"]
        reps = []
        for ell in range(0, lmax + 1):
            for p in args.p:
                rep = restriction_ratio(params, level, ell, p, args.q)
                reps.append(rep.to_json_dict())
                lines.append(
                    f"{ell},{p},{args.q},{rep.numerator!r},{rep.denominator!r},"
                    f"{rep.ratio!r},{rep.bound_3_1!r},{rep.slack!r}"
                )
        path = out_dir / f"ratios_j{j}.csv"
        atomic_write_text(path, "\n".join(lines) + "\n")
        jpath = out_dir / f"ratios_j{j}.json"
        atomic_write_text(jpath, json.dumps(reps, indent=2) + "\n")
        manifest["outputs"] += [str(path), str(jpath)]
        manifest["checks"].append({
            "name": "ratio-lower-bound", "inequality": "3.1",
            "passed": all(r["slack"] >= 0 for r in reps),
            "worst_slack": min((r["slack"] for r in reps), default=None),
        })

    manifest["thresholds"] = thresholds(params.alpha, beta=params.alpha, q=args.q)
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_manifest(out_dir, manifest)
    failed = [c for c in manifest["checks"] if not c["passed"]]
    for c in failed:
        print(f"FAIL {c['name']}", file=sys.stderr)
    print(f"analyze: {len(manifest['outputs'])} report files in {out_dir}")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify

def run_verification(con: Construction, full: bool = False) -> list[dict]:
    """The full invariant suite; one result dict per check."""
    params = con.params
    checks = []

    def add(name, inequality, passed, **detail):
        checks.append({"name": name, "inequality": inequality,
                       "passed": bool(passed), **detail})

    # construction invariants
    try:
        for prev, level in zip([None] + con.levels[:-1], con.levels):
            check_level_invariants(params, prev, level)
        add("construction-invariants", "nesting/cardinality", True)
    except ConstructionError as exc:
        add("construction-invariants", "nesting/cardinality", False, error=str(exc))
        return checks   # downstream checks assume a consistent construction

    # Parseval per level
    worst = 0.0
    for level in con.levels:
        period = params.period(level.j)
        if period > params.fft_budget:
            continue
        table = exp_sum_all(level.atoms, period, params.fft_budget)
        total = float(np.sum(np.abs(table) ** 2))
        expected = period * len(level.atoms)
        worst = max(worst, abs(total - expected) / expected)
    add("parseval", "plancherel", worst < 1e-6, worst_rel_error=worst)

    # normalization and window masses
    ok = True
    worst = 0.0
    for level in con.levels:
        worst = max(worst, abs(complex(mu_hat(params, level, 0)) - 1.0))
        for ell in range(0, level.j + 1):
            expected = float(params.t) ** (-ell / 2)
            worst = max(
                worst, abs(complex(f_mu_hat(params, level, ell, 0)) - expected)
            )
            ok = ok and direct_mass(params, level, ell) == Fraction(
                1, params.sqrt_t**ell
            )
    add("mass-identity", "3.1-mass", ok and worst < 1e-12, worst_abs_error=worst)

    # telescoping decay and the trivial bound
    pairs = [
        (j, ell) for j in range(1, params.j_max) for ell in range(0, j + 1)
    ]

    def one_pair(pair):
        j, ell = pair
        ks = _verify_frequencies(params, j, full)
        return telescope_check(params, con.levels[j], con.levels[j + 1], ks, ell=ell)

    if worker_count() > 1 and pairs:
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            reports = list(pool.map(one_pair, pairs))
    else:
        reports = [one_pair(p) for p in pairs]
    worst_rep = max(reports, key=lambda r: r.max_ratio, default=None)
    if worst_rep is not None:
        add("telescoping", "2.7/2.8", all(r.passed for r in reports),
            max_ratio=worst_rep.max_ratio,
            witness={"j": worst_rep.j, "ell": worst_rep.ell, "k": worst_rep.worst_k})

    worst = None
    ok = True
    for level in con.levels[1:]:
        ks = _verify_frequencies(params, level.j - 1, full)
        for ell in range(0, level.j + 1):
            rep = trivial_bound_check(params, level, ell, ks)
            ok = ok and rep["passed"]
            if worst is None or rep["max_ratio"] > worst["max_ratio"]:
                worst = rep
    add("trivial-bound", "2.11", ok, worst=worst)

    # energy lower bound; the interpolation chain below reuses the top-level
    # tables of its order, kept without their dense counts
    top = con.levels[-1]
    chain_r = pick_r(params, 4)
    chain_ells = range(0, min(top.j, 2) + 1)
    chain_tables = {}
    ok = True
    worst = None
    for level in con.levels:
        for ell in range(0, level.j + 1):
            for r in (2, 3):
                table = sum_distribution(restricted_atoms(params, level, ell), r)
                lb = energy_lower_bound(params, level.j, ell, r)
                slack = float(table.M - lb["bound"])
                good = table.M >= lb["bound"] and table.support_size <= lb["z_bound"]
                ok = ok and good
                if worst is None or slack < worst["slack"]:
                    worst = {"j": level.j, "ell": ell, "r": r, "slack": slack}
                if level is top and r == chain_r and ell in chain_ells:
                    chain_tables[ell] = replace(table, g=None)
    del table   # the last dense g is not needed by the chain's quadrature
    add("energy-lower-bound", "3.2/3.3", ok, worst=worst)

    # interpolation chain at the top level
    ok = True
    worst = None
    for ell in chain_ells:
        for p in (2, 3):
            rep = holder_chain_check(params, top, ell, p, chain_r,
                                     table=chain_tables.get(ell))
            good = rep["chain_holds"] and rep["bound_3_1_holds"]
            ok = ok and good
            if worst is None or rep["slack"] < worst["slack"]:
                worst = {"ell": ell, "p": p, "slack": rep["slack"]}
    add("holder-chain", "3.1", ok, worst=worst)

    # ball condition
    rep = ball_condition_report(params, con.levels[-1])
    add("ball-condition", "frostman", rep["sup_adic_exact_one"]
        and rep["sup_window_ratio"] <= 2.0,
        sup_adic=rep["sup_adic_ratio"], sup_window=rep["sup_window_ratio"])

    return checks


def cmd_verify(args) -> int:
    try:
        con = load_construction(args.dir, validate=False)
    except StorageError as exc:
        print(f"invalid construction directory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    manifest = base_manifest(args, con.params)
    manifest["checks"] = run_verification(con, full=args.full)
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_manifest(Path(args.dir), manifest)
    failed = [c for c in manifest["checks"] if not c["passed"]]
    for c in manifest["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']} [{c['inequality']}]")
    if failed:
        for c in failed:
            detail = c.get("error") or c.get("worst") or c.get("witness") or ""
            print(f"verify: FAILED {c['name']}: {detail}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _orders(text) -> list[int]:
    try:
        orders = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from None
    if min(orders) < 1:
        raise argparse.ArgumentTypeError(f"need every r >= 1, got {text}")
    return orders


def build_parser():
    top = argparse.ArgumentParser(prog="salemlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build level sets from a config")
    c.add_argument("-c", "--config", help="key = value config file")
    c.add_argument("-o", "--out", required=True, help="output directory")
    c.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="run analyses on a construction directory")
    a.add_argument("dir")
    a.add_argument("--out", help="report directory (default DIR/reports)")
    a.add_argument("--level", type=int, help="level to analyze (default j_max)")
    a.add_argument("--spectrum", action="store_true")
    a.add_argument("--decay", action="store_true")
    a.add_argument("--energy", action="store_true")
    a.add_argument("--norms", action="store_true")
    a.add_argument("--ratio", action="store_true")
    a.add_argument("--kmax", type=int, default=4096)
    a.add_argument("--beta", type=float, default=0.4)
    a.add_argument("--lmax", type=int, default=2)
    a.add_argument("--r", type=_orders, default=[2, 3],
                   help="comma-separated energy orders, each >= 1")
    a.add_argument("--p", type=lambda s: [float(x) for x in s.split(",")],
                   default=[2.0, 4.0])
    a.add_argument("--q", type=float, default=2.0)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run the full invariant suite")
    v.add_argument("dir")
    v.add_argument("--full", action="store_true",
                   help="exhaustive frequency range up to 2^20")
    v.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (SpectralError, NormError, EnergyError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
