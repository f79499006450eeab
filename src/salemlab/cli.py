"""Command-line front end: construct, analyze, verify.

Consumers are scripts and CI. Output is CSV/JSON plus a run manifest that
is sufficient to reproduce the run (params + seed + command). Exit codes:
0 pass, 1 verification failure, 2 invalid input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .checks import energy_case, gate, record, run_verification
from .construction import ConstructionError, build_construction
from .energy import EnergyError, sum_distribution
from .expsums import Frequencies
from .norms import NormError, lp_norm, restriction_ratio, thresholds
from .params import CONFIG_KEYS, ParamError, derive_params
from .spectral import SpectralError, compute_spectrum, decay_report, restricted_atoms
from .storage import (
    StorageError, atomic_write_text, level_sha256, load_construction,
    write_construction, write_json, write_manifest,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

def parse_item(item: str, where: str) -> tuple:
    """(key, typed value) of one ``key = value`` item of a config file or of
    ``--set``; ``where`` names the item in the ParamError of a bad one."""
    if "=" not in item:
        raise ParamError(f"{where}: expected key = value, got {item!r}")
    key, _, value = (part.strip() for part in item.partition("="))
    if key not in CONFIG_KEYS:
        raise ParamError(f"{where}: unknown key {key!r}")
    try:
        return key, CONFIG_KEYS[key](value)
    except ValueError:
        raise ParamError(f"{where}: bad value for {key}: {value!r}") from None


def parse_config(path) -> dict:
    """Flat key = value text; # starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = parse_item(line, f"{path}:{lineno}")
            out[key] = value
    return out


def base_manifest(args, params) -> dict:
    return {
        "command": args.command,
        "argv": sys.argv[1:],
        "version": __version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "params": asdict(params),
        "checks": [],
        "outputs": [],
    }


def finish(out_dir, manifest: dict) -> int:
    """Stamp and write the manifest, print one verdict line per check and
    the details of each failure on stderr; the exit code."""
    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_manifest(out_dir, manifest)
    failed = [c for c in manifest["checks"] if not c["passed"]]
    for c in manifest["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} [{c['inequality']}]")
    for c in failed:
        detail = c.get("error") or c.get("worst") or c.get("witness") or ""
        print(f"{manifest['command']}: FAILED {c['name']}: {detail}", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    cfg.update(parse_item(item, "--set") for item in args.set or [])
    missing = [k for k in ("N0", "t0", "n0") if k not in cfg]
    if missing:
        raise ParamError(f"config missing required keys: {', '.join(missing)}")
    params = derive_params(**cfg)
    manifest = base_manifest(args, params)
    con = build_construction(params)
    manifest["audit"] = con.audit
    manifest["outputs"] = write_construction(args.out, con)
    manifest["level_sha256"] = level_sha256(manifest["outputs"])
    manifest["checks"].append(record(
        "construction-invariants", "nesting/cardinality", True,
        detail=f"{params.j_max + 1} levels verified on assembly",
    ))
    print(f"wrote {len(manifest['outputs'])} level files to {args.out}")
    return finish(args.out, manifest)


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    con = load_construction(args.dir)
    params = con.params
    j = args.level if args.level is not None else params.j_max
    if j > params.j_max:
        raise ParamError(f"--level {j} exceeds j_max={params.j_max}")
    out_dir = Path(args.out or (Path(args.dir) / "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = base_manifest(args, params)
    manifest["audit"] = con.audit
    manifest["level_sha256"] = con.level_sha256
    level = con.levels[j]
    lmax = min(args.lmax, j)

    if args.spectrum or args.decay:
        # the spectra share one plan of the frequencies, and each is dropped
        # before the next; --decay reads |coef| of the ell = 0 spectrum that
        # --spectrum writes (decay_report drops k = 0)
        plan = Frequencies(np.arange(args.kmax, dtype=np.int64), params.period(j))
        for ell in range(0, lmax + 1 if args.spectrum else 1):
            spec = compute_spectrum(params, level, plan, ell=ell)
            if ell == 0 and args.decay:
                decay = decay_report(plan.ks, spec.coefficients, args.beta)
            if args.spectrum:
                name = f"spectrum_{'mu' if ell == 0 else f'f{ell}'}_j{j}.csv"
                spec.to_csv(out_dir / name)
                manifest["outputs"].append(str(out_dir / name))
            del spec
        del plan

    if args.decay:
        path = out_dir / f"decay_mu_j{j}.json"
        write_json(path, asdict(decay))
        manifest["outputs"].append(str(path))

    if args.energy:
        rows = [
            energy_case(params, level, ell, r,
                        sum_distribution(restricted_atoms(params, level, ell), r))
            for ell in range(0, lmax + 1) for r in args.r
        ]
        path = out_dir / f"energy_j{j}.json"
        write_json(path, rows)
        manifest["outputs"].append(str(path))
        manifest["checks"].append(
            gate("energy-lower-bound", "3.2/3.3", rows, lambda c: c["slack"])
        )

    # one lattice pass per p serves every window; rows stay in window order
    ells = range(0, lmax + 1)
    if args.norms:
        rows = sorted(({**asdict(est), "j": j, "ell": ell} for p in args.p
                       for ell, est in zip(ells, lp_norm(params, level, ells, p))),
                      key=lambda row: row["ell"])
        path = out_dir / f"norms_j{j}.json"
        write_json(path, rows)
        manifest["outputs"].append(str(path))

    if args.ratio:
        reports = sorted((rep for p in args.p
                          for rep in restriction_ratio(params, level, ells, p, args.q)),
                         key=lambda rep: rep.ell)
        lines = ["ell,p,q,numerator,denominator,ratio,bound_3_1,slack"] + [
            f"{rep.ell},{rep.p},{rep.q},{rep.numerator!r},{rep.denominator!r},"
            f"{rep.ratio!r},{rep.bound_3_1!r},{rep.slack!r}" for rep in reports]
        reps = [asdict(rep) for rep in reports]
        path = out_dir / f"ratios_j{j}.csv"
        atomic_write_text(path, "\n".join(lines) + "\n")
        jpath = out_dir / f"ratios_j{j}.json"
        write_json(jpath, reps)
        manifest["outputs"] += [str(path), str(jpath)]
        cases = [{**rep, "passed": rep["slack"] >= 0} for rep in reps]
        manifest["checks"].append(
            gate("ratio-lower-bound", "3.1", cases, lambda c: c["slack"])
        )

    manifest["thresholds"] = thresholds(params.alpha, beta=params.alpha, q=args.q)
    print(f"analyze: {len(manifest['outputs'])} report files in {out_dir}")
    return finish(out_dir, manifest)


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    con = load_construction(args.dir, validate=False)
    manifest = base_manifest(args, con.params)
    manifest["audit"] = con.audit
    manifest["level_sha256"] = con.level_sha256
    manifest["checks"] = run_verification(con)
    return finish(args.dir, manifest)


# ---------------------------------------------------------------------------
# entry point

def _checked(kind, need: str, ok, many: bool = False):
    """An argparse type: a ``kind`` number, or with ``many`` a comma-separated
    list of them, each finite and satisfying ``ok``; ``need`` states the
    rule."""
    def parse(text):
        try:
            values = [kind(x) for x in text.split(",")] if many else [kind(text)]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {kind.__name__} {text!r}") from None
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise argparse.ArgumentTypeError(f"need finite numbers, got {text}")
        if not all(ok(v) for v in values):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return values if many else values[0]
    return parse


# The number options of ``analyze``. argparse takes a word that starts with
# "-" for an option unless it reads -1 or -1.5, so "--beta -1e400" would end
# in "expected one argument"; ``main`` passes such a pair as "--beta=-1e400",
# and the option's rule decides it.
_NUMBER_OPTIONS = ("--level", "--kmax", "--beta", "--lmax", "--r", "--p", "--q")


def _joined_numbers(argv):
    """argv with each number option followed by a word that starts with a
    single "-" joined to it by "="."""
    out = []
    for word in argv:
        if (out and out[-1] in _NUMBER_OPTIONS and word.startswith("-")
                and not word.startswith("--")):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


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
    a.add_argument("--level", type=_checked(int, ">= 0", lambda v: v >= 0),
                   help="level to analyze (default j_max)")
    a.add_argument("--spectrum", action="store_true")
    a.add_argument("--decay", action="store_true")
    a.add_argument("--energy", action="store_true")
    a.add_argument("--norms", action="store_true")
    a.add_argument("--ratio", action="store_true")
    a.add_argument("--kmax", type=_checked(int, ">= 2", lambda v: v >= 2),
                   default=4096)
    a.add_argument("--beta", type=_checked(float, "0 <= beta <= 2", lambda v: 0 <= v <= 2),
                   default=0.4, help="decay weight exponent, 0 <= beta <= 2")
    a.add_argument("--lmax", type=_checked(int, ">= 0", lambda v: v >= 0),
                   default=2)
    a.add_argument("--r", type=_checked(int, "every r >= 1", lambda v: v >= 1,
                                        many=True),
                   default=[2, 3], help="comma-separated energy orders, each >= 1")
    a.add_argument("--p", type=_checked(float, "every p > 1", lambda v: v > 1,
                                        many=True),
                   default=[2.0, 4.0], help="comma-separated norm exponents, each > 1")
    a.add_argument("--q", type=_checked(float, "q >= 1", lambda v: v >= 1),
                   default=2.0)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run the full invariant suite")
    v.add_argument("dir")
    v.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_joined_numbers(argv))
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
