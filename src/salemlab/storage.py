"""Plain-text persistence for level sets and run manifests.

Level-set file format: a header line ``N0 t0 n0 seed j``, one atom per line,
a ``--`` separator, then the structured atoms. Round-trips exactly. The
structured section is written from the params and checked against them on
load, and so is the SHA-256 of each level file when the manifest records it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .construction import (
    Construction, LevelSet, structured_atoms, verify_construction,
)
from .params import CONFIG_KEYS, ConstructionParams, derive_params

SEPARATOR = "--"


class StorageError(ValueError):
    """Missing, corrupt, or inconsistent persisted data."""


def atomic_write_text(path, text) -> None:
    """Write a string, or the strings of an iterable in turn, all or nothing."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Strict JSON (RFC 8259: a NaN or infinity raises), written atomically."""
    text = json.dumps(obj, indent=2, allow_nan=False, sort_keys=sort_keys)
    atomic_write_text(path, text + "\n")


def level_to_text(params: ConstructionParams, level: LevelSet) -> str:
    lines = [f"{params.N0} {params.t0} {params.n0} {params.seed} {level.j}"]
    lines += [str(int(a)) for a in level.atoms]
    lines.append(SEPARATOR)
    lines += [str(a) for a in structured_atoms(params, level.j).tolist()]
    return "\n".join(lines) + "\n"


def write_level(path, params: ConstructionParams, level: LevelSet) -> None:
    atomic_write_text(path, level_to_text(params, level))


def parse_level_text(text: str, path="<string>"):
    """(header, level, structured section) of a level file's text."""
    lines = text.splitlines()
    if not lines:
        raise StorageError(f"{path}: empty level file")
    header = lines[0].split()
    if len(header) != 5:
        raise StorageError(f"{path}: bad header {lines[0]!r}")
    try:
        N0, t0, n0, seed, j = (int(x) for x in header)
    except ValueError:
        raise StorageError(f"{path}: non-integer header {lines[0]!r}") from None
    atoms, structured = [], []
    bucket = atoms
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line == SEPARATOR:
            if bucket is structured:
                raise StorageError(f"{path}:{lineno}: duplicate separator")
            bucket = structured
            continue
        try:
            bucket.append(int(line))
        except ValueError:
            raise StorageError(f"{path}:{lineno}: bad atom line {line!r}") from None
    if bucket is atoms:
        raise StorageError(f"{path}: missing separator")
    level = LevelSet(j=j, atoms=np.array(atoms, dtype=np.int64))
    return (N0, t0, n0, seed), level, structured


def read_level(path):
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise StorageError(f"{path}: not a text level file: {exc}") from None
    return parse_level_text(text, path=str(path))


def level_filename(j: int) -> str:
    return f"level_{j}.txt"


def write_construction(out_dir, con: Construction) -> list[str]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for level in con.levels:
        p = out_dir / level_filename(level.j)
        write_level(p, con.params, level)
        paths.append(str(p))
    j = len(con.levels)     # the deeper levels of a run written here before go
    while (out_dir / level_filename(j)).exists():
        (out_dir / level_filename(j)).unlink()
        j += 1
    return paths


def level_sha256(paths) -> dict:
    """{file name: SHA-256 hex digest} of the given files."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


def load_construction(in_dir, validate=True) -> Construction:
    in_dir = Path(in_dir)
    manifest = read_manifest(in_dir) or {}
    levels, sections = [], []
    header0 = None
    j = 0
    while (in_dir / level_filename(j)).exists():
        header, level, structured = read_level(in_dir / level_filename(j))
        if level.j != j:
            raise StorageError(f"{level_filename(j)}: header level {level.j} != {j}")
        if header0 is None:
            header0 = header
        elif header != header0:
            raise StorageError(f"{level_filename(j)}: header mismatch across levels")
        levels.append(level)
        sections.append(structured)
        j += 1
    if not levels:
        raise StorageError(f"no level files found in {in_dir}")
    p = manifest.get("params", {})
    if p.get("j_max", j - 1) != j - 1:
        # a truncated run would otherwise verify over the levels it kept
        raise StorageError(f"{in_dir}: the manifest has j_max = {p['j_max']}, "
                           f"but the level files stop before {level_filename(j)}")
    # the level files fix N0, t0, n0, seed and depth; other keys are ignored
    N0, t0, n0, seed = header0
    known = {k: p[k] for k in CONFIG_KEYS if k in p}
    params = derive_params(**{**known, "N0": N0, "t0": t0, "n0": n0,
                              "seed": seed, "j_max": len(levels) - 1})
    for j, structured in enumerate(sections):
        if structured != structured_atoms(params, j).tolist():
            raise StorageError(
                f"{in_dir / level_filename(j)}: structured section differs from "
                f"the progression iterated over {j} digits"
            )
    recorded = manifest.get("level_sha256", {})
    if recorded:
        found = level_sha256(in_dir / level_filename(j) for j in range(len(levels)))
        for name, digest in recorded.items():
            if found.get(name) != digest:
                raise StorageError(f"{in_dir / name}: SHA-256 differs from the "
                                   f"manifest's level_sha256")
    con = Construction(params=params, levels=levels,
                       audit=manifest.get("audit", []), level_sha256=recorded)
    if validate:
        try:
            verify_construction(con)
        except Exception as exc:
            raise StorageError(f"loaded construction is inconsistent: {exc}") from exc
    return con


MANIFEST_NAME = "manifest.json"


def write_manifest(out_dir, manifest: dict) -> str:
    path = Path(out_dir) / MANIFEST_NAME
    write_json(path, manifest, sort_keys=True)
    return str(path)


def read_manifest(in_dir) -> dict | None:
    path = Path(in_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: corrupt manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise StorageError(f"{path}: manifest is not a JSON object")
    return manifest
