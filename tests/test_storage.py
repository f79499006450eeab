import json
from dataclasses import asdict

import numpy as np
import pytest

from salemlab import (
    StorageError, load_construction, structured_atoms, write_construction,
)
from salemlab.storage import (
    atomic_write_text, level_filename, level_to_text, parse_level_text,
    read_level, write_manifest,
)


@pytest.fixture()
def written(tmp_path, desk_params, desk):
    write_construction(tmp_path, desk)
    write_manifest(tmp_path, {"params": asdict(desk_params)})
    return tmp_path


def test_round_trip(written, desk_params, desk):
    loaded = load_construction(written)
    assert loaded.params == desk_params
    for a, b in zip(desk.levels, loaded.levels):
        assert a.j == b.j
        assert np.array_equal(a.atoms, b.atoms)


def test_level_text_round_trip(desk_params, desk):
    text = level_to_text(desk_params, desk.levels[3])
    header, level, structured = parse_level_text(text)
    assert header == (4, 2, 1, 7)
    assert level.j == 3
    assert np.array_equal(level.atoms, desk.levels[3].atoms)
    assert structured == structured_atoms(desk_params, 3).tolist()


def test_writes_are_byte_stable(tmp_path, desk_params, desk):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_construction(a, desk)
    write_construction(b, desk)
    for j in range(desk_params.j_max + 1):
        name = level_filename(j)
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_streamed_write_that_fails_leaves_the_old_file(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("old\n")

    def rows():
        for i in range(10):
            yield f"{i}\n"
        raise RuntimeError("row 10")

    with pytest.raises(RuntimeError, match="row 10"):
        atomic_write_text(path, rows())
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob("spec.csv.*")) == []


def test_corrupt_atom_line_names_the_line(written):
    path = written / level_filename(2)
    lines = path.read_text().splitlines()
    lines[3] = "not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match=r":4: bad atom line"):
        read_level(path)


def test_missing_separator_rejected(written):
    path = written / level_filename(1)
    text = path.read_text().replace("\n--\n", "\n")
    path.write_text(text)
    with pytest.raises(StorageError, match="separator"):
        read_level(path)


def test_header_mismatch_across_levels(written):
    path = written / level_filename(1)
    lines = path.read_text().splitlines()
    lines[0] = "4 2 1 99 1"   # different seed than the other levels
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match="header mismatch"):
        load_construction(written)


def test_tampered_atoms_fail_validation(written):
    path = written / level_filename(2)
    lines = path.read_text().splitlines()
    lines[1] = "7"   # replace an atom; breaks nesting/cardinality
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match="inconsistent"):
        load_construction(written)
    # but loading without validation still parses
    con = load_construction(written, validate=False)
    assert len(con.levels) == 6


def test_manifest_round_trip(tmp_path):
    write_manifest(tmp_path, {"a": 1, "nested": {"b": [1, 2]}})
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data == {"a": 1, "nested": {"b": [1, 2]}}


def test_empty_directory_rejected(tmp_path):
    with pytest.raises(StorageError, match="no level files"):
        load_construction(tmp_path)
