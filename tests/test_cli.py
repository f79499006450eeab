import hashlib
import json
from fractions import Fraction

import pytest

from salemlab import checks, cli, construction, energy, expsums
from salemlab.cli import main
from salemlab.construction import ConstructionError
from salemlab.energy import EnergyError
from salemlab.expsums import SpectralError
from salemlab.norms import NormError
from salemlab.params import ParamError
from salemlab.storage import StorageError, level_filename


CONFIG = "N0 = 4\nt0 = 2\nn0 = 1\nj_max = 3\nseed = 7\n"


@pytest.fixture()
def built(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "run"
    assert main(["construct", "-c", str(cfg), "-o", str(out)]) == 0
    return out


def test_construct_writes_levels_and_manifest(built):
    for j in range(0, 4):
        assert (built / level_filename(j)).exists()
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["params"]["N"] == 16
    assert manifest["params"]["seed"] == 7
    assert manifest["audit"][0]["mode"] == "deterministic"
    assert all(c["passed"] for c in manifest["checks"])


def test_construct_is_reproducible(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "-c", str(cfg), "-o", str(a)]) == 0
    assert main(["construct", "-c", str(cfg), "-o", str(b)]) == 0
    for j in range(0, 4):
        name = level_filename(j)
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_construct_set_override(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "run"
    assert main(["construct", "-c", str(cfg), "-o", str(out),
                 "--set", "seed=9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["seed"] == 9


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N0 = 4\nt0 = nope\n")
    assert main(["construct", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "bad value" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N0 = 4\nt0 = 2\nn0 = 1\nbogus = 3\n")
    assert main(["construct", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("item, message", [
    ("N0=abc", "--set: bad value for N0: 'abc'"),
    ("N0", "--set: expected key = value, got 'N0'"),
    ("bogus=3", "--set: unknown key 'bogus'"),
    ("fft_budget=4096", "--set: unknown key 'fft_budget'"),
    ("k_budget=4096", "--set: unknown key 'k_budget'"),
    ("max_retries=1", "--set: unknown key 'max_retries'"),
    ("ap_gap=3", "--set: unknown key 'ap_gap'"),
    ("ap_offset=1", "--set: unknown key 'ap_offset'"),
])
def test_bad_set_item_exits_2(tmp_path, capsys, item, message):
    assert main(["construct", "-o", str(tmp_path / "x"), "--set", item]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("item, message", [
    ("c_eta=-1", "need a finite c_eta > 0, got -1.0"),
    ("c_eta=0", "need a finite c_eta > 0, got 0.0"),
    ("c_rot=nan", "need a finite c_rot > 0, got nan"),
    ("c_rot=inf", "need a finite c_rot > 0, got inf"),
    ("seed=-1", "need seed >= 0, got -1"),
])
def test_out_of_range_override_exits_2(tmp_path, capsys, item, message):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(CONFIG)
    assert main(["construct", "-c", str(cfg), "-o", str(tmp_path / "x"),
                 "--set", item]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N0 = 4\nt0 = 2\n")
    assert main(["construct", "-c", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "missing required" in capsys.readouterr().err


def test_verify_passes_on_good_construction(built, capsys):
    assert main(["verify", str(built)]) == 0
    out = capsys.readouterr().out
    for name in ("construction-invariants", "parseval", "mass-identity",
                 "telescoping", "trivial-bound", "energy-lower-bound",
                 "holder-chain", "ball-condition"):
        assert f"PASS {name}" in out


# What verify records on the desk config at j_max=3, seed 7: the order of
# the checks and the keys and values of each worst case. The benchmark's
# reference compares these floats by position.
VERIFY_RECORDS = [
    ("construction-invariants", "nesting/cardinality"),
    ("parseval", "plancherel"),
    ("mass-identity", "3.1-mass"),
    ("telescoping", "2.7/2.8"),
    ("trivial-bound", "2.11"),
    ("energy-lower-bound", "3.2/3.3"),
    ("holder-chain", "3.1"),
    ("ball-condition", "frostman"),
]
VERIFY_WORST = {
    "trivial-bound": {"checked": 6136, "ell": 3, "j": 3,
                      "max_ratio": 0.7269249499745858, "worst_k": 108098},
    "energy-lower-bound": {"ell": 0, "j": 0, "r": 2, "slack": 0.5},
    "holder-chain": {"ell": 2, "p": 3, "slack": 0.017533416396119703},
}


def test_verify_records_are_pinned(built):
    assert main(["verify", str(built)]) == 0
    checks = json.loads((built / "manifest.json").read_text())["checks"]
    assert [(c["name"], c["inequality"]) for c in checks] == VERIFY_RECORDS
    assert all(c["passed"] is True for c in checks)
    by_name = {c["name"]: c for c in checks}
    assert by_name["parseval"]["worst_rel_error"] == 0.0
    assert by_name["mass-identity"]["worst_abs_error"] == 0.0
    tele = by_name["telescoping"]
    assert tele["max_ratio"] == pytest.approx(3.4342190736385464e-05, rel=1e-9)
    assert tele["witness"] == {"j": 2, "ell": 0, "k": 180}
    # the residues read over (j, ell) = (1, 0..1) and (2, 0..2): every pair
    # {k, P - k}, k != 0, of P = 16^2 and 16^3 once per window
    assert tele["checked"] == 2 * 128 + 3 * 2048
    for name, worst in VERIFY_WORST.items():
        assert by_name[name]["worst"] == pytest.approx(worst, rel=1e-9), name
    ball = by_name["ball-condition"]
    assert ball["sup_adic"] == 1.0
    assert ball["sup_window"] == pytest.approx(1.414213562373095, rel=1e-9)


def test_failing_telescoping_names_its_witness(built, capsys):
    # in verify only telescoping reads c_rot: at 0.01 its constant C = 2 c_rot
    # is far below the ratios read at the default 6144
    path = built / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["params"]["c_rot"] = 0.01
    path.write_text(json.dumps(manifest))
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("FAIL")] == [
        "FAIL telescoping [2.7/2.8]"]
    # the ratios scale by 6144 / 0.01, so the witness is the one pinned above
    assert captured.err == "verify: FAILED telescoping: {'j': 2, 'ell': 0, 'k': 180}\n"
    tele = json.loads(path.read_text())["checks"][3]
    assert tele["witness"] == {"j": 2, "ell": 0, "k": 180}
    assert tele["max_ratio"] == pytest.approx(3.4342190736385464e-05 * 614400, rel=1e-9)


def test_verify_keeps_the_construct_audit(built):
    audit = json.loads((built / "manifest.json").read_text())["audit"]
    assert audit
    assert main(["verify", str(built)]) == 0
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["audit"] == audit


def test_analyze_into_the_run_keeps_the_construct_audit(built):
    audit = json.loads((built / "manifest.json").read_text())["audit"]
    assert audit
    assert main(["analyze", str(built), "--out", str(built), "--energy",
                 "--level", "2"]) == 0
    assert json.loads((built / "manifest.json").read_text())["audit"] == audit
    assert main(["verify", str(built)]) == 0
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["audit"] == audit


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_construct_records_the_level_hashes(built):
    manifest = json.loads((built / "manifest.json").read_text())
    assert manifest["level_sha256"] == {
        level_filename(j): _sha256(built / level_filename(j)) for j in range(4)
    }


def _edit_one_byte(path):
    # the final newline becomes a space: the atoms, the structured section
    # and every invariant still read the same, so only the hash can tell
    data = path.read_bytes()
    path.write_bytes(data[:-1] + b" ")


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_one_byte_edit_exits_2(built, capsys, command):
    path = built / level_filename(2)
    _edit_one_byte(path)
    assert main([command, str(built)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: SHA-256 differs from the manifest's level_sha256" in err
    assert "Traceback" not in err


def test_level_hashes_survive_analyze_into_the_run(built, capsys):
    recorded = json.loads((built / "manifest.json").read_text())["level_sha256"]
    assert main(["analyze", str(built), "--out", str(built), "--energy",
                 "--level", "2"]) == 0
    assert json.loads((built / "manifest.json").read_text())["level_sha256"] == recorded
    assert main(["verify", str(built)]) == 0
    assert json.loads((built / "manifest.json").read_text())["level_sha256"] == recorded
    _edit_one_byte(built / level_filename(3))
    assert main(["verify", str(built)]) == 2
    assert "level_3.txt: SHA-256 differs" in capsys.readouterr().err


def test_non_text_level_file_exits_2(built, capsys):
    path = built / level_filename(1)
    data = path.read_bytes()
    path.write_bytes(data[:2] + b"\xff" + data[3:])
    assert main(["analyze", str(built), "--spectrum"]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: not a text level file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_edited_structured_section_exits_2(built, capsys, command):
    path = built / level_filename(3)
    lines = path.read_text().splitlines()
    lines[lines.index("--") + 1] = "1"   # the first structured atom is 0
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(built)]) == 2
    assert f"error: {path}: structured section" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["analyze", "--level", "1"]])
def test_truncated_run_exits_2(built, capsys, command):
    (built / level_filename(2)).unlink()
    assert main([command[0], str(built), *command[1:]]) == 2
    assert (f"error: {built}: the manifest has j_max = 3, but the level files "
            f"stop before level_2.txt") in capsys.readouterr().err


def test_run_without_manifest_takes_its_levels_from_the_files(built):
    (built / "manifest.json").unlink()
    (built / level_filename(3)).unlink()
    assert main(["analyze", str(built), "--energy"]) == 0
    manifest = json.loads((built / "reports" / "manifest.json").read_text())
    assert manifest["params"]["j_max"] == 2


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_corrupt_manifest_exits_2(built, capsys, command):
    (built / "manifest.json").write_text('{"params": ')
    assert main([command, str(built)]) == 2
    assert "corrupt manifest" in capsys.readouterr().err


def test_verify_detects_planted_fault(built, capsys):
    # without recorded hashes the planted fault reaches the invariant check
    manifest = json.loads((built / "manifest.json").read_text())
    del manifest["level_sha256"]
    (built / "manifest.json").write_text(json.dumps(manifest))
    path = built / level_filename(2)
    lines = path.read_text().splitlines()
    sep = lines.index("--")
    # move one non-structured atom under parent digit 6, which is not a
    # level-1 atom; the value 100 keeps the list sorted (no atoms in [48, 240))
    idx = max(i for i in range(1, sep) if int(lines[i]) < 48
              and int(lines[i]) not in (0, 15))
    lines[idx] = "100"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert "FAIL construction-invariants" in captured.out
    assert "nesting" in captured.out + captured.err


def test_verify_names_a_parent_without_t_children(built, capsys):
    # without recorded hashes, atom 8, a non-structured child of parent 0,
    # moves to the unused digit 0 under parent 1 (atom 16): every parent is
    # still met, and verify names the level and the parent with 3 children
    manifest = json.loads((built / "manifest.json").read_text())
    del manifest["level_sha256"]
    (built / "manifest.json").write_text(json.dumps(manifest))
    path = built / level_filename(3)
    lines = path.read_text().splitlines()
    sep = lines.index("--")
    atoms = [int(line) for line in lines[1:sep]]
    assert atoms[:4] == [0, 8, 9, 15] and 16 not in atoms
    lines[1:sep] = map(str, sorted(set(atoms) - {8} | {16}))
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert "FAIL construction-invariants" in captured.out
    assert "level 3: parent 0 has 3 children != t=4" in captured.err


def test_failing_parseval_names_its_level(built, capsys, monkeypatch):
    # the tables of level 2's period, 16^2, read twice the sums
    half_classes = expsums.half_classes

    def doubled(period):
        for ks, sums, mirrored in half_classes(period):
            yield (ks, (lambda atoms, sums=sums: 2 * sums(atoms)) if period == 256
                   else sums, mirrored)

    monkeypatch.setattr(expsums, "half_classes", doubled)
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert "FAIL parseval" in captured.out
    assert "verify: FAILED parseval: {'j': 2}" in captured.err


def test_failing_mass_identity_names_its_window(built, capsys, monkeypatch):
    # level 2's window 1 counts one atom short
    direct_mass = checks.direct_mass

    def short(params, level, ell):
        mass = direct_mass(params, level, ell)
        return mass - Fraction(1, params.t**level.j) if (level.j, ell) == (2, 1) else mass

    monkeypatch.setattr(checks, "direct_mass", short)
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert "FAIL mass-identity" in captured.out
    assert "verify: FAILED mass-identity: {'j': 2, 'ell': 1}" in captured.err


def test_failing_ball_condition_names_its_witness(built, capsys, monkeypatch):
    # the window supremum doubled past 2: the record names the scale and
    # start of each supremum, the first scale that reaches it
    report = checks.ball_condition_report
    monkeypatch.setattr(checks, "ball_condition_report", lambda *args: {
        **report(*args), "sup_window_ratio": 2 * report(*args)["sup_window_ratio"]})
    assert main(["verify", str(built)]) == 1
    captured = capsys.readouterr()
    assert "FAIL ball-condition" in captured.out
    assert ("verify: FAILED ball-condition: {'adic': {'m': 0, 'cell': 0}, "
            "'window': {'m': 1, 'start': 0}}") in captured.err


def test_construct_beyond_the_transform_budget_exits_3(tmp_path, capsys, monkeypatch):
    # at c_rot = 0.35 the rotations of j = 3 are read over all 16^4
    # residues, which the budget refuses; at the default constants the
    # triangle bound accepts them unread, and every level is written
    monkeypatch.setattr(expsums, "FFT_BUDGET", 4096)
    argv = ["construct", "--set", "N0=4", "--set", "t0=2", "--set", "n0=1",
            "--set", "j_max=4", "--set", "seed=7"]
    assert main(argv + ["--set", "c_rot=0.35", "-o", str(tmp_path / "a")]) == 3
    assert ("resource limit: transform length 65536 exceeds the dense transform "
            "budget 4096") in capsys.readouterr().err
    assert main(argv + ["-o", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / level_filename(4)).exists()


def test_base_block_read_beyond_the_transform_budget_exits_3(tmp_path, capsys,
                                                            monkeypatch):
    # N = 9 at c_eta = 0.7, seed 3: the grid of K = 729 points cannot decide
    # level 4's block (P = 9^4), so every residue is read, as its equal
    # margin and bound show; a budget below P refuses that read
    argv = ["construct", "--set", "N0=3", "--set", "t0=2", "--set", "n0=1",
            "--set", "j_max=4", "--set", "seed=3", "--set", "c_eta=0.7"]
    assert main(argv + ["-o", str(tmp_path / "a")]) == 0
    audit = json.loads((tmp_path / "a" / "manifest.json").read_text())["audit"]
    assert audit[3]["j"] == 4 and audit[3]["block_verified_k"] == 9 * 9**4
    assert audit[3]["block_margin"] == audit[3]["block_margin_bound"] < 1
    monkeypatch.setattr(expsums, "FFT_BUDGET", 4096)
    assert main(argv + ["-o", str(tmp_path / "b")]) == 3
    assert ("resource limit: transform length 6561 exceeds the dense transform "
            "budget 4096") in capsys.readouterr().err


def test_verify_beyond_the_transform_budget_exits_3(built, capsys, monkeypatch):
    # Parseval reads every level's period before the decay screens run:
    # the top level's 16^3 points are refused there
    monkeypatch.setattr(expsums, "FFT_BUDGET", 4095)
    monkeypatch.setattr(checks, "_decay_screens", None)
    assert main(["verify", str(built)]) == 3
    assert "resource limit: transform length 4096 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("j_max", [0, 1])
def test_verify_records_a_vacuous_telescoping(tmp_path, capsys, j_max):
    # no step j -> j + 1 with j >= 1 exists, so telescoping screens nothing;
    # its record is kept, in its place, and says so
    out = tmp_path / "run"
    assert main(["construct", "-o", str(out), "--set", "N0=4", "--set", "t0=2",
                 "--set", "n0=1", "--set", f"j_max={j_max}", "--set", "seed=7"]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {name} [{inequality}]" for name, inequality in VERIFY_RECORDS]
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert checks[3] == {"name": "telescoping", "inequality": "2.7/2.8", "passed": True,
                         "max_ratio": None, "witness": None, "checked": 0}


def test_verify_missing_dir_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nothing")]) == 2


def test_analyze_reports(built):
    assert main(["analyze", str(built), "--level", "2", "--kmax", "512",
                 "--spectrum", "--decay", "--energy", "--norms",
                 "--ratio", "--lmax", "1"]) == 0
    reports = built / "reports"
    spec = (reports / "spectrum_mu_j2.csv").read_text().splitlines()
    assert spec[0] == "k,re,im,abs"
    assert len(spec) == 513
    energy = json.loads((reports / "energy_j2.json").read_text())
    assert all(row["slack"] >= 0 for row in energy)
    assert all(row["inequality"] == "3.2" for row in energy)
    ratios = json.loads((reports / "ratios_j2.json").read_text())
    assert all(row["slack"] >= 0 for row in ratios)
    manifest = json.loads((reports / "manifest.json").read_text())
    assert manifest["thresholds"]["p_necessary"] == 4.0
    assert all(c["passed"] for c in manifest["checks"])


def test_analyze_corrupt_level_exits_2(built, capsys):
    path = built / level_filename(1)
    text = path.read_text().replace("15", "fifteen", 1)
    path.write_text(text)
    assert main(["analyze", str(built), "--spectrum"]) == 2
    assert "bad atom line" in capsys.readouterr().err


def test_analyze_bad_level_exits_2(built, capsys):
    out = built.parent / "new"
    assert main(["analyze", str(built), "--level", "9", "--out", str(out),
                 "--spectrum"]) == 2
    assert "error: --level 9 exceeds j_max=3" in capsys.readouterr().err
    assert not out.exists()


def test_energy_overflow_exits_3(built, capsys, monkeypatch):
    def overflow(Y, r):
        raise EnergyError("|Y|^r overflows int64")

    monkeypatch.setattr("salemlab.checks.sum_distribution", overflow)
    assert main(["verify", str(built)]) == 3
    assert "resource limit: |Y|^r overflows int64" in capsys.readouterr().err


def test_energy_width_beyond_the_budget_exits_3(built, capsys, monkeypatch):
    # the widest verify table of this config is level 3, r = 3: its atoms
    # span less than 16^3, so 3 * 4095 + 1 = 12286 entries at most
    energy._table.cache_clear()
    monkeypatch.setattr(energy, "WIDTH_BUDGET", 4096)
    assert main(["verify", str(built)]) == 3
    assert "exceed the width budget 4096" in capsys.readouterr().err


def test_energy_work_beyond_the_budget_exits_3(built, capsys, monkeypatch):
    # level 3's ell = 0, r = 2 table: 64 atoms spanning less than 16^3 need at
    # most 64 * (2 + 4095) adds
    energy._table.cache_clear()
    monkeypatch.setattr(energy, "WORK_BUDGET", 2**16)
    assert main(["analyze", str(built), "--energy"]) == 3
    assert "over the work budget 65536" in capsys.readouterr().err


def test_energy_tables_are_counted_once_per_process(built, monkeypatch):
    counted = []
    count = energy._sum_counts
    monkeypatch.setattr(energy, "_sum_counts",
                        lambda Y, r: counted.append((bytes(Y), r)) or count(Y, r))
    energy._table.cache_clear()
    assert main(["analyze", str(built), "--energy", "--norms", "--ratio",
                 "--p", "2,4,6"]) == 0
    assert counted and len(counted) == len(set(counted))
    n_analyze = len(counted)
    assert main(["verify", str(built)]) == 0
    assert len(counted) > n_analyze
    assert len(counted) == len(set(counted))


def test_lattice_beyond_the_budget_exits_3(built, capsys, monkeypatch):
    # the level-3 lattice at h = 1/4 has 16^3 * 4 points per period
    monkeypatch.setattr(expsums, "FFT_BUDGET", 4096)
    assert main(["analyze", str(built), "--norms", "--p", "3"]) == 3
    assert "resource limit: transform length 16384 exceeds" in capsys.readouterr().err


def test_spectrum_beyond_the_budget_exits_3(built, capsys, monkeypatch):
    # a plan of the level-3 frequencies needs the period's 16^3 points
    monkeypatch.setattr(expsums, "FFT_BUDGET", 4095)
    assert main(["analyze", str(built), "--spectrum"]) == 3
    assert "resource limit: transform length 4096 exceeds" in capsys.readouterr().err


def test_manifest_with_a_transform_budget_still_loads(built):
    # runs written while the budgets and the progression were parameters
    # record them in the manifest
    path = built / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["params"].update(fft_budget=2**26, k_budget=2**20, max_retries=64,
                              ap_offset=0, ap_gap=15)
    path.write_text(json.dumps(manifest))
    assert main(["verify", str(built)]) == 0
    assert main(["analyze", str(built), "--energy", "--norms", "--p", "3"]) == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--level", "-1", "need >= 0, got -1"),
    ("--kmax", "1", "need >= 2, got 1"),
    ("--p", "0", "need every p > 1, got 0"),
    ("--p", "1", "need every p > 1, got 1"),
    ("--q", "0.5", "need q >= 1, got 0.5"),
    ("--p", "inf", "need finite numbers, got inf"),
    ("--p", "2,nan", "need finite numbers, got 2,nan"),
    ("--q", "inf", "need finite numbers, got inf"),
    ("--beta", "nan", "need finite numbers, got nan"),
    ("--beta", "inf", "need finite numbers, got inf"),
    ("--beta", "-1e400", "need finite numbers, got -1e400"),
    ("--beta", "1e308", "need 0 <= beta <= 2, got 1e308"),
    ("--p", "-2e0", "need every p > 1, got -2e0"),
    ("--q", "-1e0", "need q >= 1, got -1e0"),
    ("--r", "-1,2", "need every r >= 1, got -1,2"),
    ("--level", "-1e0", "bad int '-1e0'"),
])
def test_analyze_rejects_bad_numbers_at_parse_time(built, capsys, flag, value,
                                                   message):
    # joined by "=" and as its own argument, which argparse would take for
    # an option when it starts with "-" and is not plain -1 or -1.5
    for value_args in ([f"{flag}={value}"], [flag, value]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(built), "--energy", "--decay", *value_args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--norms", "--p", "1e300"],           # even, so the exact order r = p/2
    ["--energy", "--r", "1000000000000000000"],
    # one atom: |Y|^r never overflows, but the order alone is refused
    ["--level", "0", "--energy", "--r", "100000000"],
    ["--level", "0", "--norms", "--p", "1e300"],
], ids=["p-1e300", "r-1e18", "level0-r-1e8", "level0-p-1e300"])
def test_analyze_refuses_an_overflowing_order(built, capsys, args):
    # |Y|^r would leave int64 at once; the power itself is never formed
    assert main(["analyze", str(built)] + args) == 3
    assert "would overflow exact int64 energy counts" in capsys.readouterr().err


def test_analyze_norms_at_large_p_are_finite(built):
    # at p = 100.5 the level-3 lattice weights were inf * 0 = nan, and at
    # p = 1001 the tail bound overflowed
    out = built / "reports"
    assert main(["analyze", str(built), "--lmax", "0", "--norms",
                 "--p", "100.5,1001"]) == 0
    rows = json.loads((out / "norms_j3.json").read_text(), parse_constant=_reject)
    assert [row["p"] for row in rows] == [100.5, 1001.0]
    assert all(row["value"] >= 0.25 for row in rows)


def test_analyze_ratio_refuses_a_large_spline_order(built, capsys):
    # p = 1000001 needs the B-spline of order r = 500001, O(r^2) to build
    assert main(["analyze", str(built), "--lmax", "0", "--ratio",
                 "--p", "1000001"]) == 3
    assert "order r = 500001: r >= 63 is refused" in capsys.readouterr().err


def test_analyze_rejects_order_below_one_at_parse_time(built, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(built), "--energy", "--r", "2,0"])
    assert exc.value.code == 2
    assert "need every r >= 1" in capsys.readouterr().err


def test_construct_exits_1_when_rotation_retries_run_out(tmp_path, capsys):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(CONFIG)
    assert main(["construct", "-c", str(cfg), "-o", str(tmp_path / "run"),
                 "--set", "c_rot=0.2"]) == 1
    assert ("rotation retries exhausted at j=1: |sum|=0.634 >= 0.3812 "
            "at k=17, ell=0") in capsys.readouterr().err


def test_construct_exits_1_when_no_base_block_draw_has_members(tmp_path, capsys,
                                                              monkeypatch):
    # at seed 45 the one base block draw allowed at j = 1 keeps no digit
    monkeypatch.setattr(construction, "MAX_RETRIES", 1)
    items = ["N0=4", "t0=2", "n0=1", "j_max=2", "seed=45", "c_eta=1"]
    args = ["construct", "-o", str(tmp_path / "run")]
    assert main(args + [a for item in items for a in ("--set", item)]) == 1
    assert ("construction failed: base block retries exhausted at j=1: "
            "no draw had members") in capsys.readouterr().err


def test_verify_passes_where_energy_exceeds_int64(tmp_path):
    # at (4, 3, 1, 4) the level-4 window has |Y|^(2r) = 6561^6 > 2^63, so M
    # and its correlations need exact sums beyond int64; |Y|^r counts do not
    out = tmp_path / "run"
    sets = ["N0=4", "t0=3", "n0=1", "j_max=4", "seed=7"]
    assert main(["construct", "-o", str(out)]
                + [arg for s in sets for arg in ("--set", s)]) == 0
    assert main(["verify", str(out)]) == 0


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_reports_are_strict_json(built, tmp_path):
    # q = 1 has no finite pq bound, and kmax = 2 leaves one octave to fit
    out = tmp_path / "reports"
    assert main(["analyze", str(built), "--out", str(out), "--ratio",
                 "--q", "1", "--decay", "--kmax", "2", "--lmax", "0"]) == 0
    parsed = {path.name: json.loads(path.read_text(), parse_constant=_reject)
              for path in out.glob("*.json")}
    assert parsed["manifest.json"]["thresholds"]["pq_bound"] is None
    assert parsed["ratios_j3.json"][0]["thresholds"]["pq_bound"] is None
    assert parsed["decay_mu_j3.json"]["fitted_exponent"] is None


# each error class the entry point maps, with its exit code and the prefix
# of its one stderr line
EXIT_CASES = [
    (ParamError, 2, "error:"),
    (StorageError, 2, "error:"),
    (ConstructionError, 1, "construction failed:"),
    (SpectralError, 3, "resource limit:"),
    (NormError, 3, "resource limit:"),
    (EnergyError, 3, "resource limit:"),
    (MemoryError, 3, "resource limit:"),
]


@pytest.mark.parametrize("error, code, prefix", EXIT_CASES,
                         ids=[case[0].__name__ for case in EXIT_CASES])
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch,
                                              error, code, prefix):
    def stage(params):
        raise error("planted")

    monkeypatch.setattr(cli, "build_construction", stage)
    argv = ["construct", "--set", "N0=4", "--set", "t0=2", "--set", "n0=1",
            "-o", str(tmp_path / "run")]
    assert main(argv) == code
    assert capsys.readouterr().err == f"{prefix} planted\n"
