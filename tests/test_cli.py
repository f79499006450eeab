import json

import pytest

from salemlab.cli import main
from salemlab.energy import EnergyError
from salemlab.storage import level_filename


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


def test_verify_detects_planted_fault(built, capsys):
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
    assert main(["analyze", str(built), "--level", "9", "--spectrum"]) == 2


def test_threads_env_var(built, monkeypatch):
    monkeypatch.setenv("SALEMLAB_THREADS", "2")
    assert main(["verify", str(built)]) == 0


def test_energy_overflow_exits_3(built, capsys, monkeypatch):
    def overflow(Y, r):
        raise EnergyError("|Y|^(2r) overflows int64")

    monkeypatch.setattr("salemlab.cli.sum_distribution", overflow)
    assert main(["verify", str(built)]) == 3
    assert "resource limit: |Y|^(2r) overflows int64" in capsys.readouterr().err


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
    assert ("rotation retries exhausted at j=1: |sum|=0.8252 >= 0.3812 "
            "at k=18, ell=0") in capsys.readouterr().err
