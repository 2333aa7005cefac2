import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mskit
from mskit import io as mio
from mskit.bratteli import row_labels
from mskit.cli import main
from mskit.rand import random_density, rng_from_seed
from mskit.schur import SchurTransform

from test_schur import splits_made  # noqa: F401  (fixture)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "2", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert sum(e["dim"] * e["mult"] for e in data) == 81
    pairs = {(e["dim"], e["mult"]) for e in data}
    assert pairs == {(27, 1), (10, 1), (8, 4), (1, 2)}
    assert len(data) == 5


def test_census_trivial(capsys):
    code, out, _ = run(capsys, "census", "0", "0", "5")
    assert code == 0
    data = json.loads(out)
    assert data == [{"staircase": "[0,0,0,0,0]", "dim": 1, "mult": 1}]


def test_census_cap_exit_code(capsys):
    code, _, err = run(capsys, "census", "8", "8", "3")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ["census", "100000000", "0", "2"],
    ["schur", "100000000", "0", "2"],
    ["verify", "100000000", "0", "2"],
    ["ptpqp", "100000000", "0", "2", "--term", "1:t1-b1", "--time", "1",
     "--from", "[1,0]:0:0", "--to", "[1,0]:0:0"],
    ["bratteli", "60", "60", "60"],
    # 1^(n+m) is 1: the cap bounds the legs at d = 1
    pytest.param(["census", "100000000", "0", "1"], id="census d=1"),
    pytest.param(["bratteli", "100000000", "0", "1"], id="bratteli d=1"),
    pytest.param(["schur", "100000000", "0", "1"], id="schur d=1"),
], ids=lambda argv: argv[0])
def test_huge_sizes_fail_the_cap_check_at_once(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds cap" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "2", "2"])
    assert exc.value.code == 2


def _fresh(*argv):
    """Exit code, stdout and stderr of mskit argv in a process of its own."""
    src = str(pathlib.Path(mskit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "mskit.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
                         timeout=120)
    return out.returncode, out.stdout, out.stderr


def test_calls_of_main_share_nothing_but_the_parser(capsys, monkeypatch):
    # main builds its parser once per process, so a call must leave nothing
    # behind for the next: each command of a mixed sequence, a usage error
    # among them, prints what it prints first in a process of its own
    monkeypatch.setenv("COLUMNS", "80")
    seq = [("census", "2", "1", "2"), ("verify", "2", "1", "2", "--trials", "0"),
           ("schur", "1", "1", "2")]

    def here(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    got = [here(argv) for argv in seq + seq[:1]]
    want = [_fresh(*argv) for argv in seq]
    assert want[1][0] == 2 and "--trials >= 1" in want[1][2]
    assert got == want + want[:1]


def test_bratteli_dot(capsys):
    code, out, _ = run(capsys, "--cap", "4096", "bratteli", "2", "2", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '[label="[1,-1]"]' in out


def test_bratteli_plain_d1(capsys):
    code, out, _ = run(capsys, "bratteli", "1", "1", "1")
    assert code == 0
    assert "level 2: [0]" in out


def test_schur_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "schur", "2", "1", "2", "--order", "++-", "--out", str(f1))[0] == 0
    assert run(capsys, "schur", "2", "1", "2", "--order", "++-", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_schur_stdout_round_trip(capsys):
    code, out, _ = run(capsys, "schur", "1", "1", "2")
    assert code == 0
    W = mio.read_schur(io.StringIO(out))
    assert W.unitarity_residual() < 1e-12


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "2", "1", "2", "--trials", "5")
    assert code == 0
    assert "ok" in out and "FAIL" not in out
    assert "diagram side" in out


def test_verify_corrupted_file(tmp_path, capsys):
    f = tmp_path / "w"
    run(capsys, "schur", "2", "1", "2", "--out", str(f))
    lines = f.read_text().splitlines()
    # corrupt one matrix entry
    row = lines[10].split()
    row[0] = "0.5,0.0"
    lines[10] = " ".join(row)
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--file", str(f), "--trials", "3")
    assert code == 1
    assert "FAIL" in out


def test_verify_fails_a_nan_inside_a_sector(tmp_path, capsys):
    # a NaN in any product a check forms is that check's residual, never dropped
    f = tmp_path / "w"
    run(capsys, "schur", "2", "1", "2", "--out", str(f))
    W = mio.read_schur(io.StringIO(f.read_text()))
    assert W.sectors[1][1] == W.sectors[2][4]  # entry (1, 4) lies inside a sector
    lines = f.read_text().splitlines()
    row = lines[2 + W.size + 1].split()
    row[4] = "nan,0.0"
    lines[2 + W.size + 1] = " ".join(row)
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--file", str(f), "--trials", "3")
    assert code == 1
    results = dict(line.split(": ", 1) for line in out.splitlines())
    for name in ("unitarity", "block off-diagonal", "multiplicity structure", "diagram side"):
        assert results[name] == "nan FAIL"


def test_verify_needs_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("shape", [["3", "3", "3"], ["3", "3", "3", "--order=+-+-+-"],
                                   ["--order=++-"], ["2"]])
def test_verify_file_rejects_a_shape_or_order(tmp_path, capsys, shape):
    # the file fixes n, m, d and the order; a usage error, before the file is opened
    f = tmp_path / "w"
    run(capsys, "schur", "2", "1", "2", "--out", str(f))
    for path in (str(f), str(tmp_path / "missing")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *shape, "--file", path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not both" in captured.err


def test_channel_example_schur_values(capsys):
    code, out, _ = run(capsys, "channel", "example", "--t", "0.1", "--u", "0",
                       "--v", "0", "--w", "0", "--schur")
    assert code == 0
    vals = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(vals["A"]) == pytest.approx(1.0)
    assert complex(vals["B"]) == pytest.approx(-2 * np.sqrt(3) * 0.1)
    assert float(vals["D"]) == pytest.approx(0.6)
    assert float(vals["E"]) == pytest.approx(1.2)


def test_channel_m2prob(capsys):
    code, out, _ = run(capsys, "channel", "m2prob", "--d", "2")
    assert code == 0
    assert out.startswith("1/4 = 0.25")


def test_channel_apply_and_teleport(tmp_path, capsys):
    choi = tmp_path / "choi"
    rho_f = tmp_path / "rho"
    out_f = tmp_path / "out"
    code, _, _ = run(capsys, "channel", "example", "--t", "0.05", "--u", "0.01",
                     "--v", "0.0", "--w", "0.0", "--out", str(choi))
    assert code == 0
    rho = random_density(2, rng_from_seed(1))
    with open(rho_f, "w") as f:
        mio.write_matrix(f, rho)
    code, _, _ = run(capsys, "channel", "apply", "--choi", str(choi),
                     "--rho", str(rho_f), "--out", str(out_f))
    assert code == 0
    with open(out_f) as f:
        direct = mio.read_matrix(f)
    code, _, err = run(capsys, "channel", "teleport", "--choi", str(choi),
                       "--rho", str(rho_f), "--out", str(out_f))
    assert code == 0
    assert "uniform" in err
    with open(out_f) as f:
        tele = mio.read_matrix(f)
    assert np.abs(tele - direct).max() < 1e-8
    # the output sums every outcome, so --seed does not change it
    code, out, _ = run(capsys, "channel", "teleport", "--choi", str(choi),
                       "--rho", str(rho_f), "--seed", "5")
    assert code == 0 and out == out_f.read_text()


def test_channel_teleport_of_a_nan_choi_is_one_line_error(tmp_path, capsys):
    choi, rho = tmp_path / "choi", tmp_path / "rho"
    run(capsys, "channel", "example", "--t", "0.05", "--u", "-0.02", "--v", "0.01",
        "--w", "0.03", "--out", str(choi))
    with open(choi) as f:
        J = mio.read_choi(f)
    J.matrix[3, 5] = np.nan
    with open(choi, "w") as f:
        mio.write_choi(f, J)
    with open(rho, "w") as f:
        mio.write_matrix(f, random_density(2, rng_from_seed(1)))
    code, out, err = run(capsys, "channel", "teleport", "--choi", str(choi), "--rho", str(rho))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "not equivariant (residual nan)" in err


def nan_choi(tmp_path, capsys):
    """(choi, rho) files: the example channel with J[3, 5] = NaN, and a state."""
    choi, rho = tmp_path / "choi", tmp_path / "rho"
    run(capsys, "channel", "example", "--t", "0.05", "--u", "-0.02", "--v", "0.01",
        "--w", "0.03", "--out", str(choi))
    with open(choi) as f:
        J = mio.read_choi(f)
    J.matrix[3, 5] = np.nan
    with open(choi, "w") as f:
        mio.write_choi(f, J)
    with open(rho, "w") as f:
        mio.write_matrix(f, random_density(2, rng_from_seed(1)))
    return choi, rho


@pytest.mark.parametrize("command,flags", [("apply", ["--rho"]), ("apply", ["--rho", "--out"]),
                                           ("twirl", ["--out"])])
def test_channel_of_a_nan_choi_is_one_line_error(tmp_path, capsys, command, flags):
    choi, rho = nan_choi(tmp_path, capsys)
    out_f = tmp_path / "out"
    files = {"--rho": str(rho), "--out": str(out_f)}
    code, out, err = run(capsys, "channel", command, "--choi", str(choi),
                         *[x for flag in flags for x in (flag, files[flag])])
    assert code == 1 and out == "" and not out_f.exists()
    assert len(err.splitlines()) == 1 and "non-finite entry" in err


def test_channel_twirl(tmp_path, capsys):
    choi = tmp_path / "choi"
    out_f = tmp_path / "tw"
    run(capsys, "channel", "example", "--t", "0.02", "--u", "0.0", "--v", "0.01",
        "--w", "0.0", "--out", str(choi))
    code, _, _ = run(capsys, "channel", "twirl", "--choi", str(choi),
                     "--out", str(out_f))
    assert code == 0
    with open(choi) as f:
        before = mio.read_choi(f)
    with open(out_f) as f:
        after = mio.read_choi(f)
    # the family is already equivariant: twirl is the identity on it
    assert np.abs(before.matrix - after.matrix).max() < 1e-12


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, "channel", "apply", "--choi", "/nonexistent",
                       "--rho", "/nonexistent")
    assert code == 1
    assert "error" in err


def test_wigner_dump(capsys):
    code, out, _ = run(capsys, "wigner", "[2,0]", "[1]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rows (targets j): [1, 2]"
    M = np.array([[float(x) for x in line.split()] for line in lines[2:]])
    assert np.abs(M @ M.T - np.eye(2)).max() < 1e-12


def test_cg_dump(capsys):
    code, out, _ = run(capsys, "cg", "dual", "[1,0]")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["kind"] == "dual"
    assert [b["target"] for b in header["blocks"]] == ["[0,0]", "[1,-1]"]
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


@pytest.mark.parametrize("kind,irrep,sha256", [
    ("dual", "[2,1,0,-1]", "7f0be324f5e1b2c44a447a505f05da205940f183d4424707687eeb76172a6110"),
    ("defining", "[1,0,0]", "b594156640a2f6e9eab6ab1c1e3eae6101ee4fa17e528c29fc47499a84ec406a"),
])
def test_cg_dump_bytes_are_pinned(capsys, kind, irrep, sha256):
    # digests of `mskit cg` output from when couplings were dense arrays; the
    # sparse couplings must print the same bytes
    code, out, _ = run(capsys, "cg", kind, irrep)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_ptpqp_command(capsys):
    # identity diagram evolution is a global phase: probability stays 1
    code, out, _ = run(capsys, "ptpqp", "1", "1", "2",
                       "--term", "0.7:t1-b1,t2-b2", "--time", "1.3",
                       "--from", "[1,-1]:0:0", "--to", "[1,-1]:0:0")
    assert code == 0
    assert abs(float(out) - 1.0) < 1e-10
    code, out, _ = run(capsys, "ptpqp", "1", "1", "2",
                       "--term", "0.7:t1-b1,t2-b2", "--time", "1.3",
                       "--from", "[1,-1]:0:0", "--to", "[1,-1]:1:0")
    assert code == 0
    assert abs(float(out)) < 1e-10


@pytest.mark.parametrize("edit", ["q beyond dim", "no gamma", "empty"])
def test_verify_malformed_file_is_one_line_error(tmp_path, capsys, edit):
    f = tmp_path / "w"
    run(capsys, "schur", "1", "1", "2", "--out", str(f))
    lines = f.read_text().splitlines()
    if edit == "q beyond dim":
        lines[2] = "gamma=[0,0] q=5 p=0"
    elif edit == "no gamma":
        lines[2] = "q=0 p=0"
    else:
        lines = []
    f.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "verify", "--file", str(f), "--trials", "1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("target", ["choi", "rho"])
@pytest.mark.parametrize("edit", ["empty", "bad header", "entry without comma"])
def test_channel_malformed_file_is_one_line_error(tmp_path, capsys, target, edit):
    files = {"choi": tmp_path / "choi", "rho": tmp_path / "rho"}
    run(capsys, "channel", "example", "--t", "0.05", "--u", "0.01", "--v", "0.0",
        "--w", "0.0", "--out", str(files["choi"]))
    with open(files["rho"], "w") as f:
        mio.write_matrix(f, random_density(2, rng_from_seed(1)))
    lines = files[target].read_text().splitlines()
    if edit == "empty":
        lines = []
    elif edit == "bad header":
        lines[0] = lines[0].replace("1", "one")
    else:
        lines[1] = lines[1].replace(",", "", 1)
    files[target].write_text("".join(line + "\n" for line in lines))
    for cmd in ("apply", "teleport"):
        code, out, err = run(capsys, "channel", cmd, "--choi", str(files["choi"]),
                             "--rho", str(files["rho"]))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_channel_cap_applies_to_files(tmp_path, capsys):
    choi, rho = tmp_path / "choi", tmp_path / "rho"
    run(capsys, "channel", "example", "--t", "0.05", "--u", "0.01", "--v", "0.0",
        "--w", "0.0", "--out", str(choi))
    with open(rho, "w") as f:
        mio.write_matrix(f, random_density(2, rng_from_seed(1)))
    code, _, err = run(capsys, "--cap", "4", "channel", "apply", "--choi", str(choi),
                       "--rho", str(rho))
    assert code == 1 and "exceeds cap" in err
    code, _, _ = run(capsys, "--cap", "8", "channel", "apply", "--choi", str(choi),
                     "--rho", str(rho))
    assert code == 0


@pytest.mark.parametrize("label", ["x", "[1,-1]:a:0"])
def test_ptpqp_bad_label_is_one_line_error(capsys, label):
    code, out, err = run(capsys, "ptpqp", "1", "1", "2",
                         "--term", "0.7:t1-b1,t2-b2", "--time", "1.3",
                         "--from", label, "--to", "[1,-1]:0:0")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert repr(label) in err and "[gamma]:q:p" in err


@pytest.mark.parametrize("term", ["x", "a:t1-b1,t2-b2", "0.7:t1-b9"])
def test_ptpqp_bad_term_is_one_line_error(capsys, term):
    code, out, err = run(capsys, "ptpqp", "1", "1", "2", "--term", term, "--time", "1.3",
                         "--from", "[1,-1]:0:0", "--to", "[1,-1]:0:0")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert repr(term) in err and "coeff:pairs" in err


def test_verify_file_keeps_one_sector_split(tmp_path, capsys, splits_made):
    # every check of the transform read from the file shares its split
    f = tmp_path / "w"
    run(capsys, "schur", "2", "2", "2", "--out", str(f))
    splits_made.clear()
    code, out, _ = run(capsys, "verify", "--file", str(f), "--trials", "3")
    assert code == 0, out
    assert "diagram side" in out
    assert len(splits_made) == 1


def test_verify_file_with_complex_phases(tmp_path, capsys):
    # each (gamma, p) block times its own phase is still a Schur transform;
    # a phase that varies with q inside one block is not
    f = tmp_path / "w"
    run(capsys, "schur", "2", "1", "2", "--out", str(f))
    W = mio.read_schur(io.StringIO(f.read_text()))
    rng = rng_from_seed(35)
    theta = {}
    phases = np.array([np.exp(1j * theta.setdefault((g, p), rng.uniform(-np.pi, np.pi)))
                       for g, _, p in row_labels(W.n, W.m, W.d)])
    W = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, phases[:, None] * W.matrix)
    f.write_text(mio.dumps(mio.write_schur, W))
    code, out, _ = run(capsys, "verify", "--file", str(f), "--trials", "5")
    assert code == 0, out
    assert "FAIL" not in out
    bad = W.matrix.copy()
    bad[W.row_index((1, 0), 1, 0)] *= np.exp(0.7j)
    bad = SchurTransform.from_matrix(W.n, W.m, W.d, W.factor_order, bad)
    f.write_text(mio.dumps(mio.write_schur, bad))
    code, out, _ = run(capsys, "verify", "--file", str(f), "--trials", "5")
    assert code == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["unitarity"].endswith(" ok")
    assert lines["multiplicity structure"].endswith(" FAIL")


@pytest.mark.parametrize("term,time", [("nan:t1-b1,t2-b2", "1.3"), ("inf:t1-b1,t2-b2", "1.3"),
                                       ("0.7:t1-b1,t2-b2", "nan"), ("0.7:t1-b1,t2-b2", "inf")])
def test_ptpqp_non_finite_input_is_one_line_error(capsys, term, time):
    code, out, err = run(capsys, "ptpqp", "1", "1", "2", "--term", term, "--time", time,
                         "--from", "[1,-1]:0:0", "--to", "[1,-1]:0:0")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"], ["--tol", "nan"],
                                   ["--tol", "inf"], ["--tol", "0"], ["--tol=-1e-10"]])
def test_verify_rejects_bad_trials_and_tol(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "2", "1", "2", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("schur", [[], ["--schur"]])
def test_channel_example_non_finite_is_one_line_error(tmp_path, capsys, schur):
    out_file = tmp_path / "choi"
    for argv in (schur, schur + ["--out", str(out_file)]):
        code, out, err = run(capsys, "channel", "example", "--t", "nan", "--u", "0",
                             "--v", "0", "--w", "0", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "finite" in err
    assert not out_file.exists()
