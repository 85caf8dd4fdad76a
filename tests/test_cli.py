import numpy as np
import pytest

from vxsim.cli import main
from vxsim.errors import AdiabaticityWarning

OUTCOUPLE_CFG = """
grid.nx = 32
grid.ny = 32
run.mode = outcouple
"""

COMPARE_CFG = """
grid.nx = 32
grid.ny = 32
run.mode = compare
run.dt = 0.004
run.n_steps = 20
run.ramp_time = 0.04
run.snapshot_every = 0
physics.tf_radius = 5.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def manifest_lines(out_dir, suffix):
    text = (out_dir / "manifest.txt").read_text().splitlines()
    return sorted(ln for ln in text if suffix in ln)


def test_outcouple_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OUTCOUPLE_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mode = outcouple" in stdout
    assert "delay_1 = " in stdout
    assert "output_winding2 = 1" in stdout
    assert "output_winding3 = -1" in stdout
    for name in ("delay_table_1.csv", "delay_table_2.csv",
                 "output_phi2_peak.vxf", "output_phi3_peak.vxf",
                 "report.txt", "manifest.txt"):
        assert (out / name).exists()
    # the report echoes what was printed
    assert "mode = outcouple" in (out / "report.txt").read_text()


def test_compare_run_smoke(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    out = tmp_path / "out"
    # 10-step ramp is nowhere near adiabatic; the run still completes
    with pytest.warns(AdiabaticityWarning):
        code = main(["--config", cfg, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mode = compare" in stdout
    assert "full.winding2 = 1" in stdout
    assert "effective.winding3 = -1" in stdout
    assert (out / "phi1_final.vxf").exists()
    assert (out / "eff_phi2_final.vxf").exists()


def test_mode_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--mode", "outcouple", "--out", str(out)]) == 0
    assert "mode = outcouple" in capsys.readouterr().out


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OUTCOUPLE_CFG)
    out = tmp_path / "run.cfg" / "sub"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error = output: {out}: " in captured.out
    assert "Traceback" not in captured.err
    assert "sim: exit 2" in captured.err


def test_missing_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + "grid.nx = 32\n".encode("utf-16-le"))
    assert main(["--config", str(path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_bad_key_reports_path_and_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.nx = 32\ngrid.nz = 7\n")
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "run.cfg" in err
    assert "line 2" in err
    assert "unknown key" in err


def test_dt_advisory_refusal_and_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OUTCOUPLE_CFG + "run.dt = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "override-dt" in captured.out + captured.err
    # out-coupling never integrates in time, so overriding is harmless here
    assert main(["--config", cfg, "--out", str(out), "--override-dt"]) == 0


def test_outcouple_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OUTCOUPLE_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(a)]) == 0
    assert main(["--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    # all data artifacts must be digest-identical (report.txt carries the
    # wall-clock runtime, so it is the one file allowed to differ)
    assert manifest_lines(a, ".vxf") == manifest_lines(b, ".vxf")
    assert manifest_lines(a, ".csv") == manifest_lines(b, ".csv")
    assert manifest_lines(a, "params_sha256") == manifest_lines(b, "params_sha256")
