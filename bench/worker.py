"""One benchmark sample: a fresh single-threaded process runs one ``run()``.

Reads a JSON job from stdin, prints one JSON result line to stdout:

  setup_s       import vxsim + parse_config of the workload text
  wall_s        the run() call (traced when the job asks for it)
  peak_rss_mb   ru_maxrss of this process after the run
  failures      output checks that failed (empty when the run is correct)
  values        the accuracy figures the run reported
  layers        span summary (traced jobs only)

Everything after the run() call (checks, read-back, span dump) is outside
wall_s.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(job):
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    import vxsim

    cfg = vxsim.parse_config(job["config_text"])
    t_parse_end = time.perf_counter()
    return vxsim, cfg, t_parse_end


def _winding_checks(cfg, values, fails):
    l = cfg.p1.l
    for prefix in ("full", "effective"):
        for alpha, sign in ((2, 1), (3, -1)):
            key = f"{prefix}.winding{alpha}"
            if key not in values:
                continue
            if values[key] != sign * l:
                fails.append(f"{key} = {values[key]}, expected {sign * l}")
            circ = values[f"{prefix}.circulation{alpha}"]
            if abs(circ - sign * 2.0 * math.pi * l) > 1e-3:
                fails.append(f"{prefix}.circulation{alpha} = {circ!r}, expected {sign}*2*pi*{l}")


def _loading_checks(cfg, values, fails):
    if "full.dark_state_error" not in values:
        return
    omega_c = min(cfg.c1.peak, cfg.c2.peak)
    whole_ramp = values["full.t_final"] >= cfg.run.ramp_time - 1e-9
    if not (whole_ramp and cfg.run.ramp_time >= 50.0 / omega_c):
        return
    if not values["full.dark_state_error"] < 1e-2:
        fails.append(f"full.dark_state_error = {values['full.dark_state_error']!r} >= 1e-2")
    excited = float(values["full.p4"] + values["full.p5"])
    if not excited < 1e-4:
        fails.append(f"full.p4 + full.p5 = {excited!r} >= 1e-4")


def _manifest_checks(out_dir, fails) -> int:
    """Re-hash every file the manifest lists; returns the bytes of .vxf dumps."""
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    vxf_bytes = 0
    for line in lines[1:]:
        name, size, digest = line.split(" ")
        data = (out_dir / name).read_bytes()
        if f"bytes={len(data)}" != size or f"sha256={hashlib.sha256(data).hexdigest()}" != digest:
            fails.append(f"manifest entry for {name} does not match the file")
        if name.endswith(".vxf"):
            vxf_bytes += len(data)
    return vxf_bytes


def _readback_checks(vxsim, cfg, values, out_dir, read_field, fails):
    loop = vxsim.LoopSpec(center=(0.0, 0.0), radius=0.5 * cfg.physics.tf_radius, n_samples=512)
    for prefix, stem in (("full", "phi"), ("effective", "eff_phi")):
        for alpha in (2, 3):
            key = f"{prefix}.winding{alpha}"
            if key not in values:
                continue
            fld = read_field(out_dir / f"{stem}{alpha}_final.vxf")
            got = vxsim.winding(fld, loop).value
            if got != values[key]:
                fails.append(f"{stem}{alpha}_final.vxf winds {got}, report says {values[key]}")


def check(vxsim, cfg, report, out_dir, read_field):
    """Output checks of one run; returns (failures, bytes of .vxf dumps)."""
    values = report.values
    if report.exit_code != 0:
        return [f"exit code {report.exit_code}: {values.get('error', '')}"], 0
    fails = []
    _winding_checks(cfg, values, fails)
    _loading_checks(cfg, values, fails)
    for alpha in (2, 3):
        key = f"analytic{alpha}.l2_error"
        if key in values and not values[key] < 5e-2:
            fails.append(f"{key} = {values[key]!r} >= 5e-2")
    vxf_bytes = _manifest_checks(out_dir, fails)
    _readback_checks(vxsim, cfg, values, out_dir, read_field, fails)
    return fails, vxf_bytes


ACCURACY_KEYS = (
    "full.dark_state_error", "full.p4", "full.p5",
    "analytic2.l2_error", "analytic3.l2_error",
    "compare2.l2_error", "compare3.l2_error",
    "params_sha256",
)


def main():
    job = json.loads(sys.stdin.read())
    vxsim, cfg, t_setup_end = _setup(job)
    setup_s = t_setup_end - T0
    vxsim.set_workers(int(os.environ["VXSIM_THREADS"]))
    out_dir = Path(job["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)

    run, read_field, tracer = vxsim.runner.run, vxsim.fieldio.read_field, None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
        # config.parse is timed again under the tracer; setup_s above is untraced
        tracer.wrap("config.parse", vxsim.parse_config)(job["config_text"])
        run = tracer.wrap("runner.run", run)
        read_field = tracer.wrap("fieldio.read", read_field)

    t0, c0 = time.perf_counter(), time.process_time()
    report = run(cfg, out_dir=out_dir)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails, vxf_bytes = check(vxsim, cfg, report, out_dir, read_field)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": fails,
        "values": {k: report.values[k] for k in ACCURACY_KEYS if k in report.values},
        "env": {"numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
                "fft_workers": vxsim.get_workers(), "vxsim_file": vxsim.__file__},
    }
    if tracer is not None:
        from spans import summarize

        result["layers"] = summarize(tracer.spans)
        result["layers"]["fieldio.write.bytes"] = vxf_bytes
        tracer.dump(job["spans_path"])
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
