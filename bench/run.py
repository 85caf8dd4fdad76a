"""vxsim benchmark: complete ``run()`` calls on three simulation workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample is one fresh, single-threaded
worker process (``bench/worker.py``) that imports vxsim from ``src/``,
parses the generated config text, runs it and checks the outputs.  Samples
run one at a time for about ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over samples); with ``--trace 1`` samples alternate untraced and
traced, and it reports the per-layer metrics of the median traced one.  Every
metric, the accuracy figures and the failure fraction are also printed by
name above that line.  Spans and a run record (environment, config text,
params digest, every sample) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FFT_SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# The acceptance beam pair: probes 0.8, controls 12, u = 0.02, engineered traps.
PROBE_PEAK = 0.8
CONTROL_PEAK = 12.0
U = 0.02
# Seeded relative jitter on the probe peak and u; every output check holds
# across this range.
JITTER = 0.03

WORKLOADS = {
    # five-field split-step only; the first 1.2 of the 6.0 ramp
    "load128": dict(mode="full", n=128, dt=0.004, l=1, n_steps=300,
                    ramp_time=6.0, snapshot_every=0),
    # reduced two-flavor Lanczos only; l = 2 has the larger core gauge field
    "hold128": dict(mode="effective", n=128, dt=0.004, l=2, n_steps=50,
                    ramp_time=6.0, snapshot_every=0),
    # both branches, whole ramp then hold, dense snapshots; fits in L2
    "compare64_dense": dict(mode="compare", n=64, dt=0.016, l=1, n_steps=500,
                            ramp_time=6.0, snapshot_every=5),
}

PINNED_THREADS = {
    "VXSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# No new sample starts once this much of the run is spent, so a run ends
# well inside three minutes even when one sample is slow.
BUDGET_S = 150.0

DIAGNOSTICS = ("diagnostics.winding", "diagnostics.circulation",
               "diagnostics.compare_states", "diagnostics.analytic_state")


def config_text(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    rng = random.Random(seed)
    peak = PROBE_PEAK * (1.0 + rng.uniform(-JITTER, JITTER))
    u = U * (1.0 + rng.uniform(-JITTER, JITTER))
    lines = [
        f"grid.nx = {w['n']}",
        f"grid.ny = {w['n']}",
        f"beam.p1.peak = {peak!r}",
        f"beam.p2.peak = {peak!r}",
        f"beam.p1.l = {w['l']}",
        f"beam.p2.l = {-w['l']}",
        f"beam.c1.peak = {CONTROL_PEAK!r}",
        f"beam.c2.peak = {CONTROL_PEAK!r}",
        f"physics.u = {u!r}",
        "physics.traps = engineered",
        f"run.mode = {w['mode']}",
        f"run.dt = {w['dt']!r}",
        f"run.n_steps = {w['n_steps']}",
        f"run.ramp_time = {w['ramp_time']!r}",
        f"run.snapshot_every = {w['snapshot_every']}",
        f"run.seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


def reduced_sim_time(name: str) -> float:
    """Simulated time the two-flavor branch covers."""
    w = WORKLOADS[name]
    if w["mode"] == "effective":
        return w["n_steps"] * w["dt"]
    if w["mode"] == "compare":
        return (w["n_steps"] - round(w["ramp_time"] / w["dt"])) * w["dt"]
    return 0.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_sample(job: dict, env: dict, timeout: float) -> dict:
    """One worker process; a crash, timeout or failed check is a failure."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"trace": job["trace"], "failures": [f"timed out after {timeout:.0f} s"],
                "elapsed": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"trace": job["trace"], "failures": [f"worker exit code {proc.returncode}"],
                "elapsed": time.perf_counter() - t0}
    result = json.loads(lines[-1])
    result["trace"] = job["trace"]
    result["elapsed"] = time.perf_counter() - t0
    return result


def layer_metrics(name: str, layers: dict) -> dict:
    calls, total, self_s = layers["calls"], layers["total"], layers["self"]
    w = WORKLOADS[name]

    def n(span):
        return calls.get(span, 0)

    def t(span):
        return total.get(span, 0.0)

    step_calls = n("evolution.step")
    reduced_t = reduced_sim_time(name)
    krylov_steps = 2 * round(reduced_t / w["dt"])
    m = {
        "evolution.step.calls": step_calls,
        "evolution.step.ms": 1e3 * t("evolution.step") / step_calls if step_calls else 0.0,
        "evolution.fft.calls": n("evolution.fft"),
        "evolution.fft.s": t("evolution.fft"),
        "evolution.local.s": self_s.get("evolution.step", 0.0),
        # computed, not measured: in and out of each (5, nx, ny) complex128 transform
        "evolution.fft.bytes": n("evolution.fft") * 2 * 16 * 5 * w["n"] * w["n"],
        "two_flavor.evolve.s": t("two_flavor.evolve"),
        "two_flavor.fft.calls": n("two_flavor.fft"),
        "two_flavor.fft.s": t("two_flavor.fft"),
        "two_flavor.tridiag.calls": n("two_flavor.tridiag"),
        "two_flavor.tridiag.s": t("two_flavor.tridiag"),
        "two_flavor.self.s": self_s.get("two_flavor.evolve", 0.0),
        "two_flavor.fft.calls_per_time": n("two_flavor.fft") / reduced_t if reduced_t else 0.0,
        # one eigh_tridiagonal per Lanczos vector, so this is matvecs per step
        "two_flavor.matvecs_per_kstep":
            n("two_flavor.tridiag") / krylov_steps if krylov_steps else 0.0,
        "fft.calls": sum(n(s) for s in FFT_SPANS),
        "fft.s": sum(t(s) for s in FFT_SPANS),
        "gauge.gauge_potentials.calls": n("gauge.gauge_potentials"),
        "gauge.gauge_potentials.s": t("gauge.gauge_potentials"),
        "gauge.solve_traps.s": t("gauge.solve_traps"),
        "config.parse.s": t("config.parse"),
        "diagnostics.calls": sum(n(s) for s in DIAGNOSTICS),
        "diagnostics.s": sum(t(s) for s in DIAGNOSTICS),
        "fieldio.write.calls": n("fieldio.write"),
        "fieldio.write.bytes": layers["fieldio.write.bytes"],
        "fieldio.write.s": t("fieldio.write"),
        "fieldio.read.s": t("fieldio.read"),
        "runner.run.s": t("runner.run"),
    }
    # module self times; those of fft, diagnostics and fieldio equal fft.s,
    # diagnostics.s and fieldio.write.s, whose spans have no children
    module_self = layers["module_self"]
    m["runner.self.s"] = module_self["runner"]
    for module in ("evolution", "two_flavor", "gauge"):
        m[f"self.{module}.s"] = module_self[module]
    m["trace.unaccounted_s"] = t("runner.run") - sum(module_self.values())
    return m


def median_of(samples: list, key) -> float:
    return statistics.median(key(s) for s in samples)


def summarize(name: str, samples: list, trace: bool) -> tuple[dict, list[str]]:
    """End-to-end metrics as medians over the untraced samples, or per-layer
    metrics of the median traced sample; plus notes on inconsistent counts."""
    timed = [s for s in samples if "wall_s" in s]
    plain = [s for s in timed if not s["trace"]]
    notes = []
    if not trace:
        metrics = {k: median_of(plain, lambda s: s[k])
                   for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")}
    else:
        traced = [s for s in timed if s["trace"]]
        per_sample = [layer_metrics(name, s["layers"]) for s in traced]
        counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".bytes"))}
                  for m in per_sample]
        if any(c != counts[0] for c in counts):
            notes.append("span counts differ between traced samples")
        # all times from one traced sample, the median by runner.run.s, so
        # that its module self times add up to its runner.run.s
        metrics = sorted(per_sample, key=lambda m: m["runner.run.s"])[(len(per_sample) - 1) // 2]
        metrics["trace.overhead_s"] = (metrics["runner.run.s"]
                                       - median_of(plain, lambda s: s["wall_s"]))
    return metrics, notes


def accuracy_lines(name: str, samples: list) -> list[str]:
    """The accuracy figures of the workload: deterministic for one seed."""
    values = next((s["values"] for s in samples if "values" in s), {})
    out = []
    if "full.dark_state_error" in values:
        out.append(f"dark_state_error = {values['full.dark_state_error']!r}")
    if "analytic2.l2_error" in values:
        out.append("analytic_l2 = "
                   f"{max(values['analytic2.l2_error'], values['analytic3.l2_error'])!r}")
    if "compare2.l2_error" in values:
        out.append("flavor_l2 = "
                   f"{max(values['compare2.l2_error'], values['compare3.l2_error'])!r}")
    return [f"{name} {line}" for line in out]


def environment(samples: list) -> dict:
    worker_env = next((s["env"] for s in samples if "env" in s), {})
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker_env.get("numpy"),
        "scipy": worker_env.get("scipy"),
        "fft_workers": worker_env.get("fft_workers"),
        "threads_pinned": PINNED_THREADS,
        "processes": "one worker at a time",
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "vxsim" / "__init__.py").is_file():
        print(f"bench: no vxsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    text = config_text(args.workload, args.seed)
    trace = bool(args.trace)

    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        # traced runs alternate with untraced ones so both see the same host
        traced = trace and len(samples) % 2 == 1
        run_id = f"{args.workload}-seed{args.seed}-{len(samples)}"
        job = {
            "root": str(ROOT),
            "config_text": text,
            "out_dir": str(OUT / f"run-{args.workload}"),
            "trace": traced,
            "run_id": run_id,
            "spans_path": str(OUT / f"spans-{args.workload}.json"),
        }
        elapsed = time.perf_counter() - start
        samples.append(run_sample(job, env, max(BUDGET_S - elapsed, 30.0)))
        elapsed = time.perf_counter() - start
        longest = max(s["elapsed"] for s in samples)
        typical = statistics.median(s["elapsed"] for s in samples)
        # start another sample only if it should end by about --seconds, so
        # that every run measures close to --seconds and never much more
        enough = (elapsed + 0.5 * typical >= args.seconds
                  and (not trace or len(samples) >= 2))
        if enough or elapsed + longest > BUDGET_S:
            break

    failed = sum(1 for s in samples if s["failures"])
    if not any("wall_s" in s and not s["trace"] for s in samples) or (
            trace and not any("layers" in s for s in samples)):
        for s in samples:
            print(f"bench: {s['failures']}", file=sys.stderr)
        print("bench: no sample produced measurements", file=sys.stderr)
        return 1
    metrics, notes = summarize(args.workload, samples, trace)
    # BENCHMARK.json names the metrics of the final line and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"]: {"value": metrics.pop(m["name"]), "unit": m["unit"]}
                for m in spec["per_layer" if trace else "end_to_end"]}

    for s in samples:
        for f in s["failures"]:
            print(f"FAIL {args.workload}: {f}")
    for note in notes:
        print(f"FAIL {args.workload}: {note}")
    print(f"{args.workload} fail_frac = {failed / len(samples)!r} ({failed} of {len(samples)})")
    for line in accuracy_lines(args.workload, samples):
        print(line)
    for k, v in reported.items():
        print(f"{args.workload} {k} = {v['value']!r} {v['unit']}")
    if "cpu_s" in metrics:
        # process CPU time of run(); equal to wall_s when the run never waits
        print(f"{args.workload} cpu_s = {metrics['cpu_s']!r} s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(samples),
        "config_text": text,
        "params_sha256": next((s["values"]["params_sha256"] for s in samples
                               if "values" in s), None),
        "samples": samples,
        "metrics": reported,
    }
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": len(samples),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
