"""Benchmark of the dhmc package: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload split_mixed --seed 1 --seconds 30 --trace 0

It imports ``dhmc`` from ``src/`` of the checkout and fails with exit code 2
when that is missing.  The workloads are described in ``workloads.py``.  A
run repeats rounds of the workload until ``--seconds`` have passed, then
replays round 0 with tracing on to check the program from the inside, and
prints one metric per line followed by a JSON summary as its last line.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Round
times are in nominal seconds, calibrated against a reference computation
(see ``REF_NOMINAL_S``):

- ``setup_s``: median over fresh interpreters of importing ``dhmc`` and
  building the workload's models;
- ``wall_s``: median wall time of one round;
- ``ess_per_s``: min-ESS summed over every chain of every round, divided by
  the summed round times;
- ``ess_per_keval``: the same summed min-ESS per 1000 model calls, as the
  program counts them.  Both pool the rounds because each chain's batch-means
  estimate is noisy;
- ``peak_rss_mb``: peak resident memory of the benchmark process;
- ``ok_frac``: share of operations that succeeded.  Operations are
  transitions, CLI verbs and output checks; divergent sampling-phase
  transitions, the transitions of a chain that raised, CLI verbs with a
  nonzero exit and failed checks count as failed.

``--trace 1`` runs each round twice, untraced and traced with the same seeds,
and reports the per-layer metrics listed in ``LAYER_METRICS``.  Counts come
from round 0 and repeat exactly for a given seed; times are medians over the
traced rounds.  Traced self times still hold the counters' own cost per
model call, which is largest on ``sweep_ar1``; ``trace.overhead_frac``
bounds it.

Every run also checks, and counts as failed operations when they do not hold:
the workload's outputs; sampled ``potential_diff`` calls against two
``potential`` calls; per-kind model-call counts against the program's own
``potential_evals + warmup_evals``; and that the traced replay of a round
reproduces its draws and artifacts byte for byte.  Fingerprints, exact
counts, spans and the environment go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import MODEL_KINDS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# Host speed on a shared machine can change by 1.5x within a minute, for all
# kinds of work alike.  Every round therefore sits between two timings of a
# fixed reference computation, and round times are reported in nominal
# seconds: measured seconds times REF_NOMINAL_S over the reference time.  Raw
# seconds are printed and recorded as well.
REF_NOMINAL_S = 0.03
REF_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ess_per_s": "1/s",
    "ess_per_keval": "1/keval", "peak_rss_mb": "MB", "ok_frac": "frac",
}
LAYER_METRICS = {
    "models.potential.calls": "count",
    "models.potential.us_per_call": "us",
    "models.potential_diff.calls": "count",
    "models.potential_diff.us_per_call": "us",
    "models.grad_smooth.calls": "count",
    "models.grad_smooth.us_per_call": "us",
    "models.share": "frac",
    "models.potential.per_step": "count",
    "models.grad_smooth.per_step": "count",
    "integrators.coord_updates": "count",
    "integrators.move_frac": "frac",
    "integrators.self_us_per_update": "us",
    "integrators.free_us_per_update": "us",
    "samplers.transitions": "count",
    "samplers.accept_rate": "frac",
    "samplers.divergences": "count",
    "samplers.self_us_per_transition": "us",
    "samplers.free_us_per_transition": "us",
    "diagnostics.ess_s": "s",
    "diagnostics.ess_floor_ratio": "ratio",
    "cli.run_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_us_per_value": "us",
    "cli.load_s": "s",
    "cli.diagnose_s": "s",
    "cli.compare_s": "s",
    "trace.overhead_frac": "frac",
}
# Exact for a given seed, so taken from round 0 rather than as a median.
COUNTS = ("models.potential.calls", "models.potential_diff.calls",
          "models.grad_smooth.calls", "integrators.coord_updates",
          "samplers.transitions", "samplers.divergences", "cli.bytes_written")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("split_mixed", "sweep_ar1", "cli_hinge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def reference_s() -> float:
    """Median time of a fixed interpreter-and-numpy computation."""
    import numpy as np
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        x = np.zeros(100)
        acc = 0.0
        for i in range(60000):
            j = i % 100
            acc += x[j] * 0.5 + 1.0
            x[j] = acc * 1e-9
            if j == 0:
                x = x + np.sqrt(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated(fn):
    """Run ``fn`` between reference timings; returns (result, scale).

    ``scale`` converts the host's current seconds into nominal seconds.
    """
    before = reference_s()
    out = fn()
    return out, REF_NOMINAL_S / (0.5 * (before + reference_s()))


def measure_setup(specs, with_cli: bool):
    """Wall times of fresh interpreters importing dhmc and building models.

    Left uncalibrated: interpreter start-up does not follow the reference.
    """
    lines = ["import dhmc", "from dhmc.models import build_model"]
    if with_cli:
        lines.append("import dhmc.cli")
    for spec in dict.fromkeys((s.model, repr(s.params), s.synth_seed)
                              for s in specs):
        lines.append(f"build_model({spec[0]!r}, {spec[1]}, None, {spec[2]})")
    code = "\n".join(lines)
    env = dict(os.environ, DHMC_MAX_WORKERS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu or "unknown",
            "DHMC_MAX_WORKERS": os.environ["DHMC_MAX_WORKERS"]}


def weighted_mean(pairs) -> float:
    pairs = [(v, w) for v, w in pairs if v == v]
    total = sum(w for _, w in pairs)
    return sum(v * w for v, w in pairs) / total if total else 0.0


def layer_metrics(res, tracer, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced round."""
    m = {}
    for kind in MODEL_KINDS:
        n = tracer.calls(kind)
        m[f"models.{kind}.calls"] = n
        m[f"models.{kind}.us_per_call"] = (1e6 * tracer.seconds(kind) / n
                                           if n else 0.0)
    m["models.share"] = tracer.model_s() / (res.wall_s - tracer.check_s)
    updates = tracer.calls("potential_diff")
    chain_self = tracer.self_s("run_chain")
    m["integrators.coord_updates"] = updates
    m["integrators.move_frac"] = weighted_mean(
        (c.move_frac, c.n_samples) for c in res.chains)
    m["integrators.self_us_per_update"] = (1e6 * chain_self / updates
                                           if updates else 0.0)
    m["samplers.transitions"] = res.transitions
    m["samplers.accept_rate"] = weighted_mean(
        (c.accept_rate, c.n_samples) for c in res.chains)
    m["samplers.divergences"] = res.divergences
    m["samplers.self_us_per_transition"] = 1e6 * chain_self / res.transitions
    m["diagnostics.ess_s"] = tracer.total_s("min_ess_report")
    m["diagnostics.ess_floor_ratio"] = min(
        (c.min_ess / c.batches for c in res.chains), default=0.0)
    write_s = tracer.self_s("cli.run")
    m["cli.run_s"] = tracer.total_s("cli.run")
    m["cli.write_s"] = write_s
    m["cli.bytes_written"] = res.cli_bytes
    m["cli.write_us_per_value"] = (1e6 * write_s / res.cli_values
                                   if res.cli_values else 0.0)
    m["cli.load_s"] = tracer.self_s("cli.diagnose") + tracer.self_s("cli.compare")
    m["cli.diagnose_s"] = tracer.total_s("cli.diagnose")
    m["cli.compare_s"] = tracer.total_s("cli.compare")
    m["trace.overhead_frac"] = res.wall_s / untraced_wall - 1.0
    return m


def check_replay(ledger, plain, traced, round_no: int):
    for key, digest in plain.fingerprints.items():
        ledger.check(traced.fingerprints.get(key) == digest,
                     f"round {round_no}: traced replay changed {key}")


def check_tracer(ledger, res, tracer, what: str):
    """Fast-path agreement and, for a workload round, counter reconciliation."""
    ledger.add(tracer.checked, len(tracer.mismatches),
               f"{what}: potential_diff disagrees with potential: "
               + "; ".join(tracer.mismatches[:3]))
    if res is not None:
        seen = sum(tracer.calls(kind) for kind in MODEL_KINDS)
        ledger.check(seen == res.evals,
                     f"{what}: {seen} model calls seen, the program counted "
                     f"{res.evals}")


def run(args) -> dict:
    os.environ["DHMC_MAX_WORKERS"] = "1"
    import probes
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, os.path.join(OUT, f"cli-{os.getpid()}"))
    setup = measure_setup(wl.specs, args.workload == "cli_hinge")
    ledger = workloads.Ledger()
    plain, scales, traced = [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            r = len(plain)
            res, scale = calibrated(lambda: wl.run_round(args.seed, r))
            plain.append(res)
            scales.append(scale)
            if args.trace:
                tracer = Tracer()
                traced.append((wl.run_round(args.seed, r, tracer), tracer))
            if time.perf_counter() >= deadline:
                break
        if not args.trace:
            tracer = Tracer()
            traced.append((wl.run_round(args.seed, 0, tracer), tracer))
        for r, (res, tracer) in enumerate(traced):
            check_replay(ledger, plain[r], res, r)
            check_tracer(ledger, res, tracer, f"traced round {r}")
        layers = {}
        if args.trace:
            rounds = [layer_metrics(res, tracer, plain[r].wall_s)
                      for r, (res, tracer) in enumerate(traced)]
            layers = {name: rounds[0][name] if name in COUNTS
                      else statistics.median(m[name] for m in rounds)
                      for name in rounds[0]}
            per_step, probe_tracers = probes.per_step(wl, plain[0], args.seed)
            layers.update(per_step)
            for tracer in probe_tracers:
                check_tracer(ledger, None, tracer, "per-step probe")
            layers["integrators.free_us_per_update"] = probes.free_us_per_update()
            layers["samplers.free_us_per_transition"] = \
                probes.free_us_per_transition()
    finally:
        wl.close()

    for res in plain + [res for res, _ in traced]:
        ledger.merge(res)
    walls = [res.wall_s * scale for res, scale in zip(plain, scales)]
    ends = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ess_per_s": sum(res.ess for res in plain) / sum(walls),
        "ess_per_keval": (1000.0 * sum(res.ess for res in plain)
                          / max(sum(res.evals for res in plain), 1)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    first, first_tracer = traced[0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "rounds": len(plain),
        "setup_s": setup,
        "round_wall_raw_s": [res.wall_s for res in plain],
        "round_scale": scales,
        "raw_medians": {
            "wall_s": statistics.median(res.wall_s for res in plain),
            "ess_per_s": (sum(res.ess for res in plain)
                          / sum(res.wall_s for res in plain))},
        "round_ess": [res.ess for res in plain],
        "round_evals": [res.evals for res in plain],
        "fingerprints": plain[0].fingerprints,
        "calls_round0": {k: c[0] for k, c in first_tracer.counters.items()},
        "program_evals_round0": first.evals,
        "ess_floor_ratio_round0": {c.label: c.min_ess / c.batches
                                   for c in first.chains},
        "spans_round0": [(s.name, s.start - first_tracer.spans[0].start,
                          s.end - first_tracer.spans[0].start, s.parent)
                         for s in first_tracer.spans],
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures,
        "end_to_end": ends, "per_layer": layers,
    }
    path = os.path.join(OUT, f"record-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def report(record: dict, trace: int):
    env = record["environment"]
    print(f"# {record['workload']} seed {record['seed']}: {record['rounds']} "
          f"rounds in {record['seconds']} s, trace {trace}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, digest in sorted(record["fingerprints"].items()):
        print(f"# fingerprint round 0 {key} sha256 {digest}")
    print("# model calls round 0 " + " ".join(
        f"{k}={v}" for k, v in record["calls_round0"].items())
        + f" (program counted {record['program_evals_round0']})")
    for why in record["failures"]:
        print(f"# FAILED {why}", file=sys.stderr)
    print("# raw seconds (before calibration) " + " ".join(
        f"{k}={v!r}" for k, v in record["raw_medians"].items()))
    failed_frac = record["failed"] / record["attempted"]
    print(f"# failed_frac {failed_frac!r} ({record['failed']} of "
          f"{record['attempted']} operations)")
    units = LAYER_METRICS if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dhmc", "__init__.py")):
        print(f"error: no dhmc package under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    report(run(args), args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
