"""The benchmark workloads: one round of each, and its output checks.

Every workload is a closed loop with a single caller: its chains run one
after another in this process, with no worker pool.  A round is one pass over
the workload's chains; the benchmark repeats rounds until its time is up.
Model data are fixed by each chain's ``synth_seed``; the seed of every chain
derives from the workload seed and the round number, so a round replays
exactly when run again, traced or not.

- ``split_mixed``: the paper's mixed smooth/discrete split step on
  ``jolly_seber`` and on ``arch_cp``, which has no ``potential_diff``.
  Model calls are nearly all of its time.
- ``sweep_ar1``: ``ar1`` (dim 100) under ``dhmc_coordwise``, the config of
  acceptance test 06.  Its diff is O(1), so the interpreted coordinate loop
  dominates, and its min-ESS carries real mixing information.
- ``cli_hinge``: ``gen_bayes`` (acceptance test 10's data) through the
  ``dhmc`` CLI in-process: ``run`` of a ``dhmc_coordwise`` chain and of a long
  ``rwm`` baseline, ``diagnose`` of each and ``compare`` of both.  Artifact
  writing and loading are about half of its time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
import yaml

import dhmc.cli as cli
from dhmc import SamplerConfig, min_ess_report, run_chain
from dhmc.models import build_model

from tracing import patched

# Thresholds of the ar1 moment check, in Monte Carlo standard errors.  Each
# coordinate is tested on its own and the coordinate average once; the
# limits keep the chance of a false failure below 1e-4 per round.
Z_COORD = 8.0
Z_POOLED = 6.0
BATCHES = 25


@dataclass(frozen=True)
class ChainSpec:
    model: str
    params: dict
    synth_seed: int
    sampler: dict  # SamplerConfig fields other than the seed

    def build(self):
        return build_model(self.model, dict(self.params), None, self.synth_seed)

    def config(self, seed: int) -> SamplerConfig:
        return SamplerConfig(seed=seed, **self.sampler)

    @property
    def transitions(self) -> int:
        return self.sampler["n_warmup"] + self.sampler["n_samples"]


GEN_BAYES = ("gen_bayes", {"n": 300, "k": 40}, 21)

SPECS = {
    "split_mixed": (
        ChainSpec("jolly_seber", {}, 33,
                  dict(kernel="dhmc", path_len=8, n_warmup=50, n_samples=100)),
        ChainSpec("arch_cp", {}, 0,
                  dict(kernel="dhmc", path_len=10, n_warmup=50, n_samples=100)),
    ),
    "sweep_ar1": (
        ChainSpec("ar1", {"alpha": 0.9, "dim": 100}, 0,
                  dict(kernel="dhmc_coordwise", path_len=40, target_stat=0.7,
                       tune_mass=False, n_warmup=50, n_samples=300)),
    ),
    "cli_hinge": (
        ChainSpec(*GEN_BAYES, dict(kernel="dhmc_coordwise", path_len=11,
                                   n_warmup=50, n_samples=150)),
        ChainSpec(*GEN_BAYES, dict(kernel="rwm", n_warmup=500,
                                   n_samples=10000)),
    ),
}


def chain_seed(seed: int, round_no: int, chain: int) -> int:
    return int(np.random.SeedSequence([seed, round_no, chain]).generate_state(1)[0])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def draws_sha256(store) -> str:
    return sha256_bytes(np.ascontiguousarray(store.draws, dtype=float).tobytes())


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, why: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(why)

    def check(self, ok: bool, why: str):
        self.add(1, 0 if ok else 1, why)

    def merge(self, other: "Ledger"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class ChainResult:
    """What the benchmark keeps of one chain after its checks."""

    label: str
    min_ess: float
    batches: int
    evals: int  # the program's own potential_evals + warmup_evals
    accept_rate: float
    move_frac: float
    n_samples: int
    # (eps_range, mass, last draw): where the per-step probe starts
    start: tuple = None


@dataclass
class Round(Ledger):
    wall_s: float = 0.0
    chains: list = field(default_factory=list)
    transitions: int = 0
    divergences: int = 0
    fingerprints: dict = field(default_factory=dict)
    cli_bytes: int = 0
    cli_values: int = 0

    @property
    def ess(self) -> float:
        return sum(c.min_ess for c in self.chains)

    @property
    def evals(self) -> int:
        return sum(c.evals for c in self.chains)

    def add_chain(self, label: str, spec: ChainSpec, store, ess: float,
                  batches: int):
        # A warmup divergence is the stepsize search reaching past the support
        # edge, which adaptation treats as a rejection; only divergences of
        # the tuned sampling kernel count as failed.
        self.divergences += int(store.divergences + store.warmup_divergences)
        div = int(store.divergences)
        self.add(0, div, f"{label}: {div} divergent sampling transitions")
        self.chains.append(ChainResult(
            label, float(ess), int(batches),
            int(store.potential_evals + store.warmup_evals),
            float(store.acceptance_rate()), float(store.move_fraction()),
            int(store.n_samples),
            (store.eps_range, store.mass, np.array(store.draws[-1]))))
        self.fingerprints[f"{label}.draws"] = draws_sha256(store)


def _batch_se(x: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean along axis 0."""
    n = x.shape[0]
    b = n // BATCHES
    x = x[n - BATCHES * b:]
    means = x.reshape((BATCHES, b) + x.shape[1:]).mean(axis=1)
    return means.std(axis=0, ddof=1) / math.sqrt(BATCHES)


def check_moments(res: Round, label: str, model, store):
    """ar1 has mean 0 and unit variance in every coordinate."""
    x = np.asarray(store.draws, dtype=float)
    for what, seq, want in (("mean", x, 0.0), ("variance", x * x, 1.0)):
        z = np.abs(seq.mean(axis=0) - want) / _batch_se(seq)
        worst = int(np.argmax(z))
        res.check(bool(z.max() <= Z_COORD),
                  f"{label}: {what} of {store.names[worst]} is {z.max():.1f} "
                  f"standard errors from {want}")
        pooled = seq.mean(axis=1)
        z = abs(pooled.mean() - want) / float(_batch_se(pooled))
        res.check(bool(z <= Z_POOLED),
                  f"{label}: coordinate-averaged {what} is {z:.1f} standard "
                  f"errors from {want}")


def check_support(res: Round, label: str, model, store):
    """Every draw has finite potential and decodes inside its embedding."""
    draws = np.asarray(store.draws, dtype=float)
    off = sum(not math.isfinite(model.potential(row)) for row in draws)
    res.check(off == 0, f"{label}: {off} draws off the support")
    for i, emap in sorted(store.embeddings.items()):
        col = draws[:, i]
        inside = bool(np.all((col > emap.knots[0]) & (col <= emap.knots[-1])))
        if inside:
            dec = emap.decode(col)
            inside = bool(emap.lo <= dec.min() and dec.max() <= emap.hi)
        res.check(inside, f"{label}: {store.names[i]} leaves its embedding "
                          f"range [{emap.lo}, {emap.hi}]")


CHECKS = {"split_mixed": check_support, "sweep_ar1": check_moments}


class ApiWorkload:
    """Chains through ``run_chain`` and ``min_ess_report`` directly."""

    def __init__(self, name: str):
        self.specs = SPECS[name]
        self.models = [spec.build() for spec in self.specs]
        self.check = CHECKS[name]

    def run_round(self, seed: int, round_no: int, tracer=None) -> Round:
        res = Round()
        run, report = run_chain, min_ess_report
        undo = []
        if tracer is not None:
            run = tracer.span("run_chain", run_chain)
            report = tracer.span("min_ess_report", min_ess_report)
            undo = [tracer.instrument(m) for m in self.models]
        cfgs = [spec.config(chain_seed(seed, round_no, c))
                for c, spec in enumerate(self.specs)]
        outcomes = []
        try:
            t0 = time.perf_counter()
            for model, cfg in zip(self.models, cfgs):
                try:
                    store = run(model, None, cfg)
                    outcomes.append((store, report(store), None))
                except Exception:
                    outcomes.append((None, None, traceback.format_exc()))
            res.wall_s = time.perf_counter() - t0
        finally:
            for u in undo:
                u()
        for c, (spec, model, (store, rep, error)) in enumerate(
                zip(self.specs, self.models, outcomes)):
            label = f"{c}.{spec.model}"
            res.transitions += spec.transitions
            if error is not None:
                res.add(spec.transitions, spec.transitions, f"{label}: {error}")
                continue
            res.add(spec.transitions, 0)
            res.add_chain(label, spec, store, rep.min_ess, rep.batch_count)
            self.check(res, label, model, store)
        return res

    def close(self):
        pass


class CliWorkload:
    """``dhmc run``, ``diagnose`` and ``compare`` through ``dhmc.cli.main``."""

    name = "cli_hinge"

    def __init__(self, out_root: str):
        self.specs = SPECS[self.name]
        self.out_root = out_root
        os.makedirs(out_root, exist_ok=True)
        self.configs = []
        for spec in self.specs:
            cfg = {"model": {"name": spec.model, "params": dict(spec.params),
                             "synth_seed": spec.synth_seed},
                   "sampler": dict(spec.sampler), "chains": 1, "seed": 0}
            path = os.path.join(out_root, f"{spec.sampler['kernel']}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(cfg, fh)
            self.configs.append(path)

    def run_round(self, seed: int, round_no: int, tracer=None) -> Round:
        res = Round()
        base = os.path.join(self.out_root,
                            f"round{round_no}{'t' if tracer else ''}")
        run_dirs = [os.path.join(base, spec.sampler["kernel"])
                    for spec in self.specs]
        argvs = [["run", "--config", path, "--out", d,
                  "--seed", str(chain_seed(seed, round_no, c))]
                 for c, (path, d) in enumerate(zip(self.configs, run_dirs))]
        argvs += [["diagnose", d] for d in run_dirs]
        argvs += [["compare", *run_dirs, "--out", base]]
        captured = []

        def capture(fn):
            def wrapper(*args, **kwargs):
                store = fn(*args, **kwargs)
                captured.append(store)
                return store
            return wrapper

        def instrumented(fn):
            def wrapper(*args, **kwargs):
                model = fn(*args, **kwargs)
                tracer.instrument(model)
                return model
            return wrapper

        codes = []
        with ExitStack() as stack:
            if tracer is None:
                stack.enter_context(patched(cli, "run_chain", capture))
                verbs = [cli.main] * len(argvs)
            else:
                stack.enter_context(patched(
                    cli, "build_model",
                    lambda f: tracer.span("build_model", instrumented(f))))
                stack.enter_context(patched(
                    cli, "run_chain",
                    lambda f: capture(tracer.span("run_chain", f))))
                stack.enter_context(patched(
                    cli, "min_ess_report",
                    lambda f: tracer.span("min_ess_report", f)))
                verbs = [tracer.span(f"cli.{argv[0]}", cli.main)
                         for argv in argvs]
            sink = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(sink):
                for verb, argv in zip(verbs, argvs):
                    try:
                        codes.append(verb(argv))
                    except Exception:
                        codes.append(traceback.format_exc())
            res.wall_s = time.perf_counter() - t0
        for argv, code in zip(argvs, codes):
            res.add(1, int(code != 0), f"dhmc {argv[0]} exited with {code}")
        stores = {st.kernel: st for st in captured}
        for c, (spec, d) in enumerate(zip(self.specs, run_dirs)):
            label = f"{c}.{spec.sampler['kernel']}"
            res.transitions += spec.transitions
            try:
                self._check_run(res, label, spec, d,
                                stores.get(spec.sampler["kernel"]))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res.add(spec.transitions, spec.transitions,
                        f"{label}: run artifacts unusable: {exc!r}")
        self._check_compare(res, base, run_dirs)
        shutil.rmtree(base, ignore_errors=True)
        return res

    def _check_run(self, res: Round, label, spec, run_dir, store):
        chain_dir = os.path.join(run_dir, "chain_00")
        with open(os.path.join(chain_dir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(run_dir, "ess.json")) as fh:
            ess = json.load(fh)["chains"]
        if store is None:
            raise ValueError("run_chain returned no store")
        res.add(spec.transitions, 0)
        res.check(len(ess) == 1, f"{label}: ess.json has {len(ess)} rows, "
                                 f"expected 1")
        res.add_chain(label, spec, store, ess[0]["min_ess"],
                      ess[0]["batch_count"])
        res.check(report["potential_evals"] + report["warmup_evals"]
                  == store.potential_evals + store.warmup_evals,
                  f"{label}: report.json disagrees with run_chain's counters")
        samples = os.path.join(chain_dir, "samples.csv")
        with open(samples) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        cols = [header.index(name + "_emb" if name + "_emb" in header
                             else name) for name in store.names]
        values = np.array([[float(row[i]) for i in cols] for row in rows[1:]])
        res.check(values.shape == store.draws.shape
                  and np.array_equal(values, store.draws),
                  f"{label}: samples.csv does not round-trip to the draws")
        with open(os.path.join(chain_dir, "trace.csv")) as fh:
            trace_rows = list(csv.reader(fh))
        res.cli_values += (len(rows) - 1) * len(header)
        res.cli_values += (len(trace_rows) - 1) * len(trace_rows[0])
        for name in ("samples.csv", "trace.csv", "report.json"):
            res.fingerprints[f"{label}.{name}"] = sha256_file(
                os.path.join(chain_dir, name))
        for parent, _, files in os.walk(run_dir):
            res.cli_bytes += sum(os.path.getsize(os.path.join(parent, f))
                                 for f in files if f != "ess.json")

    def _check_compare(self, res: Round, base, run_dirs):
        try:
            with open(os.path.join(base, "compare.csv")) as fh:
                runs = sorted(row["run"] for row in csv.DictReader(fh))
        except (OSError, KeyError) as exc:
            runs = [repr(exc)]
        res.check(runs == sorted(run_dirs),
                  f"compare.csv rows {runs}, expected one per run")

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


def make(name: str, out_root: str):
    if name == "cli_hinge":
        return CliWorkload(out_root)
    return ApiWorkload(name)
