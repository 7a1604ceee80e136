"""Fixed-work probes for the traced pass.

- A benchmark-owned target whose ``potential_diff`` costs nothing isolates
  the coordinate loop (dim 100, path length 40) and the per-transition kernel
  overhead (dim 1, path length 1): fixed stepsize, no warmup.
- The per-step probe counts model calls per split-integrator step on a real
  model, as the difference between two fixed-stepsize chains from the same
  seed, so that set-up calls made once per chain cancel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from dhmc import SamplerConfig, TargetModel, run_chain

from tracing import Tracer
from workloads import chain_seed

FREE_REPEATS = 5
PER_STEP_SHORT, PER_STEP_LONG = 10, 20


class FreeTarget(TargetModel):
    """Flat all-discontinuous target whose potential difference is free."""

    name = "free"

    def __init__(self, dim: int):
        self.dim = dim
        self._disc = np.arange(dim, dtype=np.intp)

    @property
    def smooth_idx(self):
        return np.array([], dtype=np.intp)

    @property
    def disc_idx(self):
        return self._disc

    def potential(self, theta):
        return 0.0

    def potential_diff(self, theta, j, value):
        return 0.0


def _free_seconds(dim: int, path_len: int, n_samples: int) -> float:
    """Median wall time of a fixed-stepsize chain on the free target."""
    model = FreeTarget(dim)
    cfg = SamplerConfig(kernel="dhmc_coordwise", eps_range=(0.5, 0.5),
                        path_len=(path_len, path_len), n_warmup=0,
                        n_samples=n_samples, tune_eps=False, tune_mass=False,
                        seed=0)
    times = []
    for _ in range(FREE_REPEATS):
        t0 = time.perf_counter()
        run_chain(model, np.zeros(dim), cfg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def free_us_per_update() -> float:
    dim, path_len, n = 100, 40, 5
    return 1e6 * _free_seconds(dim, path_len, n) / (n * path_len * dim)


def free_us_per_transition() -> float:
    n = 2000
    return 1e6 * _free_seconds(1, 1, n) / n


def per_step(wl, first, seed: int):
    """Model calls per split step over the workload's split-step chains.

    Each chain's probe starts where its round-0 chain ended, with that
    chain's adapted stepsize and masses.  Calls are the difference between
    a LONG and a SHORT fixed-stepsize chain from the same seed, so calls made
    once per chain cancel.  Returns (metrics, tracers of the probe chains);
    the tracers carry the fast-path checks made on the way.
    """
    starts = {ch.label: ch.start for ch in first.chains}
    calls = {"potential": 0, "grad_smooth": 0}
    steps = 0
    tracers = []
    for c, spec in enumerate(wl.specs):
        label = f"{c}.{spec.model}"
        if spec.sampler["kernel"] != "dhmc" or label not in starts:
            continue
        eps_range, mass, theta = starts[label]
        path_len = spec.sampler["path_len"]
        pair = []
        for n in (PER_STEP_SHORT, PER_STEP_LONG):
            tracer = Tracer()
            cfg = SamplerConfig(kernel="dhmc", eps_range=eps_range,
                                path_len=(path_len, path_len), mass=mass,
                                n_warmup=0, n_samples=n, tune_eps=False,
                                tune_mass=False, seed=chain_seed(seed, 0, c))
            undo = tracer.instrument(wl.models[c])
            try:
                run_chain(wl.models[c], theta, cfg)
            finally:
                undo()
            pair.append(tracer)
            tracers.append(tracer)
        for kind in calls:
            calls[kind] += pair[1].calls(kind) - pair[0].calls(kind)
        steps += (PER_STEP_LONG - PER_STEP_SHORT) * path_len
    metrics = {f"models.{kind}.per_step": (n / steps if steps else 0.0)
               for kind, n in calls.items()}
    return metrics, tracers
