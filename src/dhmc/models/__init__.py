"""Target distributions and their synthetic data generators."""

from __future__ import annotations

import numpy as np

from ..core import ContractError
from .ar1 import Ar1Target
from .arch_cp import (ArchChangePointTarget, arch_neg_log_likelihood,
                      load_series, save_series, synth_arch_series)
from .binomial import BinomialNTarget
from .gen_bayes import (GenBayesTarget, load_classification,
                        save_classification, synth_classification)
from .jolly_seber import (JollySeberStats, JollySeberTarget, load_stats,
                          population_draws, save_stats,
                          simulate_capture_recapture, survival_chi)
from .simple import BananaTarget, GaussianTarget, GridTarget

__all__ = [
    "Ar1Target", "ArchChangePointTarget", "BananaTarget", "BinomialNTarget",
    "GaussianTarget", "GenBayesTarget", "GridTarget", "JollySeberStats",
    "JollySeberTarget", "arch_neg_log_likelihood", "build_model",
    "load_classification", "load_series", "load_stats", "population_draws",
    "save_classification", "save_series", "save_stats",
    "simulate_capture_recapture", "survival_chi", "synth_arch_series",
    "synth_classification",
]


def build_model(name: str, params: dict | None = None,
                data_path: str | None = None, synth_seed: int = 0):
    """Construct a registered target by name for the CLI.

    Data-backed models load ``data_path`` when given, otherwise simulate a
    dataset from ``synth_seed``.
    """
    params = dict(params or {})
    rng = np.random.default_rng(synth_seed)
    if name == "gaussian":
        return GaussianTarget(**params)
    if name == "pmf":
        probs = params.pop("probs", [0.2, 0.5, 0.3])
        return GridTarget.from_probs(probs, **params)
    if name == "banana":
        return BananaTarget(**params)
    if name == "binomial_n":
        params.setdefault("y", 5)
        params.setdefault("q", 0.5)
        return BinomialNTarget(**params)
    if name == "ar1":
        return Ar1Target(**params)
    if name == "gen_bayes":
        n = int(params.pop("n", 300))
        k = int(params.pop("k", 40))
        if data_path:
            X, y = load_classification(data_path)
        else:
            X, y, _ = synth_classification(rng, n=n, k=k)
        return GenBayesTarget(X, y, **params)
    if name == "jolly_seber":
        sim = {key: params.pop(key)
               for key in ("u1", "p", "phi", "births_scale") if key in params}
        if data_path:
            stats = load_stats(data_path)
        else:
            sim.setdefault("u1", 400)
            sim.setdefault("p", [0.4] * 13)
            sim.setdefault("phi", [0.85] * (len(sim["p"]) - 1))
            stats, _ = simulate_capture_recapture(rng, **sim)
        return JollySeberTarget(stats, **params)
    if name == "arch_cp":
        sim = {key: params.pop(key)
               for key in ("T", "change_t", "a_low", "jump", "b") if key in params}
        if data_path:
            y = load_series(data_path)
        else:
            y, _ = synth_arch_series(rng, **sim)
        return ArchChangePointTarget(y, **params)
    raise ContractError(f"unknown model {name!r}")
