"""Target distributions and their data generators, one module each; a module
is imported only when ``build_model`` builds its target."""

from __future__ import annotations

import numpy as np

from ..core import ContractError

__all__ = ["build_model"]


def build_model(name: str, params: dict | None = None,
                data_path: str | None = None, synth_seed: int = 0):
    """Construct a registered target by name for the CLI.

    Data-backed models load ``data_path`` when given, otherwise simulate a
    dataset from ``synth_seed``.
    """
    params = dict(params or {})
    rng = np.random.default_rng(synth_seed)
    if name == "gaussian":
        from .simple import GaussianTarget
        return GaussianTarget(**params)
    if name == "pmf":
        from .simple import GridTarget
        probs = params.pop("probs", [0.2, 0.5, 0.3])
        return GridTarget.from_probs(probs, **params)
    if name == "banana":
        from .simple import BananaTarget
        return BananaTarget(**params)
    if name == "binomial_n":
        from .binomial import BinomialNTarget
        params.setdefault("y", 5)
        params.setdefault("q", 0.5)
        return BinomialNTarget(**params)
    if name == "ar1":
        from .ar1 import Ar1Target
        return Ar1Target(**params)
    if name == "gen_bayes":
        from .gen_bayes import (GenBayesTarget, load_classification,
                                synth_classification)
        n = int(params.pop("n", 300))
        k = int(params.pop("k", 40))
        if data_path:
            X, y = load_classification(data_path)
        else:
            X, y, _ = synth_classification(rng, n=n, k=k)
        return GenBayesTarget(X, y, **params)
    if name == "jolly_seber":
        from .jolly_seber import (JollySeberTarget, load_stats,
                                  simulate_capture_recapture)
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
        from .arch_cp import (ArchChangePointTarget, load_series,
                              synth_arch_series)
        sim = {key: params.pop(key)
               for key in ("T", "change_t", "a_low", "jump", "b") if key in params}
        if data_path:
            y = load_series(data_path)
        else:
            y, _ = synth_arch_series(rng, **sim)
        return ArchChangePointTarget(y, **params)
    raise ContractError(f"unknown model {name!r}")
