"""Hamiltonian-style sampling for discontinuous densities and ordinal
discrete parameters.

Discrete parameters are embedded into the real line (``embedding``), momenta
on discontinuous coordinates follow a Laplace distribution whose dynamics are
integrated exactly coordinate by coordinate (``integrators``), and the
resulting proposals are wrapped into transition kernels with warmup
adaptation and diagnostics (``samplers``, ``tuning``, ``diagnostics``).
Bundled targets live in ``dhmc.models``; the ``dhmc`` console script drives
everything from a YAML config.
"""

from .core import (ConfigError, ContractError, DhmcError, MassSpec, ModelError,
                   OutOfSupportError, PhaseState, TargetModel, kinetic_energy,
                   sample_momentum)
from .diagnostics import (ChainSummary, EssReport, batch_means_ess,
                          min_ess_report, summarize)
from .embedding import EmbeddingMap
from .integrators import StepOutcome, coord_sweep, dhmc_step
from .samplers import KERNELS, SamplerConfig, SampleStore, run_chain
from .tuning import TuneState, adapt_stepsize

__version__ = "0.1.0"

__all__ = [
    "ChainSummary", "ConfigError", "ContractError", "DhmcError",
    "EmbeddingMap", "EssReport", "KERNELS", "MassSpec", "ModelError",
    "OutOfSupportError", "PhaseState", "SampleStore", "SamplerConfig",
    "StepOutcome", "TargetModel", "TuneState", "adapt_stepsize",
    "batch_means_ess", "coord_sweep", "dhmc_step",
    "kinetic_energy", "min_ess_report", "run_chain", "sample_momentum",
    "summarize",
]
