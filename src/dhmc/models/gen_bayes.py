"""Generalized-Bayes posterior for binary classification under error-rate loss.

The pseudo-likelihood is exp(-loss) with loss(beta) = #{i : y_i x_i' beta < 0}
(strict inequality, so points exactly on the hyperplane cost nothing) and a
standard normal prior on each coefficient.  The potential is piecewise
quadratic with hyperplane jumps, so every coordinate is discontinuous.
"""

from __future__ import annotations

import csv

import numpy as np

from ..core import ContractError, TargetModel

__all__ = ["GenBayesTarget", "synth_classification", "save_classification",
           "load_classification"]

_EMPTY = np.array([], dtype=np.intp)


class GenBayesTarget(TargetModel):

    name = "gen_bayes"

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ContractError("X must be n x k with matching labels y")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ContractError("labels must be -1 or +1")
        self.X = X
        self.y = y
        self.n, self.k = X.shape
        self.dim = self.k
        self._yx = y[:, None] * X
        self._disc = np.arange(self.k, dtype=np.intp)

    @property
    def smooth_idx(self):
        return _EMPTY

    @property
    def disc_idx(self):
        return self._disc

    @property
    def param_names(self):
        return [f"beta{i}" for i in range(self.k)]

    def potential(self, theta):
        margins = self._yx @ theta
        loss = np.count_nonzero(margins < 0.0)
        return float(loss + 0.5 * np.dot(theta, theta))

    def potential_diff(self, theta, j, value):
        margins = self._yx @ theta
        tj = theta[j]
        shifted = margins + self._yx[:, j] * (value - tj)
        dloss = (np.count_nonzero(shifted < 0.0)
                 - np.count_nonzero(margins < 0.0))
        return float(dloss + 0.5 * (value * value - tj * tj))

    def initial_theta(self, rng):
        return 0.1 * rng.standard_normal(self.k)


def synth_classification(rng: np.random.Generator, n: int = 300, k: int = 40,
                         scale: float = 2.0):
    """Linearly separable labels from a random direction.

    Columns of X are standardized; labels are the sign of X beta_true, so the
    true direction attains zero loss.  Returns (X, y, beta_true).
    """
    if n < 2 or k < 1:
        raise ContractError("need n >= 2 and k >= 1")
    X = rng.standard_normal((n, k))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    beta = rng.standard_normal(k)
    beta *= scale / np.linalg.norm(beta)
    margins = X @ beta
    # Nudge any exactly-zero margin off the hyperplane to keep labels strict.
    margins[margins == 0.0] = 1e-12
    y = np.sign(margins)
    return X, y, beta


def save_classification(path, X, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"x{i}" for i in range(X.shape[1])])
        for yi, row in zip(y, X):
            w.writerow([int(yi)] + [repr(float(v)) for v in row])


def load_classification(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "y":
        raise ContractError(f"{path}: expected a classification CSV with a 'y' column")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.size == 0:
        raise ContractError(f"{path}: no data rows")
    return data[:, 1:], data[:, 0]
