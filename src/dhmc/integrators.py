"""Energy-exact and splitting integrators for mixed targets.

One trajectory loop lives here, ``_trajectory``: L steps of the split
integrator, each a half kick and half drift of the smooth block around a full
sweep of the discontinuous block, with one ``potential`` call at the end.
With no discontinuous block a step is velocity Verlet (leapfrog); with no
smooth block it is the sweep alone.  Every kernel but ``rwm`` runs it, and so
does ``dhmc_step``, with L = 1.

``coord_sweep`` runs the sweep on its own: coordinate-wise updates for
Laplace momenta, in the order given.  A coordinate either jumps by
``eps * sign(p_j) / m_j`` while the momentum pays for the change in
potential, or bounces (momentum flip) when the kinetic budget ``|p_j| / m_j``
does not cover the increase.  Each update preserves the Hamiltonian exactly,
for any potential.  A sweep order is a 1-d integer array of coordinates of
``disc_idx``; the samplers draw it as a uniform permutation, so an order and
its reverse are equally likely, which makes the randomised sweep reversible
in distribution.

Tunnelling caveat: a coordinate jump can step across a thin high-potential
sliver narrower than ``eps / m_j`` without ever paying for it; choose step
sizes below the smallest feature the potential should resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ContractError, MassSpec, ModelError, OutOfSupportError,
                   PhaseState, TargetModel)

__all__ = ["StepOutcome", "coord_sweep", "dhmc_step"]


@dataclass(frozen=True)
class StepOutcome:
    """New state plus counters accumulated while producing it.

    ``potential_evals`` counts model work: one per ``potential`` or
    ``potential_diff`` call and one per ``grad_smooth`` call.  ``flips``
    counts momentum reflections, ``diverged`` flags a smooth drift that left
    the support (the caller should reject the trajectory).
    """

    state: PhaseState
    flips: int = 0
    potential_evals: int = 0
    diverged: bool = False


def _sweep_tables(model, mass: MassSpec, disc_idx: np.ndarray, d: int):
    """The lists, indexed by coordinate, that the sweep reads: the mass, the
    inverse mass and whether the model's ``potential_diff`` covers it."""
    m_by = np.full(d, np.nan)
    m_by[disc_idx] = mass.m_disc
    covered = np.zeros(d, dtype=bool)
    covered[model.diff_idx] = True
    return m_by.tolist(), (1.0 / m_by).tolist(), covered.tolist()


def _sweep_inplace(model, theta, p, order, eps, tables):
    """Run coordinate updates in ``order``, mutating theta and p.

    ``theta`` and ``p`` are float arrays, ``order`` an integer array and
    ``tables`` the lists of ``_sweep_tables``.  A covered coordinate costs
    one ``potential_diff`` call, any other two ``potential`` calls, counted
    2: at theta and at the proposal.  The one at theta is carried from the
    previous uncovered update when no covered update moved in between, and
    then costs nothing.  The sweep runs on Python scalars: ``p`` and
    ``order`` are read as lists once, ``theta`` is read with
    ``theta.item(j)`` and written on every move (the next update reads it),
    and ``p`` is written back once at the end, so a sweep that raises leaves
    ``p`` as it was.

    Returns (flips, potential_evals).  Precondition: the coordinates in
    ``order`` lie on the support.  The smooth block may have drifted off it;
    every diff is then ``+inf`` or finite, so such a sweep bounces or moves
    but never raises, and the step's closing gradient or the trajectory's
    closing potential rejects it.
    """
    flips = 0
    evals = 0
    diff = model.potential_diff
    pot = model.potential
    eps = float(eps)
    pl = p.tolist()
    m_l, minv_l, covered = tables
    item = theta.item
    u0 = None
    carried = -1  # never ``evals - flips``, which is at least 0
    for j in order.tolist():
        pj = pl[j]
        s = 1.0 if pj >= 0 else -1.0
        minv = minv_l[j]
        old = item(j)
        new = old + eps * s * minv
        if covered[j]:
            du = diff(theta, j, new)
            evals += 1
        else:
            # A covered update adds one evaluation, and a flip when it
            # bounces, so ``evals - flips`` changes only at a covered move:
            # while it equals ``carried``, ``u0`` is the potential at theta.
            if evals - flips != carried:
                u0 = pot(theta)
                evals += 1
            theta[j] = new
            u1 = pot(theta)
            theta[j] = old
            evals += 1
            # off the support every update bounces, as a +inf diff would
            du = np.inf if u0 == np.inf else u1 - u0
            if abs(pj) * minv > du:  # the move below
                u0 = u1
                carried = evals - flips
            else:  # the bounce below adds a flip
                carried = evals - flips - 1
        if du != du:
            raise ModelError(f"{model.name} returned NaN potential difference")
        if abs(pj) * minv > du:
            theta[j] = new
            pl[j] = pj - s * m_l[j] * du
        else:
            pl[j] = -pj
            flips += 1
    p[:] = pl
    return flips, evals


def _grad_checked(model, theta):
    g = model.grad_smooth(theta)
    g = np.asarray(g, dtype=float)
    if np.any(np.isnan(g)):
        raise ModelError(f"{model.name} returned NaN gradient")
    return g


def _potential_checked(model, theta) -> float:
    u = model.potential(theta)
    if u != u:
        raise ModelError(f"{model.name} returned NaN potential")
    return float(u)


def _trajectory(model, theta, p, smooth, mass, eps, L, order, tables):
    """L split-integrator steps from (theta, p), mutating both.

    ``order`` is the sweep order of every step and ``tables`` the lists of
    ``_sweep_tables``.  Returns (flips, evals, diverged, u_end): ``u_end`` is
    the closing potential, None without a smooth block or when a gradient
    ended the trajectory.  Without a smooth block the steps are sweeps, which keep the
    Hamiltonian exactly and need no potential.  With one, the entry gradient
    is taken here and each step's closing gradient is the next step's entry
    gradient.  No step calls ``potential``: the sweep runs wherever the first
    half drift lands, and a step that ends off the support diverges, which
    ``grad_smooth`` signals with ``OutOfSupportError`` (that call is not
    counted).  The one ``potential`` call is at the end; ``+inf`` there
    also marks the trajectory divergent, which catches a model whose
    gradient did not signal the end off the support.
    """
    flips = 0
    evals = 0
    if not len(smooth):
        for _ in range(L):
            f, e = _sweep_inplace(model, theta, p, order, eps, tables)
            flips += f
            evals += e
        return flips, evals, False, None
    half = 0.5 * eps
    g = _grad_checked(model, theta)
    evals += 1
    for _ in range(L):
        p[smooth] -= half * g
        if len(order):
            theta[smooth] += half * mass.smooth_velocity(p[smooth])
            f, e = _sweep_inplace(model, theta, p, order, eps, tables)
            flips += f
            evals += e
            theta[smooth] += half * mass.smooth_velocity(p[smooth])
        else:
            theta[smooth] += eps * mass.smooth_velocity(p[smooth])
        try:
            g = _grad_checked(model, theta)
        except OutOfSupportError:
            return flips, evals, True, None
        evals += 1
        p[smooth] -= half * g
    u_end = _potential_checked(model, theta)
    return flips, evals + 1, u_end == np.inf, u_end


def _check_step_args(model, state: PhaseState, mass: MassSpec, eps: float,
                     order) -> np.ndarray:
    """Check a step's arguments; returns ``order`` as an integer array."""
    if model.dim != state.dim:
        raise ContractError("model dimension does not match the state")
    mass.check_sizes(len(state.smooth_idx), len(state.disc_idx))
    if eps <= 0:
        raise ContractError("eps must be positive")
    order = np.asarray(order, dtype=np.intp)
    if order.ndim != 1:
        raise ContractError("a sweep order must be a 1-d array of coordinate "
                            "indices")
    disc = set(state.disc_idx.tolist())
    for j in order.tolist():
        if j not in disc:
            raise ContractError(f"coordinate {j} is not in disc_idx; "
                                "sweep orders only visit disc_idx coordinates")
    return order


def coord_sweep(model: TargetModel, state: PhaseState, order, eps: float,
                mass: MassSpec) -> StepOutcome:
    """Update the coordinates of ``order`` (a 1-d integer array of
    coordinates in disc_idx), one after the other.

    Each update proposes theta_j + eps * sign(p_j) / m_j; the move happens
    when |p_j| / m_j exceeds the potential increase, with the momentum
    reduced by m_j * dU, otherwise p_j is flipped in place.  Ties bounce,
    sign(0) = +1, an infinite dU always bounces.  The sweep preserves the
    Hamiltonian exactly regardless of the potential, which is why no
    acceptance test is needed downstream.  Precondition: the coordinates of
    ``order`` lie on the support.  The others may lie anywhere; every
    potential difference there is ``+inf`` or finite.
    """
    order = _check_step_args(model, state, mass, eps, order)
    theta = state.theta.copy()
    p = state.p.copy()
    tables = _sweep_tables(model, mass, state.disc_idx, state.dim)
    flips, evals = _sweep_inplace(model, theta, p, order, eps, tables)
    out = PhaseState(theta, p, state.smooth_idx, state.disc_idx)
    return StepOutcome(state=out, flips=flips, potential_evals=evals)


def dhmc_step(model: TargetModel, state: PhaseState, eps: float, mass: MassSpec,
              order) -> StepOutcome:
    """One step of the split integrator: a trajectory of length 1.

    Half kick and half drift of the smooth block, a full coordinate sweep of
    the discontinuous block in ``order`` (a 1-d integer array of coordinates
    in disc_idx), then the mirror half drift and half kick.  With an empty
    sweep the two half drifts fuse into one full drift, so the step is
    exactly one velocity-Verlet (leapfrog) step: second-order accurate for
    smooth potentials and silently wrong across an undeclared jump.  With an
    empty smooth block it is exactly ``coord_sweep``.  Precondition: the
    discontinuous block lies on the support.  The sweep runs wherever the
    first half drift lands, even off the support; a step that ends off the
    support marks the outcome divergent and keeps the start state.  As in a
    trajectory, the one ``potential`` call is at the end, after a closing
    gradient that did not already find the end off the support.
    """
    order = _check_step_args(model, state, mass, eps, order)
    theta = state.theta.copy()
    p = state.p.copy()
    tables = _sweep_tables(model, mass, state.disc_idx, state.dim)
    flips, evals, diverged, _ = _trajectory(
        model, theta, p, state.smooth_idx, mass, eps, 1, order, tables)
    if diverged:
        return StepOutcome(state=state, flips=flips, potential_evals=evals,
                           diverged=True)
    out = PhaseState(theta, p, state.smooth_idx, state.disc_idx)
    return StepOutcome(state=out, flips=flips, potential_evals=evals)
