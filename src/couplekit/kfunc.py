"""Peetre K-functional computation.

K(t, f; X, Y) = inf{ ||x||_X + t ||y||_Y : x + y = f } is computed by convex
minimization after two exact reductions:

1. Cone reduction.  For Kothe lattice norms the infimum is unchanged when
   restricted to 0 <= x <= |f|: replacing any split f = x + y by
   x' = med(0, x, f), y' = f - x' gives |x'| <= |x| and |y'| <= |y|
   pointwise, so neither norm increases (sign transfer handles signed f,
   whose K equals K(t, |f|)).
2. Grid reduction.  For step functions the infimum is unchanged when x is
   constant on the pieces of f: conditional expectation onto the piece
   partition contracts both L_1 and L_infty, hence (Tg)** <= g**, and every
   r.i. norm with the Fatou property is monotone under **-domination.  So
   averaging an arbitrary split piece-wise never increases the objective.

When Y is L_infty or ell_infty the problem is one-dimensional and exact:
a split with ||y||_infty = lam has |x| >= (|f| - lam)_+ pointwise, so

    K(t, f; X, L_infty) = min over 0 <= lam <= ||f||_infty of
                          phi(lam) = ||(|f| - lam)_+||_X + t lam

(Bennett-Sharpley, Interpolation of Operators, 1988), and phi is convex.
phi is evaluated at 0 and at every level of |f|, and the bracket around the
best level is narrowed by golden-section steps.  ``lower`` is then a true
bound: the chords of phi through the best interior point bound phi from
below on the final bracket, which holds the minimiser.  X = L_infty is
routed to the same search by K(t; X, Y) = t K(1/t; Y, X).

Other couples are minimized over the box 0 <= c <= |f| by cyclic
coordinate descent (descending-|f| sweep order, golden-section line
searches), cross-checked against the truncation family x = min(|f|, c) and,
for sequence couples, all prefix/suffix splits.  The reported value is the
best decomposition found (an upper bound); ``lower`` there is only a numeric
subgradient gap estimate, not a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import SeqVec, StepFunction, rearrange
from .spaces import SeparationFit, SeqSpaceSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_CAP = 64


@dataclass
class KResult:
    t: float
    value: float            # best decomposition value (upper bound)
    lower: float             # lower bound (L_infty path) or gap estimate
    x_mass: float            # ||x||_X at the best split
    y_mass: float            # ||y||_Y at the best split
    sweeps: int
    converged: bool
    split: np.ndarray = field(repr=False, default=None)

    @property
    def upper(self) -> float:
        return self.value


def _norm_closure(space, template):
    """Fast ||.|| as a function of the piece/entry value vector."""
    if isinstance(template, StepFunction):
        return space.norm_closure(template)
    E = space.e_space(template.window)
    if E.window != template.window:
        raise ValueError("vector window does not match space window")
    return E.norm_values


def _golden_min(phi, lo: float, hi: float, tol: float):
    """Golden-section minimum of a convex phi on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = phi(d)
    xm = 0.5 * (a + b)
    return xm, phi(xm)


def k_numeric(t: float, f, X, Y, tol: float = 1e-8) -> KResult:
    """K(t, f; X, Y) over the reduced cone.

    ``f`` is a StepFunction (X, Y function spaces) or a SeqVec (X, Y sequence
    spaces, or function spaces routed through their E_X).

    If Y (or X) is L_infty / ell_infty, K is the exact one-dimensional
    search ``_k_linf``: it stops once value - lower <= tol * value, and
    ``lower`` is a certified lower bound on K.  Otherwise K is found by
    cyclic coordinate descent, converged once a full sweep improves by less
    than tol * value; the sweep cap leaves ``converged=False`` with the best
    value intact, and ``lower`` is a numeric gap estimate only.
    """
    if t <= 0:
        raise ValueError("K-functional needs t > 0")
    sequence_like = isinstance(f, SeqVec)
    if sequence_like:
        a = np.abs(f.values)
    elif isinstance(f, StepFunction):
        a = np.abs(f.vals)
    else:
        raise TypeError("f must be a StepFunction or SeqVec")
    nx = _norm_closure(X, f)
    ny = _norm_closure(Y, f)

    if not np.any(a > 0):
        return KResult(t, 0.0, 0.0, 0.0, 0.0, 0, True, a.copy())
    if Y.is_linf:
        return _k_linf(t, a, nx, tol)
    if X.is_linf:  # K(t; L_infty, Y) = t K(1/t; Y, L_infty)
        r = _k_linf(1.0 / t, a, ny, tol)
        return KResult(t, t * r.value, t * r.lower, r.y_mass, r.x_mass,
                       r.sweeps, r.converged, a - r.split)

    def objective(c: np.ndarray) -> float:
        return nx(c) + t * ny(a - c)

    # trial decompositions: trivial, truncation family, prefix/suffix splits
    best_c = np.zeros_like(a)
    best_v = objective(best_c)
    for cand in _trial_splits(a, sequence_like):
        v = objective(cand)
        if v < best_v:
            best_v, best_c = v, cand

    order = np.argsort(-a, kind="stable")
    order = order[a[order] > 0]
    c = best_c.copy()
    value = best_v
    sweeps = 0
    converged = False
    for sweep in range(SWEEP_CAP):
        sweeps = sweep + 1
        before = value
        for i in order:
            ai = a[i]

            def line(z, i=i):
                c[i] = z
                return objective(c)

            zi, vi = _golden_min(line, 0.0, ai, max(ai * tol / 10.0, 1e-15))
            c[i] = zi
            value = vi
        if before - value <= tol * max(value, 1e-300):
            converged = True
            break
    if value > best_v:  # keep the incumbent if descent stalled above it
        value, c = best_v, best_c
    gap = _convexity_gap(objective, c, a, value)
    return KResult(t, value, max(value - gap, 0.0), nx(c), ny(a - c),
                   sweeps, converged, c)


def _k_linf(t: float, a: np.ndarray, nx, tol: float) -> KResult:
    """min of the convex phi(lam) = nx((a - lam)_+) + t lam on [0, max a].

    phi is evaluated at 0 and every level of a, so both trivial splits are
    candidates.  A convex phi has a minimiser between the neighbours of its
    best grid point; golden-section steps narrow that bracket until the
    chord bound certifies value - lower <= tol * value, or the bracket is a
    few ulps wide (at most 71 steps, since its width starts at most max a).
    A bracket so narrow that its golden points round onto each other takes
    its lower bound from the Lipschitz constant of phi instead.
    """
    def phi(lam: float) -> float:
        return nx(np.maximum(a - lam, 0.0)) + t * lam

    levels = np.concatenate([[0.0], np.unique(a[a > 0])])
    vals = [phi(lam) for lam in levels]
    k = int(np.argmin(vals))
    best_lam, value = float(levels[k]), vals[k]
    i, j = max(k - 1, 0), min(k + 1, levels.size - 1)
    lo, f_lo, hi, f_hi = float(levels[i]), vals[i], float(levels[j]), vals[j]
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = phi(c), phi(d)
    floor = 8.0 * np.finfo(float).eps * float(levels[-1])
    while True:
        # the best interior point m; [A, B] still holds a minimiser of phi
        if fc <= fd:
            A, fA, m, fm, B, fB = lo, f_lo, c, fc, d, fd
        else:
            A, fA, m, fm, B, fB = c, fc, d, fd, hi, f_hi
        if fm < value:
            best_lam, value = m, fm
        if not A < m < B:
            # rounding merged the golden points in a bracket a few ulps wide;
            # phi is max(t, ||1_{a > lo}||_X)-Lipschitz on [lo, hi]
            lip = max(t, nx(np.where(a > lo, 1.0, 0.0)))
            lower = 0.5 * (f_lo + f_hi - lip * (hi - lo))
            break
        # convexity: phi >= the chord through (m, B) on [A, m] and the chord
        # through (A, m) on [m, B]
        s_left = (fm - fA) / (m - A)
        s_right = (fB - fm) / (B - m)
        lower = min(fm - max(s_right, 0.0) * (m - A),
                    fm + min(s_left, 0.0) * (B - m))
        if value - lower <= tol * value or hi - lo <= floor:
            break
        if fc <= fd:
            hi, f_hi, d, fd = d, fd, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = phi(c)
        else:
            lo, f_lo, c, fc = c, fc, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = phi(d)
    split = np.maximum(a - best_lam, 0.0)
    # lower <= min phi <= value in exact arithmetic; the cap absorbs rounding
    return KResult(t, value, max(min(lower, value), 0.0), nx(split), best_lam,
                   1, True, split)


def _trial_splits(a: np.ndarray, sequence_like: bool):
    levels = np.unique(a[a > 0])
    for theta in levels:
        yield np.minimum(a, theta)       # flat part in X
        yield a - np.minimum(a, theta)   # peaks in X
    yield a.copy()
    if sequence_like:
        for m in range(1, a.size):
            cand = a.copy()
            cand[m:] = 0.0
            yield cand
            cand2 = a.copy()
            cand2[:m] = 0.0
            yield cand2


def _convexity_gap(objective, c, a, value):
    """Box lower-bound gap from a numeric subgradient at the solution."""
    gap = 0.0
    for i in range(a.size):
        if a[i] <= 0:
            continue
        h = max(a[i] * 1e-6, 1e-12)
        up = np.clip(c.copy(), 0, a)
        dn = up.copy()
        up[i] = min(c[i] + h, a[i])
        dn[i] = max(c[i] - h, 0.0)
        denom = up[i] - dn[i]
        if denom <= 0:
            continue
        g = (objective(up) - objective(dn)) / denom
        gap += max(g * (c[i] - 0.0), 0.0) if g > 0 else max(-g * (a[i] - c[i]), 0.0)
    return gap


def k_l1_linf_oracle(t: float, f: StepFunction) -> float:
    """int_0^t f*(s) ds -- the classical closed form of K(t, f; L1, Linf).

    Exact on step data; validated against ``k_numeric`` as part of the test
    suite before acceptance relies on it.
    """
    if t <= 0:
        raise ValueError("oracle needs t > 0")
    fs = rearrange(f)
    bp = np.asarray(fs.breakpoints)
    covered = np.clip(np.minimum(bp[1:], t) - bp[:-1], 0.0, None)
    return float(np.dot(fs.vals, covered))


def k_block_estimate(t: float, x: SeqVec, E: SeqSpaceSpec, F: SeqSpaceSpec,
                     fit: SeparationFit) -> float:
    """Prefix/suffix split value ||x_(-inf,a]||_E + t ||x_(a,inf)||_F.

    For exponentially separated couples (``fit.separated`` must hold) the
    split at the index a with rho(a) <= t <= rho(a+1) is within a constant
    of K(t, x); below the rho range the bound is t ||x||_F, above it
    ||x||_E.  Each split is itself a decomposition, so the value always
    dominates K.  Among admissible indices the smallest split is returned.
    """
    if t <= 0:
        raise ValueError("block estimate needs t > 0")
    if not fit.separated:
        raise ValueError("couple is not exponentially separated")
    rho = fit.rho
    ns = sorted(rho)

    def split(a: int) -> float:
        return E.norm(x.prefix(a)) + t * F.norm(x.suffix(a + 1))

    if t < min(rho.values()):
        return t * F.norm(x)
    if t > max(rho.values()):
        return E.norm(x)
    cands = [a for a in ns[:-1] if rho[a] <= t <= rho[a + 1]]
    if not cands:  # wobble gap: fall back to the nearest-rho index
        cands = [min(ns[:-1], key=lambda a: abs(math.log(t) - math.log(rho[a])))]
    return min(split(a) for a in cands)


def k_profile(f, X, Y, t_grid, tol: float = 1e-8):
    """Rows (t, K, x_mass, y_mass, lower, converged) along an increasing
    positive t grid; ``lower`` and ``converged`` are as in ``k_numeric``."""
    ts = [float(t) for t in t_grid]
    if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be positive and increasing")
    results = [k_numeric(t, f, X, Y, tol) for t in ts]
    return [
        {"t": r.t, "K": r.value, "x_mass": r.x_mass, "y_mass": r.y_mass,
         "lower": r.lower, "converged": r.converged}
        for r in results
    ]
