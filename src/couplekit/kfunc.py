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

Three routes, asked of the spaces through their protocol:

1. An L1-type side.  When one side is a weighted ell_1 on the pieces (L1,
   or ``weighted_lp_form()`` with p = 1) and the other a weighted ell_p,
   1 <= p <= inf, K is an exact one-parameter problem, ``_k_l1``: the best
   split of a given ||y||_Y is y = min(|f|, theta c), and the minimum over
   theta is found at the levels of |f| / c and, for 1 < p < inf, at a closed
   form stationary point.  ``lower`` equals ``value``.  The other order is
   the same problem by K(t; X, Y) = t K(1/t; Y, X).
2. L_infty or ell_infty against any other X: a split with ||y||_infty = lam
   has |x| >= (|f| - lam)_+ pointwise, so

    K(t, f; X, L_infty) = min over 0 <= lam <= ||f||_infty of
                          phi(lam) = ||(|f| - lam)_+||_X + t lam

   (Bennett-Sharpley, Interpolation of Operators, 1988), and phi is convex.
   phi is evaluated at 0 and at every level of |f| (one batch of rows), and
   the bracket around the best level is narrowed by golden-section steps
   (one row each).  ``lower`` is then a true bound: the chords of phi
   through the best interior point bound phi from below on the final
   bracket, which holds the minimiser.  X = L_infty takes the same search
   by the swap identity.
3. Other couples are minimized over the box 0 <= c <= |f| by cyclic
   coordinate descent (descending-|f| sweep order, golden-section line
   searches), cross-checked against the truncation family x = min(|f|, c)
   and, for sequence couples, all prefix/suffix splits (batches of rows).
   The reported value is the best decomposition found (an upper bound);
   ``lower`` there is only a numeric subgradient gap estimate, not a
   certified bound.

Norms are row functions of the spaces, ``norm_rows_on(f)`` (or E_X's
``norm_rows`` for a sequence): rows of values normed independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .measure import SeqVec, StepFunction, rearrange
from .spaces import SeparationFit, SeqSpaceSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_CAP = 64
# entries in one batch of rows: longer scans are split into batches of
# 128 KB, small enough to stay in cache
_BATCH = 1 << 14


@dataclass
class KResult:
    t: float
    value: float            # best decomposition value (upper bound)
    lower: float             # lower bound (L1-type and L_infty paths) or gap estimate
    x_mass: float            # ||x||_X at the best split
    y_mass: float            # ||y||_Y at the best split
    sweeps: int
    converged: bool
    split: np.ndarray = field(repr=False, default=None)

    @property
    def upper(self) -> float:
        return self.value


def _norm_rows(space, template):
    """V -> ||.|| of each row of V, values on the pieces/entries of template."""
    if isinstance(template, StepFunction):
        if not hasattr(space, "norm_rows_on"):
            raise UsageError(f"{space.spec_string()} is a sequence space; a step "
                             f"function needs function spaces")
        return space.norm_rows_on(template)
    E = space.e_space(template.window)
    if E.window != template.window:
        raise ValueError("vector window does not match space window")
    return E.norm_rows


def _lp_form(space, template):
    """(weights, p) when the space's norm on the pieces/entries of template is
    a weighted ell_p, else None."""
    if isinstance(template, StepFunction):
        return space.weighted_lp_form_on(template)
    return space.e_space(template.window).weighted_lp_form()


def _one(rows, v: np.ndarray) -> float:
    """The norm of one value vector through a rows function."""
    return float(rows(v[None])[0])


def _runs(params: np.ndarray, width: int) -> list:
    """params cut into runs whose rows of the given width fill one batch."""
    step = max(1, _BATCH // width)
    return [params[i:i + step] for i in range(0, params.size, step)]


def _golden_steps(phi, lo: float, f_lo, hi: float, f_hi):
    """Golden-section brackets (lo, f_lo, c, fc, d, fd, hi, f_hi) of a convex
    phi, each narrowed from the one before; f_lo and f_hi are phi at the
    ends, as given by the caller until a step moves that end."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = phi(c), phi(d)
    while True:
        yield lo, f_lo, c, fc, d, fd, hi, f_hi
        if fc <= fd:
            hi, f_hi, d, fd = d, fd, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = phi(c)
        else:
            lo, f_lo, c, fc = c, fc, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = phi(d)


def _golden_min(phi, lo: float, hi: float, tol: float):
    """Golden-section minimum of a convex phi on [lo, hi]."""
    for a, _, _, _, _, _, b, _ in _golden_steps(phi, lo, None, hi, None):
        if b - a <= tol:
            xm = 0.5 * (a + b)
            return xm, phi(xm)


def k_numeric(t: float, f, X, Y, tol: float = 1e-8) -> KResult:
    """K(t, f; X, Y) over the reduced cone.

    ``f`` is a StepFunction (X, Y function spaces) or a SeqVec (X, Y sequence
    spaces, or function spaces routed through their E_X).

    If one side is L1-type (a weighted ell_1) and the other a weighted ell_p,
    K is the exact one-parameter search ``_k_l1``.  Otherwise, if Y (or X)
    is L_infty / ell_infty, K is the exact one-dimensional search
    ``_k_linf``: it stops once value - lower <= tol * value.  On both paths
    ``lower`` is a certified lower bound on K.  Other couples take cyclic
    coordinate descent, converged once a full sweep improves by less than
    tol * value; the sweep cap leaves ``converged=False`` with the best
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
    nx = _norm_rows(X, f)
    ny = _norm_rows(Y, f)

    if not np.any(a > 0):
        return KResult(t, 0.0, 0.0, 0.0, 0.0, 0, True, a.copy())
    form_x, form_y = _lp_form(X, f), _lp_form(Y, f)
    if form_x is not None and form_y is not None:
        if form_x[1] == 1.0:
            return _k_l1(t, a, form_x[0], *form_y, nx, ny)
        if form_y[1] == 1.0:
            return _swapped(t, a, _k_l1(1.0 / t, a, form_y[0], *form_x, ny, nx))
    if Y.is_linf:
        return _k_linf(t, a, nx, tol)
    if X.is_linf:
        return _swapped(t, a, _k_linf(1.0 / t, a, ny, tol))

    def objective(C: np.ndarray) -> np.ndarray:
        """||c||_X + t ||a - c||_Y for each row c of C."""
        return nx(C) + t * ny(a - C)

    best_c, best_v = np.zeros_like(a), math.inf
    for C in _trial_splits(a, sequence_like):
        vals = objective(C)
        k = int(np.argmin(vals))  # the first minimum, as a strict-< scan keeps
        if vals[k] < best_v:
            best_c, best_v = C[k].copy(), float(vals[k])

    order = np.argsort(-a, kind="stable")
    order = order[a[order] > 0]
    c = best_c.copy()
    value = best_v
    converged = False
    for sweeps in range(1, SWEEP_CAP + 1):
        before = value
        for i in order:
            ai = a[i]

            def line(z, i=i):
                c[i] = z
                return _one(nx, c) + t * _one(ny, a - c)

            zi, vi = _golden_min(line, 0.0, ai, max(ai * tol / 10.0, 1e-15))
            c[i] = zi
            value = vi
        if before - value <= tol * max(value, 1e-300):
            converged = True
            break
    if value > best_v:  # keep the incumbent if descent stalled above it
        value, c = best_v, best_c
    gap = _convexity_gap(objective, c, a)
    return KResult(t, value, max(value - gap, 0.0), _one(nx, c), _one(ny, a - c),
                   sweeps, converged, c)


def _swapped(t: float, a: np.ndarray, r: KResult) -> KResult:
    """K(t; X, Y) = t K(1/t; Y, X), from r = K(1/t; Y, X)."""
    return KResult(t, t * r.value, t * r.lower, r.y_mass, r.x_mass,
                   r.sweeps, r.converged, a - r.split)


def _k_l1(t: float, a: np.ndarray, u: np.ndarray, v: np.ndarray, p: float,
          nx, ny) -> KResult:
    """K(t) exactly for X = ell_1 with weights u and Y = ell_p with weights v.

    For p = 1, K = sum_i min(u_i, t v_i) a_i: y_i = a_i exactly where
    t v_i < u_i.  For p > 1, a split with ||y||_Y <= r maximises
    sum u_i y_i over 0 <= y <= a: by the KKT conditions the maximiser is
    y(theta) = min(a, theta c) with c_i = (u_i / v_i^p)^(1/(p-1)) (c = 1/v at
    p = inf).  So K = min over theta >= 0 of
    phi(theta) = ||a - y(theta)||_X + t ||y(theta)||_Y, and

    * phi is unimodal: phi = psi(||y(theta)||_Y) with psi(r) = ||a||_X -
      max{sum u_i y_i : ||y||_Y <= r, 0 <= y <= a} + t r convex (the max is
      concave in r) and ||y(theta)||_Y increasing until it reaches ||a||_Y;
    * between consecutive levels b_i = a_i / c_i the saturated set
      {b_i <= lo} is fixed and phi(theta) = A - theta M +
      t (S + theta^p M)^(1/p), with S = sum_{b_i <= lo} (v_i a_i)^p and
      M = sum_{b_i > lo} u_i c_i = sum_{b_i > lo} (v_i c_i)^p: convex, and at
      p = inf affine;
    * so the minimum is at a level or at the stationary point
      theta^p = S / (t^p' - M), p' = p/(p-1), of the segment holding it
      (none when t^p' <= M: phi decreases on the whole segment).

    phi is evaluated at 0 and at every level as one batch of rows, then at
    the stationary points that lie inside their segments as a second batch.
    In exact arithmetic only the segment holding the minimiser has one, but
    near-equal levels can round the best level to the wrong side of it, so
    every segment's point is computed (as prefix and suffix sums) and kept
    if inside.  Every value comes from the spaces' own row functions ``nx``
    and ``ny``, and ``lower`` equals ``value``.  For p < inf the exponent
    1/(p-1) can spread c beyond the range of doubles (p near 1), so theta,
    c and the levels are carried as logarithms there.
    """
    def rows(Y):
        """(phi, ||x||_X, ||y||_Y) of the splits y = the rows of Y."""
        xs, ys = nx(a - Y), ny(Y)
        return xs + t * ys, xs, ys

    if p == 1.0:
        y = np.where(t * v < u, a, 0.0)
        (value,), (x_mass,), (y_mass,) = (z.tolist() for z in rows(y[None]))
        return KResult(t, value, value, x_mass, y_mass, 1, True, a - y)
    if math.isinf(p):
        c = 1.0 / v
        b, zero = a / c, 0.0

        def splits(thetas):
            return np.where(b <= thetas[:, None], a, np.minimum(a, thetas[:, None] * c))
    else:
        lc = (np.log(u) - p * np.log(v)) / (p - 1.0)
        with np.errstate(divide="ignore"):
            b, zero = np.log(a) - lc, -math.inf

        def splits(thetas):
            with np.errstate(over="ignore"):
                return np.where(b <= thetas[:, None], a,
                                np.minimum(a, np.exp(thetas[:, None] + lc)))
    levels = np.concatenate([[zero], np.unique(b[a > 0])])
    thetas = levels
    vals, xs, ys = (np.concatenate(z) for z in
                    zip(*(rows(splits(run)) for run in _runs(levels, a.size))))
    if p < math.inf:
        # S and M / t^p' of each segment [lo, hi): prefix and suffix sums in
        # the order of b over the entries saturated at lo (b <= lo) and the
        # rest; then log theta = (log S - p' log t - log(1 - M / t^p')) / p
        q = p / (p - 1.0)
        order = np.argsort(b, kind="stable")
        n_sat = np.searchsorted(b[order], levels[:-1], side="right")
        S = np.concatenate([[0.0], np.cumsum((v[order] * a[order]) ** p)])[n_sat]
        with np.errstate(over="ignore"):
            uc = np.exp(np.log(u) + lc - q * math.log(t))[order]
        d = 1.0 - np.concatenate([np.cumsum(uc[::-1])[::-1], [0.0]])[n_sat]
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = (np.log(S) - q * math.log(t) - np.log(d)) / p
        stat = stat[(d > 0.0) & (levels[:-1] < stat) & (stat < levels[1:])]
        if stat.size:
            thetas = np.concatenate([levels, stat])
            vals, xs, ys = (np.concatenate(z) for z in
                            zip((vals, xs, ys), rows(splits(stat))))
    k = int(np.argmin(vals))  # the first minimum: a level wins a tie
    y = splits(thetas[k:k + 1])[0]
    return KResult(t, float(vals[k]), float(vals[k]), float(xs[k]), float(ys[k]),
                   1, True, a - y)


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
        return _one(nx, np.maximum(a - lam, 0.0)) + t * lam

    levels = np.concatenate([[0.0], np.unique(a[a > 0])])
    vals = np.concatenate([nx(np.maximum(a - lams[:, None], 0.0)) + t * lams
                           for lams in _runs(levels, a.size)]).tolist()
    k = int(np.argmin(vals))
    best_lam, value = float(levels[k]), vals[k]
    i, j = max(k - 1, 0), min(k + 1, levels.size - 1)
    floor = 8.0 * np.finfo(float).eps * float(levels[-1])
    for lo, f_lo, c, fc, d, fd, hi, f_hi in _golden_steps(
            phi, float(levels[i]), vals[i], float(levels[j]), vals[j]):
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
            lip = max(t, _one(nx, np.where(a > lo, 1.0, 0.0)))
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
    split = np.maximum(a - best_lam, 0.0)
    # lower <= min phi <= value in exact arithmetic; the cap absorbs rounding
    return KResult(t, value, max(min(lower, value), 0.0), _one(nx, split), best_lam,
                   1, True, split)


def _trial_splits(a: np.ndarray, sequence_like: bool):
    """Blocks of trial decompositions as rows: the zero split, then for each
    level theta the flat part min(a, theta) and the peaks a - min(a, theta),
    then a, then (sequences) each prefix and suffix split."""
    yield np.zeros((1, a.size))
    for thetas in _runs(np.unique(a[a > 0]), 2 * a.size):
        flat = np.minimum(a, thetas[:, None])
        yield np.stack([flat, a - flat], axis=1).reshape(-1, a.size)
    yield a[None]
    if sequence_like and a.size > 1:
        below = np.arange(a.size) < np.arange(1, a.size)[:, None]  # row m-1: j < m
        yield np.stack([np.where(below, a, 0.0), np.where(below, 0.0, a)],
                       axis=1).reshape(-1, a.size)


def _convexity_gap(objective, c, a):
    """Box lower-bound gap from a numeric subgradient at the solution c (in
    the box): central differences along each coordinate with a > 0, whose
    probes are one batch of rows."""
    idx = np.flatnonzero(a > 0)
    ci, ai = c[idx], a[idx]
    h = np.maximum(ai * 1e-6, 1e-12)
    up, dn = np.minimum(ci + h, ai), np.maximum(ci - h, 0.0)
    probes = np.repeat(c[None], 2 * idx.size, axis=0)
    probes[np.arange(2 * idx.size), np.tile(idx, 2)] = np.concatenate([up, dn])
    g_up, g_dn = objective(probes).reshape(2, -1)
    g = (g_up - g_dn) / (up - dn)
    terms = np.where(g > 0, np.maximum(g * ci, 0.0), np.maximum(-g * (ai - ci), 0.0))
    return float(np.cumsum(terms)[-1])  # summed in coordinate order


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
