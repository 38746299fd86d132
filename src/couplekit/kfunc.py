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

Two routes, picked from the sides' weighted-lp forms (``_side``) alone:

1. The level path, ``_k_path``: K is a minimum over theta >= 0 of
   phi(theta) = ||a - y||_X + t ||y||_Y along the splits y = min(a, theta c),
   a = |f|, tried at 0 and at every level a / c (one batch of rows).
   Against an ell_1 side (form p = 1) and a weighted ell_p, 1 <= p <= inf,
   the KKT conditions put the best split on the path, closed-form
   stationary points finish the search, and ``lower`` equals ``value``.
   Against a weighted-ell_infty form (v, inf), c = 1/v and any other X has
   K = min phi(theta) = ||(a - theta c)_+||_X + t theta (Bennett-Sharpley,
   Interpolation of Operators, 1988).  For X of form (w, p), 1 < p < inf,
   the root of phi' on the one segment where it changes sign is exact, and
   ``lower`` equals ``value`` up to rounding; for other X golden-section
   steps (one row each) narrow the bracket around the best level, and for a
   normed X (phi convex) the chords through the best interior point bound
   phi from below on it, so ``lower`` is a true bound.  The other order of
   a couple is the same problem by K(t; X, Y) = t K(1/t; Y, X).
2. Other couples are minimized over the box 0 <= c <= |f| by cyclic
   coordinate descent (descending-|f| sweep order, golden-section line
   searches), cross-checked against the truncation family x = min(|f|, c)
   and, for sequence couples, all prefix/suffix splits (batches of rows).
   The reported value is the best decomposition found (an upper bound);
   ``lower`` there is only a numeric subgradient gap estimate, not a
   certified bound.

Norms are row functions of the spaces, ``norm_rows_on(f)`` (or E_X's
``norm_rows`` for a sequence): rows of values normed independently.  One
engine, ``_k_grid``, runs the two routes over a grid of t: the rows that
do not depend on t (the level scan, the trial splits) are normed once per
f, so a profile costs one scan plus the per-t steps, with each value
bit-identical to a one-point run (``k_numeric``).

An exponentially separated sequence couple (``rho_profile``,
``fit_separation``) has the block estimate ``k_block_estimate``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import HypothesisError, UsageError
from .fnspaces import StepFunction, star_integral
from .measure import SeqVec, Window, _Record
from .spaces import SeqSpaceSpec, _check_windows

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_CAP = 64
# entries in one batch of rows: longer scans are split into batches of
# 128 KB, small enough to stay in cache
_BATCH = 1 << 14


class KResult(_Record):
    _fields = ("t", "value", "lower", "x_mass", "y_mass", "sweeps", "converged", "split")
    _unshown = ("split",)

    def __init__(self, t: float,
                 value: float,    # best decomposition value (upper bound)
                 lower: float,    # lower bound (L1-type, weighted-ell_infty paths) or gap estimate
                 x_mass: float,   # ||x||_X at the best split
                 y_mass: float,   # ||y||_Y at the best split
                 sweeps: int, converged: bool, split: np.ndarray = None):
        self.t, self.value, self.lower, self.x_mass, self.y_mass = t, value, lower, x_mass, y_mass
        self.sweeps, self.converged, self.split = sweeps, converged, split


def _side(space, template):
    """(rows, form) of a space on the pieces/entries of template: rows maps V
    to the norm of each row of V, and form is (weights, p) when that norm is
    a weighted ell_p, else None."""
    if isinstance(template, StepFunction):
        if not hasattr(space, "norm_rows_on"):
            raise UsageError(f"{space.spec_string()} is a sequence space; a step "
                             f"function needs function spaces")
        return space.norm_rows_on(template, form=True)
    E = space.e_space(template.window)
    _check_windows("vector", template.window, E)
    return E.norm_rows, E.weighted_lp_form()


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
    """K(t, f; X, Y) over the reduced cone: the one-point case of ``_k_grid``.

    ``f`` is a StepFunction (X, Y function spaces) or a SeqVec (X, Y sequence
    spaces, or function spaces routed through their E_X); a non-finite value
    of f is a ``UsageError``.

    If one side is L1-type (a weighted ell_1) and the other a weighted ell_p,
    or one side has a weighted-ell_infty form (v, inf), K is ``_k_path`` and
    ``lower`` a certified lower bound (for (v, inf): ``value`` up to rounding
    for a weighted-ell_p X, else within tol * value for a normed X only;
    ``y_mass`` is the level lam, the y norm in exact arithmetic).  Other
    couples take cyclic coordinate descent, converged once a sweep improves
    by less than tol * value; the sweep cap leaves
    ``converged=False`` with the best value intact, ``lower`` a gap estimate.
    """
    return _k_grid([t], f, X, Y, tol)[0]


def _check_finite(name: str, v) -> None:
    """Reject a SeqVec or StepFunction with a non-finite value, naming the first."""
    vals = v.values if isinstance(v, SeqVec) else v.vals
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        where = (f"index {v.window.lo + i}" if isinstance(v, SeqVec)
                 else f"piece [{v.breakpoints[i]!r}, {v.breakpoints[i + 1]!r})")
        raise UsageError(f"{name} has a non-finite value {float(vals[i])!r} at {where}")


def _k_grid(ts, f, X, Y, tol: float = 1e-8) -> list[KResult]:
    """``k_numeric`` at each t of ts, from one scan of the rows that do not
    depend on t: the level rows of ``_k_path`` (p > 1) and the trial splits
    of descent are normed once for the whole grid.  Per t there remain the
    p = 1 row, the stationary points, the segment roots, the golden steps
    and the descent sweeps."""
    for t in ts:
        if not 0 < t < math.inf:
            raise UsageError(f"K-functional needs a finite t > 0; got {t!r}")
    sequence_like = isinstance(f, SeqVec)
    if sequence_like:
        a = np.abs(f.values)
    elif isinstance(f, StepFunction):
        a = np.abs(f.vals)
    else:
        raise UsageError("f must be a StepFunction or SeqVec")
    _check_finite("f", f)
    nx, form_x = _side(X, f)
    ny, form_y = _side(Y, f)

    if not a.any():  # a = |f| is finite here
        return [KResult(t, 0.0, 0.0, 0.0, 0.0, 0, True, a.copy()) for t in ts]
    inverse = [1.0 / t for t in ts]
    (u, p), (v, q) = form_x or (None, None), form_y or (None, None)
    if (p == 1.0 and q is not None) or q == math.inf:
        return _k_path(ts, a, form_x, v, q, nx, ny, tol)
    if (q == 1.0 and p is not None) or p == math.inf:
        return _swapped(ts, a, _k_path(inverse, a, form_y, u, p, ny, nx, tol))
    return _k_descent(ts, a, nx, ny, sequence_like, tol)


def _swapped(ts, a: np.ndarray, rs: list) -> list[KResult]:
    """K(t; X, Y) = t K(1/t; Y, X), from rs = K(1/t; Y, X) at each t of ts,
    the value capped at its split's cost, which t r.value can round above."""
    return [KResult(t, k, min(t * r.lower, k), r.y_mass, r.x_mass, r.sweeps, r.converged,
                    a - r.split)
            for t, r in zip(ts, rs) for k in [min(t * r.value, r.y_mass + t * r.x_mass)]]


def _k_path(ts, a: np.ndarray, x_form: tuple | None, v: np.ndarray, p: float,
            nx, ny, tol: float) -> list[KResult]:
    """K(t) exactly at each t of ts for X = ell_1 with weights u (x_form
    (u, 1)) and Y = ell_p with weights v, and for X of form (u, px),
    1 < px < inf, against Y = ell_infty with weights v (c = 1/v below); any
    other X against that Y takes ``_k_linf_at``'s golden steps per t.

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

    The levels do not depend on t: their rows (0 and every level) are normed
    once, as one batch, for all of ts.  Per t, phi is evaluated at the
    stationary points that lie inside their segments as a second batch.
    In exact arithmetic only the segment holding the minimiser has one, but
    near-equal levels can round the best level to the wrong side of it, so
    every segment's point is computed (as prefix and suffix sums) and kept
    if inside.  Every value but ||min(a, theta c)||_(v, inf) = theta is a row of
    ``nx`` or ``ny``, and with an ell_1 side ``lower`` equals ``value``.  For
    p < inf the exponent 1/(p-1) can spread c beyond the range of doubles
    (p near 1), so theta, c and the levels are carried as logarithms there.

    Against (v, inf) and X of form (W^(1/px), px), phi(lam) =
    ||(a - lam c)_+||_X + t lam is convex, phi'_+ = t - G with
    G = sum W c q^(px-1), q the row (a - lam c)_+ over its norm; per t, the
    first level with phi'_+ >= 0 closes the one segment where phi' changes
    sign, its roots (``_segment_root``) are one batch, and ``lower`` is where
    the tangents around the sign change cross.
    """
    u, px = x_form or (None, None)
    segment = px is not None and 1.0 < px < math.inf

    def rows(Y):
        """(||x||_X, ||y||_Y) of the splits y = the rows of Y."""
        return nx(a - Y), ny(Y)

    if p == 1.0:
        out = []
        for t in ts:
            y = np.where(t * v < u, a, 0.0)
            xs, ys = rows(y[None])
            (value,), (x_mass,), (y_mass,) = (z.tolist() for z in (xs + t * ys, xs, ys))
            out.append(KResult(t, value, value, x_mass, y_mass, 1, True, a - y))
        return out
    if math.isinf(p):
        c = 1.0 / v
        b, zero = a * v, 0.0  # as ``_wlp_norms`` scales: the top level is ||a||_(v, inf)

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
    # against ell_infty, ||min(a, theta c)|| = theta in exact arithmetic (0 or a level)
    level_xs, level_ys = (np.concatenate(z) for z in zip(*(
        (nx(a - splits(run)), run) if px != 1.0 else rows(splits(run))
        for run in _runs(levels, a.size))))
    if segment:
        W = u ** px

        def slopes(R):
            """G (see ``_segment_root``) at each row R = (a - lam c)_+ != 0."""
            q = R / R.max(axis=1, keepdims=True)
            return q ** (px - 1.0) @ (W * c) / (q ** px @ W) ** (1.0 - 1.0 / px)
        table = np.array([levels, level_xs, np.append(slopes(a - splits(levels[:-1])), 0.0)])
    if p < math.inf:
        # S and M / t^p' of each segment [lo, hi): prefix and suffix sums in
        # the order of b over the entries saturated at lo (b <= lo) and the
        # rest; then log theta = (log S - p' log t - log(1 - M / t^p')) / p
        q = p / (p - 1.0)
        order = np.argsort(b, kind="stable")
        n_sat = np.searchsorted(b[order], levels[:-1], side="right")
        S = np.concatenate([[0.0], np.cumsum((v[order] * a[order]) ** p)])[n_sat]
        with np.errstate(divide="ignore"):
            log_S = np.log(S)
        log_uc = np.log(u) + lc
    out = []
    for t in ts:
        thetas, xs, ys = levels, level_xs, level_ys
        if segment:
            thetas, xs, G = table
            m = int((t >= G).argmax())  # the first point with phi'_+ >= 0
            if 0 < m < levels.size - 1 and (
                    lams := _segment_root(t, a, b, c, W, px, *levels[m - 1:m + 1])).size:
                R = a - splits(lams)
                thetas, xs, G = np.concatenate(
                    [table[:, :m], [lams, nx(R), slopes(R)], table[:, m:]], axis=1)
                m = int((t >= G).argmax())
            ys = thetas
        elif px != 1.0:
            out.append(_k_linf_at(t, a, c, nx, tol, levels, (xs + t * ys).tolist()))
            continue
        vals = xs + t * ys
        if p < math.inf:
            with np.errstate(over="ignore"):
                uc = np.exp(log_uc - q * math.log(t))[order]
            d = 1.0 - np.concatenate([np.cumsum(uc[::-1])[::-1], [0.0]])[n_sat]
            with np.errstate(divide="ignore", invalid="ignore"):
                stat = (log_S - q * math.log(t) - np.log(d)) / p
            stat = stat[(d > 0.0) & (levels[:-1] < stat) & (stat < levels[1:])]
            if stat.size:
                sx, sy = rows(splits(stat))
                thetas = np.concatenate([levels, stat])
                vals, xs, ys = (np.concatenate(z) for z in
                                zip((vals, xs, ys), (sx + t * sy, sx, sy)))
        k = int(vals.argmin())  # the first minimum: a level wins a tie
        lower = vals[k]
        if segment and m:
            (fA, fB), (dA, dB), (A, B) = (z[m - 1:m + 1].tolist() for z in (vals, t - G, thetas))
            lower = min((dB * fA - dA * fB + dA * dB * (B - A)) / (dB - dA), lower)
        y = splits(thetas[k:k + 1])[0]
        out.append(KResult(t, float(vals[k]), max(float(lower), 0.0), float(xs[k]),
                           float(ys[k]), 1, True, a - y))
    return out


def _segment_root(t: float, a: np.ndarray, b: np.ndarray, c: np.ndarray, W: np.ndarray,
                  px: float, lo: float, hi: float) -> np.ndarray:
    """The roots found on (lo, hi) of phi' = t - G (see ``_k_path``) over the
    entries b > lo.  At px = 2, ||a - lam c||^2 = C (lam - beta)^2 + D, D a
    residual sum (no cancellation).  Otherwise safeguarded Newton steps, and
    both ends of the last bracket: px near 1 turns phi' within an ulp of hi."""
    on = b > lo
    # phi' is scale-free in a and lam: solve for lam / s, s a power of 2 near max a
    s = math.ldexp(1.0, math.frexp(a[on].max())[1] - 1)
    a, c, W, lo, hi = a[on] / s, c[on], W[on], lo / s, hi / s
    with np.errstate(divide="ignore", invalid="ignore"):
        if px == 2.0:
            C = W @ (c * c)
            beta = W @ (a * c) / C
            ends = np.array([beta - t * np.sqrt(W @ (a - beta * c) ** 2 / (C * (C - t * t)))])
        else:
            lam, left, right = 0.5 * (lo + hi), lo, hi
            for _ in range(100):
                q = (a - lam * c) / (N := (W @ (a - lam * c) ** px) ** (1.0 / px))
                G = W @ (c * q ** (px - 1.0))
                left, right = (lam, right) if G > t else (left, lam)
                # phi'' = (px - 1) (sum W c^2 q^(px-2) - G^2) / N
                step = lam + (G - t) * N / ((px - 1.0) * (W @ (c * c * q ** (px - 2.0)) - G * G))
                if step == lam:
                    break
                lam = step if left < step < right else 0.5 * (left + right)
                if not left < lam < right:  # left and right are adjacent floats
                    break
            ends = np.array([left, right])
        return s * ends[(lo < ends) & (ends < hi)]


def _k_linf_at(t: float, a: np.ndarray, scale, nx, tol: float, levels: np.ndarray,
               vals: list) -> KResult:
    """min of phi(lam) = nx((a - lam scale)_+) + t lam, scale = 1/v against
    max_i v_i |y_i|, from phi at 0 and at the levels v a.

    For a norm nx phi is convex (for a quasi-norm unproved: lower is then an
    estimate), with a minimiser between the neighbours of its best level;
    golden-section steps narrow that bracket until the chord bound certifies
    value - lower <= tol * value, or it is a few ulps wide (at most 71 steps
    from a width of at most the top level).  A bracket whose golden points
    round onto each other takes lower from phi's Lipschitz constant instead.
    """
    def phi(lam: float) -> float:
        return _one(nx, np.maximum(a - lam * scale, 0.0)) + t * lam

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
            # phi is max(t, ||scale 1_{a > lo scale}||_X)-Lipschitz on [lo, hi]
            lip = max(t, _one(nx, np.where(a > lo * scale, scale, 0.0)))
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
    split = np.maximum(a - best_lam * scale, 0.0)
    # lower <= min phi <= value in exact arithmetic; the cap absorbs rounding
    return KResult(t, value, max(min(lower, value), 0.0), _one(nx, split), best_lam,
                   1, True, split)


def _k_descent(ts, a: np.ndarray, nx, ny, sequence_like: bool,
               tol: float) -> list[KResult]:
    """Cyclic coordinate descent at each t of ts from the best trial split;
    the trial splits' norms do not depend on t and are taken once."""
    trials = [(nx(C), ny(a - C)) for C in _trial_splits(a, sequence_like)]
    order = np.argsort(-a, kind="stable")
    order = order[a[order] > 0]
    out = []
    for t in ts:
        best, best_v = (0, 0), math.inf  # the zero split leads the trials
        for block, (cx, cy) in enumerate(trials):
            vals = cx + t * cy
            k = int(np.argmin(vals))  # the first minimum, as a strict-< scan keeps
            if vals[k] < best_v:
                best, best_v = (block, k), float(vals[k])
        # the blocks are not kept: the winning one is built again
        block, k = best
        best_c = next(itertools.islice(_trial_splits(a, sequence_like), block, None))[k]
        out.append(_descend(t, a, nx, ny, best_c.copy(), best_v, order, tol))
    return out


def _descend(t: float, a: np.ndarray, nx, ny, best_c: np.ndarray, best_v: float,
             order: np.ndarray, tol: float) -> KResult:
    """Sweeps of golden line searches over the coordinates in ``order``,
    from the split best_c of value best_v."""
    def objective(C: np.ndarray) -> np.ndarray:
        """||c||_X + t ||a - c||_Y for each row c of C."""
        return nx(C) + t * ny(a - C)

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
        raise UsageError("oracle needs t > 0")
    return star_integral(f, t)


def rho_profile(E: SeqSpaceSpec, F: SeqSpaceSpec, window: Window) -> dict[int, float]:
    """rho(n) = ||e_n||_E / ||e_n||_F for n in the window, which must be E's
    and F's (``_check_windows``), from one ``unit_norms()`` each."""
    _check_windows("window", window, E, F)
    ue, uf = E.unit_norms().tolist(), F.unit_norms().tolist()
    return {n: a / b for n, a, b in zip(window.indices().tolist(), ue, uf)}


class SeparationFit(_Record):
    _fields = ("beta", "C0", "separated", "residuals", "rho")

    def __init__(self, beta: float, C0: float, separated: bool,
                 residuals: dict[int, float] | None = None, rho: dict[int, float] | None = None):
        self.beta, self.C0, self.separated = beta, C0, separated
        self.residuals = {} if residuals is None else residuals
        self.rho = {} if rho is None else rho


def fit_separation(rho: dict[int, float]) -> SeparationFit:
    """Exhaustive fit of rho(m+n) >= C0^{-1} 2^{n beta} rho(m) over the window.

    beta is the worst pairwise slope of log2 rho; C0 the smallest constant
    making the inequality hold for every pair at that beta.  separated
    means beta > 0.
    """
    ns = sorted(rho)
    if any(rho[n] <= 0 for n in ns):
        raise UsageError("rho must be strictly positive")
    lr = {n: math.log2(rho[n]) for n in ns}
    beta = math.inf
    per_gap: dict[int, float] = {}
    for i, m in enumerate(ns):
        for mp in ns[i + 1:]:
            gap = mp - m
            slope = (lr[mp] - lr[m]) / gap
            beta = min(beta, slope)
            per_gap[gap] = min(per_gap.get(gap, math.inf), slope)
    if not per_gap:
        return SeparationFit(0.0, 1.0, False, {}, dict(rho))
    worst = -math.inf
    for i, m in enumerate(ns):
        for mp in ns[i + 1:]:
            worst = max(worst, (mp - m) * beta - (lr[mp] - lr[m]))
    C0 = max(1.0, 2.0 ** worst)
    return SeparationFit(float(beta), float(C0), beta > 0.0, per_gap, dict(rho))


def _prefix_norms(v: np.ndarray, E: SeqSpaceSpec) -> np.ndarray:
    """||v_(-inf,a]||_E of the values v for a = lo-1 .. hi (index 0 is the empty
    prefix), from one ``norm_rows`` call on the lower-triangular prefix matrix."""
    prefixes = np.tril(np.broadcast_to(v, (v.size, v.size)))
    return np.concatenate([[0.0], E.norm_rows(prefixes)])


def _suffix_norms(v: np.ndarray, F: SeqSpaceSpec) -> np.ndarray:
    """||v_[a,inf)||_F of the values v for a = lo .. hi+1 (the last index is the
    empty suffix), from one ``norm_rows`` call on the upper-triangular suffix
    matrix."""
    suffixes = np.triu(np.broadcast_to(v, (v.size, v.size)))
    return np.concatenate([F.norm_rows(suffixes), [0.0]])


def k_block_estimate(t: float, x: SeqVec, E: SeqSpaceSpec, F: SeqSpaceSpec,
                     fit: SeparationFit) -> float:
    """Prefix/suffix split value ||x_(-inf,a]||_E + t ||x_(a,inf)||_F.

    For exponentially separated couples (``fit.separated`` must hold) the
    split at the index a with rho(a) <= t <= rho(a+1) is within a constant
    of K(t, x); below the rho range the bound is t ||x||_F, above it
    ||x||_E.  Each split is itself a decomposition, so the value always
    dominates K.  Among admissible indices the smallest split is returned.
    The splits are the rows ``_block_points`` names of the prefix and suffix
    norm tables (``_prefix_norms``, ``_suffix_norms``), one ``norm_rows``
    call per side.
    """
    if not 0 < t < math.inf:
        raise UsageError(f"block estimate needs a finite t > 0; got {t!r}")
    if not fit.separated:
        raise HypothesisError("couple is not exponentially separated")
    _check_windows("vector", x.window, E, F)
    js = _block_points(t, fit, x.window.lo, x.window.size)
    head = np.arange(x.window.size) < np.array(js)[:, None]  # row r: j < js[r]
    pre = E.norm_rows(np.where(head, x.values, 0.0)).tolist()
    suf = F.norm_rows(np.where(head, 0.0, x.values)).tolist()
    return min(p + t * q for p, q in zip(pre, suf))


def _block_points(t: float, fit: SeparationFit, lo: int, n: int) -> list[int]:
    """The splits ``k_block_estimate`` compares, as the indices j of the
    tables of ``_prefix_norms`` and ``_suffix_norms``: the split at a is
    pre[j] + t suf[j] with j = a + 1 - lo, clipped to 0 .. n.  Below the rho
    range j = 0 (t ||x||_F, as pre[0] = 0), above it j = n (||x||_E)."""
    rho = fit.rho
    if t < min(rho.values()):
        return [0]
    if t > max(rho.values()):
        return [n]
    ns = sorted(rho)
    cands = [a for a in ns[:-1] if rho[a] <= t <= rho[a + 1]]
    if not cands:  # wobble gap: fall back to the nearest-rho index
        cands = [min(ns[:-1], key=lambda a: abs(math.log(t) - math.log(rho[a])))]
    return [min(max(a + 1 - lo, 0), n) for a in cands]


def k_profile(f, X, Y, t_grid, tol: float = 1e-8):
    """Rows (t, K, x_mass, y_mass, lower, converged) along an increasing
    positive t grid; ``lower`` and ``converged`` are as in ``k_numeric``.

    One ``_k_grid`` call serves the whole grid, so the rows that do not
    depend on t (the level scan, the trial splits) are normed once."""
    ts = [float(t) for t in t_grid]
    if not all(0 < t < math.inf for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise UsageError("t grid must be finite, positive and increasing")
    return [
        {"t": r.t, "K": r.value, "x_mass": r.x_mass, "y_mass": r.y_mass,
         "lower": r.lower, "converged": r.converged}
        for r in _k_grid(ts, f, X, Y, tol)
    ]
