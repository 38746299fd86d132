"""Orlicz functions: generators, indices, oscillation counters, elasticity.

Every Orlicz function here is handled through its log-log profile

    h(u) = log F(e^u),

which is strictly increasing with h(u) - u nondecreasing (F(x)/x increasing).
Working with h avoids overflow entirely: the constructions below routinely
evaluate F at heights like exp(180000), which only ever exist as h-values.

The oscillation quantities all reduce to the window function

    omega(v) = h(v) - h(v - kappa),      kappa = log(1/x),

since F_t(x) = F(tx)/F(t) = exp(-omega(log t)).  Counters count disjoint
oscillations of omega by log C, regular-variation defect is the tail
oscillation of omega, and the bounded-witness w(t) is a maximum-profit
schedule of disjoint oscillation intervals.

These four analyses (``counter``, ``elasticity_report``, ``rv_defect``,
``w_witness``) share one input front end.  ``_log_grid`` turns a t-grid into
log t: a t that is not finite and positive, or a grid not strictly increasing
over at least 2 points, is a ValueError naming the argument.  ``_omega_table``
forms omega per x: an x outside (0, 1] or an overflowing h is a ValueError,
and h(v - kappa) is evaluated only where v - kappa is not a grid point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UsageError
from .measure import LOG2, _spec_num


# ---------------------------------------------------------------------------
# core representation
# ---------------------------------------------------------------------------


class OrliczFn:
    """Base class; subclasses provide the log-log profile h and its slope.

    ``log_eval_slope`` is the fused kernel: (h(u), h'(u)) equal to
    (``log_eval(u)``, ``slope(u)``) bit for bit; a subclass overrides it when
    the two share work.  ``curvature()`` answers (s_lo, s_hi, L), bounds on h'
    and a Lipschitz constant of h', where a smooth profile proves them
    (``MinimalFn``, ``LogFactorFn``), and None otherwise.
    """

    name = "orlicz"
    params: dict = {}
    sampled = False  # sampled from another profile (``regularize``): no spec names it
    # the u-range a profile was resampled on, past which its values are the
    # end slopes extrapolated rather than the profile it names; None if exact
    sampled_range = None

    def log_eval(self, u):
        """h(u) = log F(e^u), pointwise: ``log_eval(u)[idx]`` equals
        ``log_eval(u[idx])`` bit for bit for any index array idx, since a
        value never depends on the other points.  ``_omega_table`` reuses
        h at grid points on that contract."""
        raise NotImplementedError

    def slope(self, u):
        """d/du h(u); for piecewise-affine profiles the right-hand slope."""
        raise NotImplementedError

    def log_eval_slope(self, u):
        """(h(u), h'(u)) on the same points."""
        return self.log_eval(u), self.slope(u)

    def breaks(self):
        """Kink locations when h is piecewise affine, else None."""
        return None

    def curvature(self):
        """(s_lo, s_hi, L) with s_lo <= h' <= s_hi and h' L-Lipschitz on the
        whole line, or None when no such constants are stated (the default;
        piecewise-affine profiles, whose h' jumps at the kinks).  The
        Luxemburg solver reads it to stop Newton one step early, and the
        Orlicz row path to start near the root (``spaces._orlicz_rows``)."""
        return None

    # -- derived evaluations -------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        if np.any(pos):
            out[pos] = np.exp(self.log_eval(np.log(x[pos])))
        return out if out.shape else float(out)

    def deriv(self, x):
        """F'(x) = F(x) h'(log x) / x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        if np.any(pos):
            u = np.log(x[pos])
            h, s = self.log_eval_slope(u)
            out[pos] = np.exp(h - u) * s
        return out if out.shape else float(out)

    def log_inv(self, v):
        """Solve h(u) = v for u (vectorized bisection; h strictly increasing).

        Brackets by doubling, then bisects on ``log_eval`` for at most 100
        steps; it stops at a step that moves no bracket, as then no later
        step can (a step is a function of (lo, hi) alone).
        """
        v = np.atleast_1d(np.asarray(v, dtype=float))
        lo = np.full(v.shape, -1.0)
        hi = np.full(v.shape, 1.0)
        for _ in range(120):
            need = self.log_eval(hi) < v
            if not np.any(need):
                break
            hi[need] = hi[need] * 2.0 + 1.0
        for _ in range(120):
            need = self.log_eval(lo) > v
            if not np.any(need):
                break
            lo[need] = lo[need] * 2.0 - 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self.log_eval(mid) < v
            if np.array_equal(mid, np.where(below, lo, hi)):
                break  # the fixed point: no bracket moves
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out if out.shape != (1,) else float(out[0])

    def log_lambda(self, ns) -> np.ndarray:
        """log lambda_n = h^{-1}(-n log 2), F(lambda_n) = 2^{-n}, for integers n.

        Each level is solved once per generator, by one ``log_inv`` call for
        the levels not solved before.  ``log_inv`` is pointwise (a point's
        brackets depend on its own v alone), so a level is the same float
        whichever levels it is solved with.
        """
        ns = np.asarray(ns).tolist()
        memo = self.__dict__.setdefault("_log_lambda_memo", {})
        missing = sorted(set(ns) - memo.keys())
        if missing:
            us = self.log_inv(-np.array(missing, dtype=float) * LOG2)
            memo.update(zip(missing, np.atleast_1d(us).tolist()))
        return np.array([memo[n] for n in ns], dtype=float)

    def inv(self, y):
        """F^{-1}(y) for y > 0."""
        return np.exp(self.log_inv(np.log(y)))

    def log_ft(self, log_t, log_x):
        """log F_t(x) with the quotient convention F_t(x) = F(tx)/F(t)."""
        return self.log_eval(log_t + log_x) - self.log_eval(log_t)

    def spec_string(self) -> str:
        if self.sampled:
            raise UsageError(f"{self.name} is a sampled profile; no spec names it")
        # a ":F"/":G" selector in the name goes after the arguments, as the
        # DSL reads it ("brudnyi:F" with p, q -> "brudnyi:p=1.5,q=3:F")
        name, sel = self.name, ""
        if name[-2:] in (":F", ":G"):
            name, sel = name[:-2], name[-2:]
        if not self.params:
            return name + sel
        args = ",".join(f"{k}={_spec_num(v)}" for k, v in self.params.items())
        return f"{name}:{args}{sel}"

    def __repr__(self):
        return f"<OrliczFn {self.name if self.sampled else self.spec_string()}>"


class PiecewiseAffineFn(OrliczFn):
    """h given by anchors (u_i, h_i) with slope s_i on [u_i, u_{i+1}).

    Below u_0 the profile continues with ``slope_below``; past the last
    anchor with s_{-1}.  All generators with exactly representable profiles
    (powers, the oscillating examples, the counterexample pair) reduce to
    this class, as do grid-sampled profiles (uniform step <= 1/8).
    """

    def __init__(self, name, params, anchors_u, anchors_h, slopes, slope_below):
        self.name = name
        self.params = dict(params)
        self._u = np.asarray(anchors_u, dtype=float)
        self._h = np.asarray(anchors_h, dtype=float)
        self._s = np.asarray(slopes, dtype=float)
        self._s_below = float(slope_below)
        if self._u.ndim != 1 or self._u.size == 0 or np.any(np.diff(self._u) <= 0):
            raise ValueError("anchors must be strictly increasing")
        if self._s.shape != self._u.shape:
            raise ValueError("one slope per anchor (last one extends to +inf)")
        if self._s_below < 1.0 - 1e-12 or np.any(self._s < 1.0 - 1e-12):
            raise ValueError("profile slope must stay >= 1 (F(x)/x increasing)")
        # segment k = searchsorted(u, x, "right"): k = 0 is the tail below u_0,
        # k >= 1 the segment starting at anchor k - 1; _u, _h, _s become views
        self._seg_u = np.concatenate([self._u[:1], self._u])
        self._seg_h = np.concatenate([self._h[:1], self._h])
        self._seg_s = np.concatenate([[self._s_below], self._s])
        self._u, self._h, self._s = self._seg_u[1:], self._seg_h[1:], self._seg_s[1:]

    def log_eval(self, u):
        u = np.asarray(u, dtype=float)
        k = np.searchsorted(self._u, u, side="right")
        return self._seg_h[k] + (u - self._seg_u[k]) * self._seg_s[k]

    def slope(self, u):
        return self._seg_s[np.searchsorted(self._u, u, side="right")]

    def log_eval_slope(self, u):
        u = np.asarray(u, dtype=float)
        k = np.searchsorted(self._u, u, side="right")
        s = self._seg_s[k]
        return self._seg_h[k] + (u - self._seg_u[k]) * s, s

    def log_inv(self, v):
        """Closed form: the segment is found by height (h is increasing)."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        k = np.searchsorted(self._h, v, side="right")
        out = self._seg_u[k] + (v - self._seg_h[k]) / self._seg_s[k]
        return out if out.shape != (1,) else float(out[0])

    def breaks(self):
        return self._u.copy()

    @staticmethod
    def from_samples(name, params, u_grid, h_vals, slope_below=None):
        u = np.asarray(u_grid, dtype=float)
        h = np.asarray(h_vals, dtype=float)
        slopes = np.diff(h) / np.diff(u)
        slopes = np.append(slopes, slopes[-1])
        if slope_below is None:
            slope_below = slopes[0]
        return PiecewiseAffineFn(name, params, u, h, slopes, slope_below)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def power(p: float) -> OrliczFn:
    """F(x) = x^p."""
    if p < 1:
        raise ValueError("power generator needs p >= 1")
    return PiecewiseAffineFn("power", {"p": p}, [0.0], [0.0], [p], p)


def pwpower(p0: float, p1: float) -> OrliczFn:
    """F(x) = x^p0 for x <= 1, x^p1 for x >= 1 (needs 1 <= p0 <= p1 for convexity)."""
    if not (1 <= p0 <= p1):
        raise ValueError("pwpower needs 1 <= p0 <= p1")
    return PiecewiseAffineFn("pwpower", {"p0": p0, "p1": p1}, [0.0], [0.0], [p1], p0)


class LogFactorFn(OrliczFn):
    """F(x) = x^p log(e + x); h(u) = p u + log(logaddexp(1, u))."""

    def __init__(self, p: float):
        if p < 1:
            raise ValueError("logfactor generator needs p >= 1")
        self.name = "logfactor"
        self.params = {"p": p}
        self.p = float(p)

    def log_eval(self, u):
        u = np.asarray(u, dtype=float)
        return self.p * u + np.log(np.logaddexp(1.0, u))

    def curvature(self):
        # with g = log(e + e^u) >= 1 and sig = e^u / (e + e^u), h' = p + sig/g
        # and h'' = sig (1 - sig) / g - (sig/g)^2.  In y = g - 1 >= 0,
        # sig/g = (1 - e^-y) / (1 + y), whose maximum e^-y* (e^y* = 2 + y*,
        # y* = 1.14619...) is 0.317844...; so h' lies in [p, p + 0.3179] and
        # |h''| <= max(1/4, 0.3179^2) = 1/4
        return self.p, self.p + 0.3179, 0.25

    def slope(self, u):
        u = np.asarray(u, dtype=float)
        inner = np.logaddexp(1.0, u)
        sig = np.exp(u - inner)  # e^u / (e + e^u)
        return self.p + sig / inner


def default_xi(n):
    """xi_n = 1 / log log(n + 16): monotone to 0, slow enough to defeat elasticity."""
    n = np.asarray(n, dtype=float)
    return 1.0 / np.log(np.log(n + 16.0))


def example1(xi=None, n_blocks: int = 40) -> OrliczFn:
    """Regularly varying, inelastic: slope 2 + (-1)^n xi_n on u in (2^(n-1), 2^n].

    h(u) = 2u for u <= 1; raw profile (F(x)/x increasing but F has concave
    kinks), convexified on demand via ``convexify``.
    """
    xi_fn = xi if xi is not None else default_xi
    ns = np.arange(1, n_blocks + 1)
    xis = np.asarray(xi_fn(ns), dtype=float)
    if np.any(xis <= 0) or np.any(xis > 1):
        raise ValueError("xi schedule must take values in (0, 1]")
    if np.any(np.diff(xis) > 1e-15):
        raise ValueError("xi schedule must be nonincreasing")
    anchors = [1.0]
    hvals = [2.0]
    slopes = []
    h = 2.0
    for n, xi_n in zip(ns, xis):
        s = 2.0 + (-1.0) ** n * xi_n
        slopes.append(s)
        length = 2.0 ** n - 2.0 ** (n - 1)
        h += s * length
        anchors.append(2.0 ** n)
        hvals.append(h)
    slopes.append(2.0)  # beyond the last block
    return PiecewiseAffineFn("example1", {}, anchors, hvals, slopes, 2.0)


def default_psi(t):
    """psi(t) = 1/log log log(t + e^(e^e)): decays below every O(1/log log u)."""
    t = np.asarray(t, dtype=float)
    t0 = math.exp(math.exp(math.e))
    return 1.0 / np.log(np.log(np.log(t + t0)))


def elastic_non_lorentz(psi=None, u_max: float = 4096.0, step: float = 0.125) -> OrliczFn:
    """Elastic but non-Lorentz: slope 2 + psi(u) with psi decreasing to 0.

    The profile is concave (phi decreasing), which makes F elastic; psi
    decays too slowly for the Lorentz criterion.  Sampled on a uniform
    u-grid (trapezoid-exact per cell since the stored profile is the
    piecewise-linear interpolant).
    """
    psi_fn = psi if psi is not None else default_psi
    grid = np.arange(0.0, u_max + step, step)
    phi = 2.0 + np.asarray(psi_fn(grid), dtype=float)
    if np.any(np.diff(phi) > 1e-15):
        raise ValueError("psi must be nonincreasing")
    if np.any(phi - 2.0 > 1.0 + 1e-12):
        raise ValueError("psi must be bounded by one")
    h = np.concatenate([[0.0], np.cumsum(0.5 * (phi[1:] + phi[:-1]) * np.diff(grid))])
    return PiecewiseAffineFn.from_samples("elastic-nl", {}, grid, h, slope_below=2.0)


def brudnyi_schedule(u_cap: float = 2.0 ** 23):
    """Breakpoint schedule a_n, b_n = 2^n a_n, c_n = 4 b_n, d_n = c_n + 2n."""
    rows = []
    a = 1.0
    n = 1
    while a <= u_cap:
        b = 2.0 ** n * a
        c = 4.0 * b
        d = c + 2.0 * n
        rows.append((n, a, b, c, d))
        a = 4.0 * d
        n += 1
    return rows


def brudnyi_pair(p: float, q: float, u_cap: float = 2.0 ** 23):
    """Counterexample pair (F, G) with matching indices p and q.

    r = (p+q)/2, alpha = p-1, beta = q-r.  F(x) = x^r exp(psi(log x)) where
    psi climbs with slope beta on [c_n, c_n+n] and falls back on [c_n+n, d_n];
    G multiplies in exp(phi(log x)) with triangular bumps of slope alpha on
    [a_n, b_n].  The phi and psi supports are disjoint by the schedule.
    """
    if not (q > p > 1):
        raise ValueError("brudnyi pair needs q > p > 1")
    r = 0.5 * (p + q)
    alpha = p - 1.0
    beta = q - r
    sched = brudnyi_schedule(u_cap)

    def build(with_phi: bool, which: str) -> OrliczFn:
        kinks = [0.0]
        for n, a, b, c, d in sched:
            if with_phi:
                kinks.extend([a, 0.5 * (a + b), b])
            kinks.extend([c, c + n, d])
        kinks = sorted(set(kinks))
        slopes = []
        for u in kinks:
            s = r
            for n, a, b, c, d in sched:
                if with_phi and a <= u < 0.5 * (a + b):
                    s += alpha
                elif with_phi and 0.5 * (a + b) <= u < b:
                    s -= alpha
                if c <= u < c + n:
                    s += beta
                elif c + n <= u < d:
                    s -= beta
            slopes.append(s)
        hvals = [0.0]
        for (u0, u1), s in zip(zip(kinks[:-1], kinks[1:]), slopes[:-1]):
            hvals.append(hvals[-1] + s * (u1 - u0))
        params = {"p": p, "q": q}
        return PiecewiseAffineFn(f"brudnyi:{which}", params, kinks, hvals, slopes, r)

    return build(False, "F"), build(True, "G")


# MinimalFn sums the terms of its series one by one while |theta_n| >= 2^-8,
# theta_n = 2 pi u / 2^n, and the rest, a geometric tail in theta = theta_M
# (|theta| < 2^-8, x = theta^2, f = 2 pi / 2^M), in closed form by the series
#   sum_{j>=0} (1 - cos(theta / 2^j)) = x (c_1 + c_2 x),
#   sum_{j>=0} (f / 2^j) sin(theta / 2^j) = f theta (s_0 + x (s_1 + s_2 x)),
# whose first omitted terms are below 1e-17
_C1, _C2 = ((-1) ** (k + 1) / (math.factorial(2 * k) * (1 - 4.0 ** -k)) for k in (1, 2))
_S0, _S1, _S2 = ((-1) ** k / (math.factorial(2 * k + 1) * (1 - 4.0 ** -(k + 1)))
                 for k in range(3))
# n and 2 pi / 2^n for every n a double's exponent can call for, n decreasing
_TERM_N = np.arange(1100)[::-1]
_TERM_FREQ = 2.0 * math.pi * np.ldexp(1.0, -_TERM_N)


def _sum_terms(terms):
    """Each point's terms summed in order along axis 0, as cumsum's last row.
    add.reduce keeps that order unless a row holds one point: it then sums
    pairwise, so one point goes through cumsum."""
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.cumsum(terms, axis=0)[-1]


class MinimalFn(OrliczFn):
    """F(x) = x^2 exp(alpha sum_n (1 - cos(2 pi log x / 2^n))), n >= 0.

    Summed per point u = log x as the comment at ``_C1`` says, to within
    1e-17 where a truncated series would leave up to 1e-12, from the tail up
    to n = 0: a value does not depend on the other points of the array.
    Needs alpha <= 1/(4 pi) to keep h' >= 1.
    """

    def __init__(self, alpha: float = 0.05):
        if not (0 < alpha <= 1.0 / (4.0 * math.pi)):
            raise ValueError("minimal generator needs 0 < alpha <= 1/(4 pi)")
        self.name = "minimal"
        self.params = {"alpha": alpha}
        self.alpha = float(alpha)

    @staticmethod
    def _terms(u):
        """2 pi / 2^n for n = N-1 .. 0 along a new first axis, 1.0 at the terms
        each point sums one by one (n < M(u)) and 0.0 elsewhere, and
        f = 2 pi / 2^M(u); N = max M."""
        M = np.maximum(np.frexp(2.0 * math.pi * u)[1] + 8, 0)
        first = _TERM_N.size - int(M.max(initial=0))
        shape = (-1,) + (1,) * u.ndim
        return (_TERM_FREQ[first:].reshape(shape),
                (_TERM_N[first:].reshape(shape) < M).astype(float),
                np.ldexp(2.0 * math.pi, -M))

    def _series(self, u, value=True, slope=True):
        """(h(u), h'(u)), None for the one not asked for: one terms table
        serves both series, and the phase u 2 pi / 2^n is an array of its own
        only when both read it (else it is formed in the table's rows)."""
        u = np.asarray(u, dtype=float)
        freq, keep, f = self._terms(u)
        theta = u * f
        terms = np.empty((keep.shape[0] + 1,) + u.shape)
        rest = terms[1:]
        phase = u * freq if value and slope else np.multiply(u, freq, out=rest)
        h = s = None
        if value:
            x = theta ** 2  # C pow for a 0-d u, which can differ from theta * theta
            terms[0] = x * (_C1 + _C2 * x)
            np.subtract(1.0, np.cos(phase, out=rest), out=rest)
            rest *= keep
            h = 2.0 * u + self.alpha * _sum_terms(terms)
        if slope:
            x = theta * theta
            terms[0] = f * theta * (_S0 + x * (_S1 + _S2 * x))
            np.multiply(freq, np.sin(phase, out=rest), out=rest)
            rest *= keep
            s = 2.0 + self.alpha * _sum_terms(terms)
        return h, s

    def curvature(self):
        # h' = 2 + alpha sum_n (2 pi / 2^n) sin(2 pi u / 2^n) and h'' its
        # derivative, bounded termwise by alpha sum (2 pi / 2^n)^k, n >= 0:
        # 4 pi alpha for h' - 2 and (16 pi^2 / 3) alpha for h'' (attained at u = 0)
        a = self.alpha
        return 2.0 - 4.0 * math.pi * a, 2.0 + 4.0 * math.pi * a, 16.0 * math.pi ** 2 / 3.0 * a

    def log_eval(self, u):
        return self._series(u, slope=False)[0]

    def slope(self, u):
        return self._series(u, value=False)[1]

    def log_eval_slope(self, u):
        return self._series(u)


class ConvexifiedFn(OrliczFn):
    """F1(x) = int_0^x F(t)/t dt, exact per affine segment of the base profile.

    With h affine of slope s on a segment, int e^h du has the closed form
    e^h/s evaluated at the ends; the lower tail below the first anchor
    contributes e^(h_0)/s_below.  Cumulative sums are kept in log space.
    F1 is convex, F1 <= F, and F(x) <= F1(2x)/log 2.  A base without breaks
    is resampled by ``sample_profile``, and ``sampled_range`` records the
    u-range of that sample: past it the end slopes are extrapolated and the
    sandwich fails.  Every slope must be >= 1 (F(x)/x nondecreasing).
    """

    def __init__(self, base: OrliczFn):
        seg = base if base.breaks() is not None else sample_profile(base)
        self.base = seg
        if seg is not base:
            self.sampled_range = float(seg._u[0]), float(seg._u[-1])
        # the whole spec of the base in the name, so the spec string reparses
        self.sampled = base.sampled
        self.name = f"convexify<{base.name if base.sampled else base.spec_string()}>"
        self.params = {}
        u, h, s = seg._u, seg._h, seg._s
        if seg._s_below < 1.0 - 1e-12 or np.any(s < 1.0 - 1e-12):
            raise ValueError("convexify requires F(x)/x nondecreasing (slopes >= 1)")
        # log integral over (-inf, u_0]
        cum = h[0] - math.log(seg._s_below)
        cums = [cum]
        for i in range(len(u) - 1):
            L = u[i + 1] - u[i]
            sl = s[i]
            # log of e^{h_i} (e^{sl L} - 1)/sl
            piece = h[i] + sl * L + np.log1p(-math.exp(-sl * L)) - math.log(sl)
            cum = np.logaddexp(cum, piece)
            cums.append(cum)
        self._cums = np.asarray(cums)

    def log_eval(self, u):
        u = np.asarray(u, dtype=float)
        base = self.base
        idx = np.searchsorted(base._u, u, side="right") - 1
        out = np.empty_like(u)
        below = idx < 0
        if np.any(below):
            # pure tail: integral up to u with slope s_below
            out[below] = base.log_eval(u[below]) - math.log(base._s_below)
        inside = ~below
        if np.any(inside):
            i = idx[inside]
            du = u[inside] - base._u[i]
            sl = base._s[i]
            with np.errstate(divide="ignore"):
                partial = np.where(
                    du > 0,
                    base._h[i] + sl * du + np.log1p(-np.exp(-sl * np.maximum(du, 1e-300)))
                    - np.log(sl),
                    -np.inf,
                )
            out[inside] = np.logaddexp(self._cums[i], partial)
        return out

    def slope(self, u):
        # h1'(u) = F(e^u)/F1(e^u)
        return self.log_eval_slope(u)[1]

    def log_eval_slope(self, u):
        h1 = self.log_eval(u)
        return h1, np.exp(self.base.log_eval(u) - h1)

    def deriv(self, x):
        # F1'(x) = F(x)/x exactly, by construction
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        if np.any(pos):
            u = np.log(x[pos])
            out[pos] = np.exp(self.base.log_eval(u) - u)
        return out if out.shape else float(out)


def sample_profile(base: OrliczFn, u_lo: float = -64.0, u_hi: float = 2048.0,
                   step: float = 0.125) -> PiecewiseAffineFn:
    """Piecewise-affine resampling of a smooth profile (uniform step <= 1/8)."""
    if step > 0.125 + 1e-12:
        raise ValueError("grid step must be <= 1/8")
    grid = np.arange(u_lo, u_hi + step, step)
    out = PiecewiseAffineFn.from_samples(f"grid<{base.name}>", dict(base.params),
                                         grid, base.log_eval(grid))
    out.sampled = True
    return out


def convexify(F: OrliczFn) -> ConvexifiedFn:
    """F1(x) = int_0^x F(t)/t dt; rejects profiles with a slope below 1."""
    return ConvexifiedFn(F)


def logfactor_fn(p: float) -> OrliczFn:
    return LogFactorFn(p)


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


@dataclass
class IndexReport:
    alpha_inf: float
    beta_inf: float
    alpha_0: float
    beta_0: float
    delta2: float
    err_inf: float
    err_0: float

    @property
    def boyd_unit(self):
        """Boyd indices of L_F[0,1]: (p_F, q_F) = (alpha_inf, beta_inf)."""
        return (self.alpha_inf, self.beta_inf)

    @property
    def boyd_halfline(self):
        return (min(self.alpha_inf, self.alpha_0), max(self.beta_inf, self.beta_0))

    def to_json_dict(self):
        return {**asdict(self), "boyd_unit": list(self.boyd_unit),
                "boyd_halfline": list(self.boyd_halfline)}


def _index_points(F: OrliczFn, grid: np.ndarray, sign: int) -> np.ndarray:
    """Window end points on one side of 0: the grid, 0 and the breakpoints.

    sign=+1 keeps [0, inf) (indices at infinity: t >= 1 and s t >= 1);
    sign=-1 keeps (-inf, 0].
    """
    br = F.breaks()
    pts = np.unique(np.concatenate([grid, [0.0], br if br is not None else []]))
    return pts[pts >= 0.0] if sign > 0 else pts[pts <= 0.0]


_BAND_BLOCK = 1 << 14  # pairs per block: bounds the band scan's temporaries


def _chord_slope_range(v: np.ndarray, h: np.ndarray, y: float) -> tuple[float, float]:
    """Min and max of (h_j - h_i)/(v_j - v_i) over pairs with v_j - v_i >= y.

    ``v`` is increasing; e_j counts the i with v_j - v_i >= y.  If
    v_k - v_i >= y and v_j - v_k >= y, slope(i, j) is a convex combination
    of slope(i, k) and slope(k, j), so the extremes are reached on the
    irreducible band i in [e_{e_j - 1}, e_j): about n (y/spacing + 1) pairs,
    scanned in blocks of ``_BAND_BLOCK``.  A reducible chord at j exceeds
    the minimum m* by at least (y / (v_j - v_0)) (band_j - m*), so it can
    round below the band's minimum only if band_j lies within slack * amp_j
    of it: amp_j = 2 + 2 (v_j - v_0) / y, and slack = 4u max(|min|, |max|)
    bounds one slope's rounding (u the unit roundoff).  Those j are
    rescanned against all of [0, e_j), the maximum likewise, so the result
    is a full pair table's, bit for bit; at worst (h affine, every j a
    candidate) the rescan costs candidates * n slopes.
    """
    n = v.size
    # e_j by the pair table's own test: fix up where v_j - y rounds past a point
    e = np.searchsorted(v, v - y, side="right")
    while np.any(fix := (e > 0) & (v - v[e - 1] < y)):
        e[fix] -= 1
    while np.any(fix := (e < n) & (v - v[np.minimum(e, n - 1)] >= y)):
        e[fix] += 1
    if not e[-1]:
        raise ValueError("index points span less than the boundary layer y_layer")
    j = np.flatnonzero(e)
    end = e[j]
    lo_j, hi_j = _row_slope_extremes(v, h, j, e[end - 1], end)
    lo, hi = float(np.min(lo_j)), float(np.max(hi_j))
    slack = 2.0 * np.finfo(float).eps * max(abs(lo), abs(hi))  # 4u
    amp = 2.0 + 2.0 * (v[j] - v[0]) / y
    near = (lo_j <= lo + slack * amp) | (hi_j >= hi - slack * amp)
    lo_j, hi_j = _row_slope_extremes(v, h, j[near], np.zeros_like(end[near]), end[near])
    # no candidate only where a slope is nan (h overflowed): the nan stands
    return (min(lo, float(np.min(lo_j, initial=np.inf))),
            max(hi, float(np.max(hi_j, initial=-np.inf))))


def _row_slope_extremes(v, h, j, first, end):
    """Min and max of (h_j - h_i)/(v_j - v_i) over i in [first, end) for each
    row j (first < end), from blocks of at most ``_BAND_BLOCK`` pairs."""
    off = np.concatenate([[0], np.cumsum(end - first)])
    base, hj, vj = first - off[:-1], h[j], v[j]
    lo_j, hi_j = np.full(j.size, np.inf), np.full(j.size, -np.inf)
    for p in range(0, int(off[-1]), _BAND_BLOCK):
        q = min(p + _BAND_BLOCK, int(off[-1]))
        # the rows j[a:b] meet the block [p, q) of the flattened pairs
        a, b = np.searchsorted(off, p, "right") - 1, np.searchsorted(off, q)
        cut = np.maximum(off[a:b], p)
        m = np.minimum(off[a + 1:b + 1], q) - cut
        i = np.repeat(base[a:b], m) + np.arange(p, q)
        s = (np.repeat(hj[a:b], m) - h[i]) / (np.repeat(vj[a:b], m) - v[i])
        lo_j[a:b] = np.minimum(lo_j[a:b], np.minimum.reduceat(s, cut - p))
        hi_j[a:b] = np.maximum(hi_j[a:b], np.maximum.reduceat(s, cut - p))
    return lo_j, hi_j


def _finite_profile(F: OrliczFn, pts: np.ndarray) -> np.ndarray:
    """h = log F on the monotone points pts; a ValueError when it overflows
    (h is convex: finite at both ends means finite throughout)."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        h = F.log_eval(pts)
    if h.size and not (math.isfinite(h[0]) and math.isfinite(h[-1])):
        raise ValueError(f"{F.spec_string()}: log F is not finite on "
                         f"[{pts[0]:g}, {pts[-1]:g}]; its profile overflows")
    return h


def indices(F: OrliczFn, t_grid=None, x_grid=None, y_layer: float = 1.5) -> IndexReport:
    """Matuszewska-Orlicz indices from window-slope extremes of h.

    F(st) <= C s^p F(t) over the large-argument regime (t >= 1 and st >= 1)
    pins alpha_inf as the infimum of window slopes (h(v) - h(v'))/(v - v')
    over windows [v', v] in [0, inf); beta_inf is the supremum, and the
    0-indices use windows in (-inf, 0].  Windows shorter than ``y_layer``
    are the discarded boundary layer absorbing the constant C.  Breakpoints
    of piecewise-affine profiles are added to the grid so sustained slopes
    are measured exactly.  The extremes come from the band scan
    ``_chord_slope_range``.
    """
    if y_layer <= 0:
        raise ValueError("boundary layer y_layer must be positive")
    if t_grid is None:
        t_grid = np.exp(np.linspace(0.0, 64.0, 257))
    v_grid = np.log(_positive(t_grid, "t_grid"))
    if x_grid is not None:
        ys = -np.log(_positive(x_grid, "x_grid", "x"))
        v_grid = np.unique(np.concatenate([v_grid, v_grid[-1] - ys]))

    ranges = []
    for pts in (_index_points(F, v_grid, +1), _index_points(F, -v_grid, -1)):
        h = _finite_profile(F, pts)
        ranges.append(_chord_slope_range(pts, h, y_layer))
    (a_inf, b_inf), (a_0, b_0) = ranges

    span = float(np.max(v_grid) - np.min(v_grid[v_grid >= 0])) if v_grid.size else 1.0
    err_inf = (b_inf - a_inf) * y_layer / max(span, y_layer)
    err_0 = (b_0 - a_0) * y_layer / max(span, y_layer)

    u_d2 = np.concatenate([v_grid, -v_grid])
    br = F.breaks()
    if br is not None:
        u_d2 = np.concatenate([u_d2, br, br - LOG2 / 2])
    d2 = float(np.exp(np.max(F.log_eval(u_d2 + LOG2) - F.log_eval(u_d2))))
    return IndexReport(a_inf, b_inf, a_0, b_0, d2, err_inf, err_0)


# ---------------------------------------------------------------------------
# lambda sequence and regular variation
# ---------------------------------------------------------------------------


def lambda_seq(F: OrliczFn, window) -> dict[int, float]:
    """lambda_n with F(lambda_n) = 2^{-n} for n in the window (n <= 0).

    Strictly decreasing in n with lambda_{n-1} <= 2 lambda_n (convexity /
    slope >= 1 of the profile).
    """
    ns = window.indices()
    if np.any(ns > 0):
        raise ValueError("lambda sequence lives on nonpositive indices")
    return {int(n): math.exp(u) for n, u in zip(ns, F.log_lambda(ns).tolist())}


def log_dilation(F: OrliczFn, c: float, v_max: float) -> float | None:
    """The least log d with e^c F(y / d) <= F(y) for all 0 < y <= e^v_max,
    widened for rounding: sup over v <= v_max of phi(v) = v - h^{-1}(h(v) - c)
    (Krasnosel'skii-Rutickii, section 13).  None unless h is piecewise affine.

    phi is then piecewise affine too, with kinks at the anchors u_j and at
    their preimages h^{-1}(h_j + c), and constant c / s_below in the tail
    below both; so the sup is the largest of its values there and at v_max.
    Only the anchors up to the highest point phi reads, max(v_max,
    h^{-1}(h(v_max) - c)), matter.  Computed values are widened by
    16 u_r (2 + max s / min s) times the largest magnitude involved, over
    the slopes there: |phi'| <= 1 + max s / min s bounds what a rounded kink
    location moves phi by, u_r the unit roundoff.
    """
    u = F.breaks()
    if u is None:
        return None
    top = max(v_max, F.log_inv(F.log_eval(v_max) - c)) if c < 0 else v_max
    u = u[u <= top]
    h = F.log_eval(u)
    s = np.append(F.slope(u), F.slope(-math.inf))
    v = np.concatenate([u, np.atleast_1d(F.log_inv(h + c)), [v_max]])
    v = v[v <= v_max]
    hv = F.log_eval(v)
    g = np.atleast_1d(F.log_inv(hv - c))
    sup = max(float(np.max(v - g)), c / float(s[-1]))
    size = max(abs(c), *(float(np.max(np.abs(a))) for a in (v, hv, g)))
    u_r = np.finfo(float).eps / 2
    return sup + 16.0 * u_r * (2.0 + float(np.max(s) / np.min(s))) * size + 4.0 * u_r


def rv_defect(F: OrliczFn, x_grid, t_range) -> float:
    """max_x (sup_tail F_t(x)) / (inf_tail F_t(x)), tail = upper half of t_range.

    A defect near 1 signals regular variation; the quantity equals
    exp(osc of omega over the tail).
    """
    v = _log_grid(t_range, "t_range")
    if v.size < 64:
        raise ValueError("t_range needs at least 64 points")
    worst = 1.0
    for omega in _omega_table(F, v[v.size // 2:], x_grid):
        worst = max(worst, float(np.exp(np.max(omega) - np.min(omega))))
    return worst


def regularize(F: OrliczFn, p: float, grid, y_cap: float = None,
               c_limit: float = 3.0):
    """Smooth F to a regularly-varying-order-p profile by window averaging.

    Checks the uniform deviation |h(v) - h(v-y) - p y| <= c on the tail of
    the grid first (error with the witnessing (x, y) if it exceeds
    ``c_limit``); then builds u(v) as the largest admissible window length
    capped to slope 1, averages h(s) + p(v - s) over [v - u, v], and
    convexifies the result.  |h - g| stays bounded by the measured c.
    """
    base = F if F.breaks() is not None else sample_profile(F)
    grid = TGrid(grid).log  # the grid holds v = log x
    if grid.size < 8:
        raise ValueError("regularize needs a grid of at least 8 points")
    if y_cap is None:
        y_cap = (grid[-1] - grid[0]) / 4.0
    ys = np.linspace(0.0, y_cap, 65)[1:]
    dev_all = np.abs(base.log_eval(grid[:, None]) -
                     base.log_eval(grid[:, None] - ys[None, :]) - p * ys[None, :])
    in_tail = grid >= grid[0] + (grid[-1] - grid[0]) / 2.0
    tail, dev = grid[in_tail], dev_all[in_tail]
    c = float(np.max(dev))
    if c > c_limit:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValueError(
            f"regular-variation deviation {c:.3g} exceeds {c_limit} at "
            f"x=exp({tail[i]:.3g}), y={ys[j]:.3g}")

    # largest valid window per grid point, then slope-1 cap
    ok = dev_all <= c + 1e-12
    first_bad = np.argmin(ok, axis=1)
    ubar = np.where(ok.all(axis=1), ys[-1], ys[np.maximum(first_bad - 1, 0)])
    ubar[~ok[:, 0]] = 0.0
    u = np.empty_like(ubar)
    u[0] = ubar[0]
    for i in range(1, u.size):
        u[i] = min(ubar[i], u[i - 1] + (grid[i] - grid[i - 1]))

    # integral of the piecewise-affine h, exact (trapezoid on its own kinks)
    kinks = np.unique(np.concatenate([base._u, grid, grid - u]))
    hk = base.log_eval(kinks)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (hk[1:] + hk[:-1]) * np.diff(kinks))])
    g = base.log_eval(grid).copy()
    pos = u > 1e-9
    a, b = grid[pos] - u[pos], grid[pos]
    g[pos] = (np.interp(b, kinks, cum) - np.interp(a, kinks, cum)) / u[pos] + 0.5 * p * u[pos]
    smoothed = PiecewiseAffineFn.from_samples(f"regularize<{base.name}>",
                                              dict(base.params), grid, g,
                                              slope_below=float(base._s_below))
    smoothed.sampled = True
    out = convexify(smoothed)
    out.regularize_c = c
    out.regularize_gap = float(np.max(np.abs(g - base.log_eval(grid))))
    return out


# ---------------------------------------------------------------------------
# oscillation counters, elasticity, bounded witness
# ---------------------------------------------------------------------------


class TGrid:
    """Geometric t-grid held in log space (t can exceed float range)."""

    def __init__(self, log_t):
        self.log = np.asarray(log_t, dtype=float)
        _log_grid(self, "grid")

    @property
    def size(self):
        return self.log.size

    @staticmethod
    def span(v_lo: float, v_hi: float, ratio: float = 2.0 ** 0.25) -> "TGrid":
        """Grid of t = e^v from v_lo up to exactly v_hi, steps <= log(ratio)."""
        step = math.log(ratio)
        n = int(math.ceil((v_hi - v_lo) / step - 1e-12))
        pts = v_lo + step * np.arange(n)
        return TGrid(np.append(pts, v_hi))


def _log_grid(grid, name: str) -> np.ndarray:
    """log t of a ``TGrid`` or raw t, checked; a ValueError names ``name``."""
    if isinstance(grid, TGrid):
        v = np.asarray(grid.log, dtype=float)  # .log is writable: float64 again
    else:
        v = np.log(_positive(grid, name))
    # finite first: np.diff of infinities warns
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)) or not np.all(np.diff(v) > 0):
        raise ValueError(f"{name} must be finite and strictly increasing, with at least 2 points")
    return v


def _positive(a, name: str, what: str = "t") -> np.ndarray:
    """a as floats, checked before any log: a ValueError naming ``name``
    unless every entry is finite and > 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError(f"{name} must hold finite {what} > 0")
    return a


def _check_counter_grid(grid, side: str, name: str) -> np.ndarray:
    if side not in ("inf", "0"):
        raise ValueError(f"side must be 'inf' or '0'; got {side!r}")
    v = _log_grid(grid, name)
    if np.any(np.diff(v) > 0.25 * LOG2 + 1e-9):
        raise ValueError(f"{name} ratio must be <= 2^(1/4)")
    if side == "inf" and v[0] < -1e-12:
        raise ValueError(f"{name} at infinity must start at t >= 1")
    if side == "0" and v[-1] > 1e-12:
        raise ValueError(f"{name} at zero must end at t <= 1")
    return v


def _omega_table(F: OrliczFn, v: np.ndarray, xs):
    """omega = h(v) - h(v - log(1/x)) per x, each array as it is read; the x's
    are checked and h evaluated at the first read, then one profile call per x
    on the points off the grid only.

    With d = round(kappa / (v[1] - v[0])), h(v_i - kappa) is h[i - d] wherever
    v[i - d] and v_i - kappa are the same float bit for bit; ``log_eval`` is
    pointwise, so that is the value a full call would give.  The rest (the d
    points below the grid and the misses) go to one call; without an offset
    in [1, v.size) d is v.size and that call takes the whole shifted grid."""
    kappas = [_counter_kappa(x) for x in np.asarray(xs, dtype=float)]
    h = _finite_profile(F, v)
    step = float(v[1]) - float(v[0]) if v.size > 1 else math.inf
    for kappa in kappas:
        q = kappa / step  # a Python float: inf, not a warning, on a subnormal step
        d = round(q) if 0.5 < q < v.size else v.size
        need = np.ones(v.size, dtype=bool)
        need[d:] = v[:-d].view(np.int64) != (v[d:] - kappa).view(np.int64)
        shifted = np.empty_like(h)
        shifted[d:] = h[:-d]
        shifted[need] = F.log_eval(v[need] - kappa)
        yield h - shifted


def _counter_kappa(x: float) -> float:
    """kappa = log(1/x) for a counter argument x in (0, 1]."""
    if not (0 < x <= 1):
        raise ValueError("counter argument x must lie in (0, 1]")
    return -math.log(x) if x < 1 else 0.0


def _counter_log_threshold(C: float) -> float:
    if not 1 < C < math.inf:
        raise ValueError(f"counter threshold C must be finite and exceed 1; got {C!r}")
    return math.log(C)


_DROP_BLOCK = 128  # points per block of _count_drops


def _count_drops(W: np.ndarray, logC: float, signs=(1.0,)) -> np.ndarray:
    """Greedy counts of drops by logC > 0: counts[i, j] for s*W[j], s = signs[i].

    From a restart r (first r = 0) the next event is the first k > r with
    max(w[r:k]) - w[k] >= logC, and k is the next restart; s = -1 (rises)
    reads w negated, which is exact, and swaps its block extremes.  Every
    (s, row) scan keeps its next k (p), the maximum M since its restart and
    its count; the scans run in lockstep over blocks of ``_DROP_BLOCK``
    points from k = 1.  A step moves each scan at a block start past the
    quiet blocks ahead, where fl(max(M, block maxima so far) - block minimum)
    < logC (subtraction rounds monotonically, so no comparison there fires;
    a nan fails the test); a scan with only quiet blocks left leaves.  Then
    it reads each scan's block once and runs it to its end, event by event,
    with the running maximum of a point-by-point loop on the same floats.
    """
    (m, n), B = W.shape, _DROP_BLOCK
    counts = np.zeros(len(signs) * m, dtype=int)
    if n < 2:
        return counts.reshape(len(signs), m)
    live = np.arange(counts.size)
    s, rows = np.repeat(np.asarray(signs, dtype=float), m), live % m
    cut, Bw = np.arange(1, n, B), min(B + 1, n)  # a window: a block and the point before
    view = np.lib.stride_tricks.sliding_window_view(W, Bw, axis=1)
    hi, lo = (f.reduceat(W, cut, axis=1)[rows] for f in (np.maximum, np.minimum))
    top, low = np.where(s[:, None] > 0, (hi, lo), (-lo, -hi))
    p, M = np.ones(live.size, dtype=int), s * W[rows, 0]  # p: the next k; M = max(w[r:p])
    with np.errstate(invalid="ignore"):  # inf - inf in rows with infinities
        while live.size:
            a = np.flatnonzero((p - 1) % B == 0)
            if a.size:  # skip to the first block that is not quiet; none: p = n
                ahead = np.arange(cut.size) >= ((p[a] - 1) // B)[:, None]
                # reach[:, j] = max(M, the block maxima from here to before block j)
                reach = np.maximum.accumulate(np.concatenate(
                    [M[a, None], np.where(ahead, top[live[a]], M[a, None])], axis=1), axis=1)
                quiet = ~ahead | (reach[:, 1:] - low[live[a]] < logC)
                j = np.argmin(quiet, axis=1)
                M[a] = reach[np.arange(a.size), j]
                p[a] = np.where(quiet[np.arange(a.size), j], n, 1 + j * B)
            # the window from p - 1 to the block's end; r: the scans still on it.
            # Points before p read as M: a comparison there is M - M < logC
            st = np.minimum(p - 1 - (p - 1) % B, n - Bw)
            x, r = s[live, None] * view[rows[live], st], np.arange(live.size)
            while r.size:
                y = np.where(np.arange(Bw) >= (p[r] - st[r])[:, None], x[r], M[r, None])
                run = np.maximum.accumulate(y, axis=1)
                hit = run[:, :-1] - y[:, 1:] >= logC
                k = np.argmax(hit, axis=1)
                event = hit[np.arange(r.size), k]
                counts[live[r[event]]] += 1
                M[r] = np.where(event, y[np.arange(r.size), k + 1], run[:, -1])
                p[r] = np.where(event, st[r] + k + 2, st[r] + Bw)
                r = r[event]
            live, p, M = live[p < n], p[p < n], M[p < n]
    return counts.reshape(len(signs), m)


def counter(F: OrliczFn, kind: str, x: float, C: float, side: str = "inf",
            grid=None) -> int:
    """Greedy oscillation counters Phi+/Phi-/Psi_p on a geometric t-grid.

    Phi+ counts disjoint [a,b] with F_b(x) >= C F_a(x), i.e. drops of
    omega(v) = h(v) - h(v - log(1/x)) by log C; Phi- counts rises.  The
    earliest-endpoint greedy is optimal for disjoint-interval counting.
    Psi_p counts >= 2-spaced grid points where F_t(x) deviates from x^p by
    the factor C, per the Lorentz-space criterion.  All values are certified
    lower bounds for the true (grid-free) counters.  kind, x, C, side and the
    grid are checked before the profile is evaluated; then h on the grid and
    h(v - log(1/x)) at the shifted points off the grid (``_omega_table``),
    and ``_count_drops`` on that one row (negated for Phi-) or a Python loop
    over the deviating points for Psi_p.
    """
    kappa = _counter_kappa(x)
    logC = _counter_log_threshold(C)
    if kind.startswith("psi"):
        try:
            p = float(kind.split(":")[1] if ":" in kind else kind[3:])
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise ValueError(f"counter kind {kind!r} needs a finite exponent p")
    elif kind not in ("phi+", "phi-"):
        raise ValueError(f"unknown counter kind {kind!r}")
    if grid is None:
        grid = TGrid.span(0.0, 1024.0) if side == "inf" else TGrid.span(-1024.0, 0.0)
    v = _check_counter_grid(grid, side, "grid")
    (omega,) = _omega_table(F, v, [x])

    if kind in ("phi+", "phi-"):
        return int(_count_drops(omega[None], logC, (1.0 if kind == "phi+" else -1.0,))[0, 0])
    dev = np.abs(p * kappa - omega)
    count, last_v = 0, -math.inf
    for vj in v[dev >= logC].tolist():
        if vj - last_v >= LOG2 - 1e-12:
            count += 1
            last_v = vj
    return count


def phi_plus(F, x, C, side="inf", grid=None):
    return counter(F, "phi+", x, C, side, grid)


def phi_minus(F, x, C, side="inf", grid=None):
    return counter(F, "phi-", x, C, side, grid)


def psi_count(F, p, x, C, side="inf", grid=None):
    return counter(F, f"psi:{p}", x, C, side, grid)


# classification thresholds, frozen from the pre-registered oracle run
# (power/pwpower/elastic-nl stay below the flat/witness bounds on the default
# grid; example1 crosses both).
ELASTIC_FLAT_BOUND = 2
WITNESS_COUNT_FLOOR = 10
WITNESS_TAIL_POINTS = 5


@dataclass
class ElasticityReport:
    x_grid: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    fit_r: float
    fit_logC1: float
    fit_residual: float
    classification: str
    side: str
    C0: float

    @property
    def totals(self):
        return self.phi_plus + self.phi_minus

    def to_json_dict(self):
        return {
            "C0": self.C0,
            "side": self.side,
            "x": [float(v) for v in self.x_grid],
            "phi_plus": [int(v) for v in self.phi_plus],
            "phi_minus": [int(v) for v in self.phi_minus],
            "fit": {"r": self.fit_r, "logC1": self.fit_logC1,
                    "residual": self.fit_residual},
            "classification": self.classification,
        }


def elasticity_report(F: OrliczFn, C0: float = 4.0, x_grid=None,
                      side: str = "inf", t_grid=None) -> ElasticityReport:
    """Phi counter table over x = 2^{-k} plus a power-law fit and a verdict.

    Classification is finite-data honest: "elastic-consistent" when the
    counts stay inside the envelope observed for elastic generators,
    "inelastic-witness" when they keep growing past it (thresholds frozen
    from the oracle pre-run).  One-sided counts suffice in principle; both
    are computed and reported.  The counts are those of ``counter`` per x:
    one ``_omega_table`` of len(x_grid) rows (len(x_grid) + 1 profile calls,
    the call per x on the shifted points that are off the grid only), then
    one lockstep ``_count_drops`` call for Phi+ and Phi- of every row.
    """
    if x_grid is None:
        x_grid = 2.0 ** -np.arange(4, 17, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size < 2:
        raise ValueError(f"x_grid needs at least two points for the fit; got {x_grid.size}")
    if np.any(np.diff(x_grid) >= 0):
        raise ValueError("x_grid must be decreasing")
    logC = _counter_log_threshold(C0)
    if t_grid is None:
        t_grid = TGrid.span(0.0, 2048.0) if side == "inf" else TGrid.span(-2048.0, 0.0)
    v = _check_counter_grid(t_grid, side, "t_grid")
    omega = np.fromiter(_omega_table(F, v, x_grid), np.dtype((float, v.size)), x_grid.size)
    nplus, nminus = _count_drops(omega, logC, (1.0, -1.0))
    totals = nplus + nminus

    lx = np.log(1.0 / x_grid)
    ly = np.log(totals + 1.0)
    r_hat, logC1 = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (r_hat * lx + logC1))))

    tail = totals[-WITNESS_TAIL_POINTS:]
    growing = bool(np.all(np.diff(tail) > 0))
    if np.max(totals) <= ELASTIC_FLAT_BOUND:
        verdict = "elastic-consistent"
    elif growing and int(np.max(totals)) > WITNESS_COUNT_FLOOR:
        verdict = "inelastic-witness"
    else:
        verdict = "elastic-consistent"
    return ElasticityReport(x_grid, nplus, nminus, float(r_hat), float(logC1),
                            resid, verdict, side, C0)


_W_BLOCK = 64  # grid rows per block of w_witness


def _profit_rows(ft: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rows k >= 1 of w_witness's profit table that can hold a positive
    profit, for ft[j, k] = F_{t_k}(x_j) and c = fl(C0 ft).

    fl(a - b) > 0 exactly when a > b, so row k holds a positive profit
    exactly when ft[j, k] > min_{i<k} c[j, i] for some j.  Every other row
    is <= 0 throughout, and there w[k] = w[k - 1]."""
    below = np.minimum.accumulate(c[:, :-1], axis=1)
    return np.flatnonzero(np.any(ft[:, 1:] > below, axis=0)) + 1


@dataclass
class WWitnessReport:
    log_t: np.ndarray
    w: np.ndarray
    C1: float
    C0: float

    def to_json_dict(self):
        return {"C0": self.C0, "C1": self.C1,
                "log_t": [float(v) for v in self.log_t],
                "w": [float(v) for v in self.w]}


def w_witness(F: OrliczFn, C0: float, t_grid=None, x_grid=None) -> WWitnessReport:
    """Monotone witness w(t) for the bounded-oscillation characterization.

    w(t) is the best total profit of disjoint grid intervals inside [1, t],
    where the profit of (a, b) is max over x of (F_b(x) - C0 F_a(x))_+ --
    weighted interval scheduling on all grid pairs.  By superadditivity
    w(t) - w(s) dominates every single-interval profit, so

        F_t(x) <= C0 F_s(x) + w(t) - w(s)

    holds on the grid by construction; C1 = w(t_max) - w(1) is the witness
    bound (finite-range: it can only certify growth, not boundedness).

    Only the profits that can move w are formed, and w is bit-identical to
    the full table's.  A row k is built only if some F_{t_k}(x) exceeds
    min_{i<k} C0 F_{t_i}(x) (``_profit_rows``); w[k] = w[k-1] elsewhere.
    The rows that remain go in blocks of ``_W_BLOCK`` grid rows.  Per x, a
    column before the block is kept only if w_i - C0 F_{t_i}(x) lies within
    a rounding margin of its maximum; inside the block, only the columns
    with a positive profit in a later row of it are built.  With n grid
    points and m values of x, a profile with no profitable row costs
    O(n m) time.  As C0 -> 1 every row is built, and the worst case stays
    O(n^2 m).  Memory is O(n m), up to a factor ``_W_BLOCK`` when rounding
    ties keep many columns.

    C0 must be finite and exceed 1; an empty x-grid gives w = 0.
    """
    _counter_log_threshold(C0)
    if t_grid is None:
        t_grid = TGrid.span(0.0, 256.0, ratio=2.0)
    if x_grid is None:
        x_grid = 2.0 ** -np.arange(1, 17, dtype=float)
    v = _log_grid(t_grid, "t_grid")
    n = v.size
    ft = np.empty((len(x_grid), n))
    for j, omega in enumerate(_omega_table(F, v, x_grid)):
        np.exp(np.negative(omega, out=omega), out=ft[j])  # fl(g - h) = -fl(h - g)
    c = C0 * ft
    rows = _profit_rows(ft, c)
    c_top = np.max(c, axis=1)  # bounds every c_i
    # w is nondecreasing and fl monotone: c_{i+1} <= c_i makes column i + 1 at
    # least as good as column i in every later row, so column i is covered
    covered = c[:, 1:] <= c[:, :-1]
    best = np.zeros(n)
    done, j = 0, 0  # best[:done + 1] is final; rows[j] is the next row to build
    while j < rows.size:
        k0 = int(rows[j])
        j1 = int(np.searchsorted(rows, k0 + _W_BLOCK))
        blk, k1 = rows[j:j1], int(rows[j1 - 1])
        best[done + 1:k0] = best[done]
        f = ft[:, blk]
        f_top = np.max(f, axis=1)
        # Columns i < k0, per x.  Row k reads E_i = fl(w_i + fl(F_{t_k}(x) - c_i))
        # with c_i = fl(C0 F_{t_i}(x)); let g_i = fl(w_i - c_i), G = g_* = max g,
        # and W, C, f bound w_i, c_i and F_{t_k}(x) >= 0.  A sum of floats is
        # within u = 2^-53 of its value, relatively (exact when subnormal), so
        # |g_i - (w_i - c_i)| <= u (W + C), |E_i - (w_i - c_i + F_{t_k}(x))| <=
        # u W + 3u (f + C), and E_i - E_* <= g_i - G + 8u (W + C + f).  Below
        # the threshold fl(G - 2^-48 fl(W + C + f)), whose own rounding costs
        # under 2u (W + C + f), g_i - G < -30u (W + C + f): then E_i < E_*.  A
        # covered column goes too: the columns after it are at least as good,
        # up to one that is kept or lies below the threshold.
        g = best[:k0] - c[:, :k0]
        slack = 2.0 ** -48 * (best[k0 - 1] + c_top + f_top)
        keep = g >= (np.max(g, axis=1) - slack)[:, None]
        keep[:, :-1] &= ~covered[:, :k0 - 1]
        xs, cols = np.nonzero(keep)
        top = np.max(best[cols, None] + (f[xs] - c[xs, cols][:, None]), axis=0)
        # Columns k0 <= i < k1: a term fl(w_i + d) with d <= 0 is at most w[k - 1],
        # so only columns with some c_i < F_{t_k}(x), k > i, are built.  Each
        # one's terms go to the rows after it once w_i = max(w[k0 - 1], top of
        # the rows <= i) is known.
        after = np.searchsorted(blk, np.arange(k0, k1), side="right")
        f_after = np.maximum.accumulate(f[:, ::-1], axis=1)[:, ::-1]
        live = np.flatnonzero(np.any(c[:, k0:k1] < f_after[:, after], axis=0))
        tri = np.max(f[:, None, :] - c[:, k0 + live, None], axis=0)
        for d, a in zip(tri, after[live].tolist()):
            w_i = max(best[k0 - 1], float(np.max(top[:a])))
            np.maximum(top[a:], w_i + d[a:], out=top[a:])
        run = np.full(k1 - k0 + 2, best[k0 - 1])
        run[blk - k0 + 1] = top
        best[k0 - 1:k1 + 1] = np.maximum.accumulate(run)
        done, j = k1, j1
    best[done + 1:] = best[done]
    return WWitnessReport(v, best, float(best[-1] - best[0]), C0)
