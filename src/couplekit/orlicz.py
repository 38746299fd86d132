"""Orlicz functions: the generators, their profile kernels and the Luxemburg solver.

Every Orlicz function here is handled through its log-log profile

    h(u) = log F(e^u),

which is strictly increasing with h(u) - u nondecreasing (F(x)/x increasing).
Working with h avoids overflow entirely: the constructions below routinely
evaluate F at heights like exp(180000), which only ever exist as h-values.

Every Orlicz norm that is not a power's goes through one row path,
``_orlicz_rows``, over a batch of rows of entries a_i with weights w_i and
levels lambda_i (w_i F(lambda_i) = 1): the modular's blocks or a step
function's pieces.  It makes one root-find of the log-modular,
``_luxemburg_log``, whose docstring states the certified log-error.

The analyses of a generator (indices, counters, elasticity) are in
``couplekit.analysis``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, HypothesisError, UsageError
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
    sampled = False  # sampled from another profile (``sample_profile``): no spec names it
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
        Orlicz row path to start near the root (``_orlicz_rows``)."""
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
            raise UsageError("anchors must be strictly increasing")
        if self._s.shape != self._u.shape:
            raise UsageError("one slope per anchor (last one extends to +inf)")
        if self._s_below < 1.0 - 1e-12 or np.any(self._s < 1.0 - 1e-12):
            raise UsageError("profile slope must stay >= 1 (F(x)/x increasing)")
        # segment k = searchsorted(u, x, "right"): k = 0 is the tail below u_0,
        # k >= 1 the segment starting at anchor k - 1; _u, _h, _s become views
        self._seg_u = np.concatenate([self._u[:1], self._u])
        self._seg_h = np.concatenate([self._h[:1], self._h])
        self._seg_s = np.concatenate([[self._s_below], self._s])
        self._u, self._h, self._s = self._seg_u[1:], self._seg_h[1:], self._seg_s[1:]

    def log_eval(self, u):
        u = np.asarray(u, dtype=float)
        k = self._u.searchsorted(u, side="right")
        return self._seg_h[k] + (u - self._seg_u[k]) * self._seg_s[k]

    def slope(self, u):
        return self._seg_s[self._u.searchsorted(u, side="right")]

    def log_eval_slope(self, u):
        u = np.asarray(u, dtype=float)
        k = self._u.searchsorted(u, side="right")
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
    if not p >= 1:
        raise UsageError("power generator needs p >= 1")
    return PiecewiseAffineFn("power", {"p": p}, [0.0], [0.0], [p], p)


def pwpower(p0: float, p1: float) -> OrliczFn:
    """F(x) = x^p0 for x <= 1, x^p1 for x >= 1 (needs 1 <= p0 <= p1 for convexity)."""
    if not (1 <= p0 <= p1):
        raise UsageError("pwpower needs 1 <= p0 <= p1")
    return PiecewiseAffineFn("pwpower", {"p0": p0, "p1": p1}, [0.0], [0.0], [p1], p0)


class LogFactorFn(OrliczFn):
    """F(x) = x^p log(e + x); h(u) = p u + log(logaddexp(1, u))."""

    def __init__(self, p: float):
        if not p >= 1:
            raise UsageError("logfactor generator needs p >= 1")
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
        raise HypothesisError("xi schedule must take values in (0, 1]")
    if np.any(np.diff(xis) > 1e-15):
        raise HypothesisError("xi schedule must be nonincreasing")
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
        raise HypothesisError("psi must be nonincreasing")
    if np.any(phi - 2.0 > 1.0 + 1e-12):
        raise HypothesisError("psi must be bounded by one")
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
        raise UsageError("brudnyi pair needs q > p > 1")
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
            raise UsageError("minimal generator needs 0 < alpha <= 1/(4 pi)")
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
    sandwich fails.  Each slope is >= 1: ``PiecewiseAffineFn`` refuses less.
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
        raise UsageError("grid step must be <= 1/8")
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


def _finite_profile(F: OrliczFn, pts: np.ndarray) -> np.ndarray:
    """h = log F on the monotone points pts; a UsageError when it overflows
    (h is convex: finite at both ends means finite throughout)."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        h = F.log_eval(pts)
    if h.size and not (math.isfinite(h[0]) and math.isfinite(h[-1])):
        raise UsageError(f"{F.spec_string()}: log F is not finite on "
                         f"[{pts[0]:g}, {pts[-1]:g}]; its profile overflows")
    return h


# ---------------------------------------------------------------------------
# the Luxemburg solver and the Orlicz row path
# ---------------------------------------------------------------------------


# the log-norm error a Newton stop certifies (G as in _luxemburg_log)
_NEWTON_TOL = 1e-13
# the bracket halves at least every other step (see _luxemburg_log); one no
# wider than the log-range of doubles (~1500) is below the stop width after
# 1 + 2 * ceil(log2(1500 / 1e-13)) = 109 steps
_MAX_ITER = 120
# a batch of at least this many rows keeps its Newton state in arrays
_ARRAY_ROWS = 24


def _luxemburg_log(F: OrliczFn, er: np.ndarray, ec: np.ndarray, la: np.ndarray,
                   log_w: np.ndarray, beta, lo, hi) -> np.ndarray:
    """log of the Luxemburg norm inf{alpha : sum_i w_i F(a_i / alpha) <= 1}, per row.

    Row by row, solves G(beta) = log sum_i exp(log w_i + h(log a_i - beta)) = 0
    by Newton steps from ``beta`` inside the bracket [lo, hi].  Every profile
    has h' >= 1 (F(x)/x increasing; constructors allow 1e-12 less), so G' <= -1
    and |beta - beta*| <= |G(beta)|.  Each evaluation therefore narrows the
    bracket to [beta, beta + G] (G > 0) or [beta + G, beta] (G <= 0), widened
    by 1e-9 relative.  A step that leaves the bracket, or follows a step that
    did not halve it, is a bisection, so the bracket halves at least every
    other step; reaching ``_MAX_ITER`` raises ``ConvergenceError``.  A row
    stops at the first Newton correction d = -G/G' that certifies its result
    beta + d, clamped to the bracket:
    - when ``F.curvature()`` is None, |d| <= ``_NEWTON_TOL``: the error is at
      most |G| <= max h' * 1e-13 before the correction is applied;
    - when it is (s_lo, s_hi, L), K d^2 / 2 <= ``_NEWTON_TOL`` * s_lo with
      K = L + (s_hi - s_lo)^2 / 4.  G'' = E h'' + Var h' under the weights
      of G' = -E h', so |G''| <= K (Popoviciu's bound on the variance), and
      Newton's remainder |G(beta + d)| <= K d^2 / 2 with |G'| >= s_lo puts
      beta + d within 1e-13 of the root, one profile call before |d| would
      reach 1e-13;
    - whatever the profile, when the bracket, which holds the clamped result,
      is at most 1e-13 (1 + |beta|) wide.  So the certified log-error is
      1e-13 (1 + |log ||f|| |): a flat 1e-13 only for norms near 1.

    The rows come packed: entry i is log |a| = ``la[i]`` at row ``er[i]``
    and column ``ec[i]``, in row-major order, every row with an entry;
    ``log_w`` holds the (n,) log weights, ``beta``, ``lo``, ``hi`` (k,)
    arrays each row's start and bracket.  Each iteration evaluates the
    profile once, as one fused ``log_eval_slope`` call (h and h' on the same
    points), and the terms exp(log w + h - max) and their products with h'
    on the entries of the rows still iterating, with row maxima by
    ``np.maximum.reduceat``.  Both row sums (S and D of G' = -D / S) are
    taken in one zero-filled (2, k, n) buffer, the terms scattered through
    flat views at row * n + column and reduced over the full width: zeros in
    place keep numpy's pairwise summation order, so a row's result does not
    depend on the other rows.  When rows finish, the rows still iterating
    are renumbered 0, 1, ... through one index map, the finished rows'
    entries dropped, and the buffer's leading rows zeroed and reused.  A
    batch of at least ``_ARRAY_ROWS`` rows keeps each row's beta, bracket
    and previous width in arrays, stepped as whole-array operations; below
    that, the rows step one by one in lists.  Both steps compute the same
    floats (``math.log`` per row, the bracket's min and max as the same
    strict comparisons), so a row's iterates do not depend on the path.
    """
    k, n = len(beta), len(log_w)
    out = np.empty(k)
    stop = _NEWTON_TOL
    if (curv := F.curvature()) is not None:
        s_lo, s_hi, lip = curv
        stop = math.sqrt(2.0 * _NEWTON_TOL * s_lo / (lip + 0.25 * (s_hi - s_lo) ** 2))
    lw, flat = log_w[ec], er * n + ec
    starts = er.searchsorted(np.arange(k))
    sums = np.zeros((2, k, n))
    s_f = sums.reshape(-1)
    d_f = s_f[k * n:]
    # row, beta, bracket and previous bracket width of each row still
    # iterating: arrays while the batch is wide, then lists
    if wide := k >= _ARRAY_ROWS:
        rows, betas, los, his, widths = np.arange(k), beta, lo, hi, np.full(k, math.inf)
    else:
        rows, betas, los, his = range(k), beta.tolist(), lo.tolist(), hi.tolist()
        widths = [math.inf] * k
    for _ in range(_MAX_ITER):
        live = len(rows)
        h, dh = F.log_eval_slope(la - (betas[0] if live == 1 else np.asarray(betas)[er]))
        e = lw + h
        m = np.maximum.reduceat(e, starts)
        wts = np.exp(e - m[er])
        s_f[flat] = wts
        d_f[flat] = wts * dh
        if wide:
            S, D = np.add.reduce(sums, axis=2)
            # the list rule below as array operations, np.where on the same
            # strict comparisons
            g = m + np.fromiter(map(math.log, S.tolist()), float, live)
            d = g * S / D
            reach = betas + g * (1.0 + 1e-9)
            up = g > 0.0
            los, his = (np.where(up, betas, np.where(reach > los, reach, los)),
                        np.where(up, np.where(reach < his, reach, his), betas))
            nxt, width = betas + d, his - los
            done = (np.abs(d) <= stop) | (width <= _NEWTON_TOL * (1.0 + np.abs(betas)))
            keep = (~done).nonzero()[0]
            if len(keep) < live:
                end = np.where(los > nxt, los, nxt)
                out[rows[done]] = np.where(his < end, his, end)[done]
            bisect = ~((los < nxt) & (nxt < his)) | (width > 0.5 * widths)
            betas, widths = np.where(bisect, 0.5 * (los + his), nxt), width
        else:
            keep = []
            S, D = np.add.reduce(sums, axis=2).tolist()
            for i, (row, beta, lo, hi, mx, s, dd) in enumerate(
                    zip(rows, betas, los, his, m.tolist(), S, D)):
                g = mx + math.log(s)
                d = g * s / dd
                reach = beta + g * (1.0 + 1e-9)
                # Python's min(hi, reach) and max(lo, reach)
                if g > 0.0:
                    lo, hi = beta, reach if reach < hi else hi
                else:
                    lo, hi = reach if reach > lo else lo, beta
                width = hi - lo
                if abs(d) <= stop or width <= _NEWTON_TOL * (1.0 + abs(beta)):
                    out[row] = min(max(beta + d, lo), hi)
                    continue
                nxt = beta + d
                if not (lo < nxt < hi) or width > 0.5 * widths[i]:
                    nxt = 0.5 * (lo + hi)
                betas[i], los[i], his[i], widths[i] = nxt, lo, hi, width
                keep.append(i)
        if len(keep) < live:
            if not len(keep):
                return out
            state = [v[keep] if wide else [v[i] for i in keep]
                     for v in (rows, betas, los, his, widths)]
            if wide and len(keep) < _ARRAY_ROWS:  # the rows left iterate as lists
                wide, state = False, [v.tolist() for v in state]
            rows, betas, los, his, widths = state
            # renumber the rows still iterating 1, 2, ...; 0 marks the finished ones
            new = np.zeros(live, np.intp)
            new[keep] = np.arange(1, len(keep) + 1)
            er = new[er]
            on = er.nonzero()
            er, ec, la, lw = er[on] - 1, ec[on], la[on], lw[on]
            flat = er * n + ec
            sums = sums[:, :len(keep)]
            sums[...] = 0.0
            starts = er.searchsorted(np.arange(len(keep)))
    raise ConvergenceError(
        f"Luxemburg solver reached {_MAX_ITER} iterations (bracket "
        f"[{float(los[0])!r}, {float(his[0])!r}])")


def _orlicz_rows(F: OrliczFn, V: np.ndarray, log_w: np.ndarray,
                 log_lambda: np.ndarray) -> np.ndarray:
    """Luxemburg norms of sum_i w_i F(|v_i| / alpha) for the rows v of V, with
    log weights ``log_w`` and levels ``log_lambda`` (w_i F(lambda_i) = 1).  The
    single-entry norms b_i = |v_i| / lambda_i bracket a row's norm by their max
    and their sum whatever the weights, as F(tx) <= t F(x) for t <= 1; a row
    with one entry is its b_i, one with a NaN entry NaN.  The others go to one
    ``_luxemburg_log`` call on their packed nonzero entries, started at the
    bracket's low end or, given ``curvature()``, at the root for x^s, s the
    mid slope, scaled to agree with F at each lambda_i:
    q_max + log sum exp(s (q_i - q_max)) / s, q_i = log b_i, clamped.

    The nonzero entries are read through one flat index into V, row-major,
    and b_i is scattered through it into a zero-filled (k, n) buffer whose
    row max and row sum are the bracket.  When every row solves, as in a
    shift search, the entries go to the solver as they are; otherwise the
    solve rows' entries are picked out, their rows renumbered 0, 1, ..."""
    k, n = V.shape
    v = V.ravel()
    flat = v.nonzero()[0]
    er, ec = np.divmod(flat, n)
    la = np.log(np.abs(v[flat]))
    q = la - log_lambda[ec]
    piece = np.zeros((k, n))
    with np.errstate(over="ignore"):  # a sum past the float range opens the bracket
        piece.ravel()[flat] = np.exp(q)
        out = np.maximum.reduce(piece, axis=1)
        hi0 = np.add.reduce(piece, axis=1)
    solve = hi0 > out * (1 + 1e-14)
    if not (n_solve := np.count_nonzero(solve)):
        return out
    if n_solve < k:
        on = solve[er]
        er, ec, la, q = (np.cumsum(solve) - 1)[er[on]], ec[on], la[on], q[on]
        b_lo, b_hi = np.log(out[solve]), np.log(hi0[solve])
    else:
        b_lo, b_hi = np.log(out), np.log(hi0)
    beta = b_lo
    if (curv := F.curvature()) is not None:
        s = 0.5 * (curv[0] + curv[1])
        q_max = np.maximum.reduceat(q, er.searchsorted(np.arange(n_solve)))
        piece = np.zeros((n_solve, n))
        piece[er, ec] = np.exp(s * (q - q_max[er]))
        beta = np.clip(q_max + np.log(np.add.reduce(piece, axis=1)) / s, b_lo, b_hi)
    norms = np.exp(_luxemburg_log(F, er, ec, la, log_w, beta, b_lo, b_hi))
    if n_solve == k:
        return norms
    out[solve] = norms
    return out


def _power_exponent(F: OrliczFn) -> float | None:
    """p when F(x) = x^p, read from the profile: h is one affine piece through
    0 (one anchor at (0, 0), the same slope below it as past it).  L_F is then
    L_p, and its modular space the weighted ell_p 2^(n/p); else None."""
    u = F.breaks()
    if u is None or u.size != 1 or u[0] != 0.0 or F.log_eval(0.0) != 0.0:
        return None
    p, below = F.slope(np.array([0.0, -math.inf])).tolist()
    return p if p == below else None
