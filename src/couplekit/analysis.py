"""Orlicz analyses: indices, counters, elasticity, regular variation, witness.

Each reads F through its profile h(u) = log F(e^u) (``couplekit.orlicz``).
The oscillation quantities all reduce to the window function

    omega(v) = h(v) - h(v - kappa),      kappa = log(1/x),

since F_t(x) = F(tx)/F(t) = exp(-omega(log t)).  Counters count disjoint
oscillations of omega by log C, regular-variation defect is the tail
oscillation of omega, and the bounded-witness w(t) is a maximum-profit
schedule of disjoint oscillation intervals.

These four analyses (``counter``, ``elasticity_report``, ``rv_defect``,
``w_witness``) share one input front end.  ``_log_grid`` turns a t-grid into
log t: a t that is not finite and positive, or a grid not strictly increasing
over at least 2 points, is a UsageError naming the argument.  ``_omega_table``
forms omega per x: an x outside (0, 1] or an overflowing h is a UsageError,
and h(v - kappa) is evaluated only where v - kappa is not a grid point.
The indices, ``lambda_seq`` and ``log_dilation`` read h directly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .measure import LOG2, _Record
from .orlicz import OrliczFn, _finite_profile


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


class IndexReport(_Record):
    _fields = ("alpha_inf", "beta_inf", "alpha_0", "beta_0", "delta2", "err_inf", "err_0")

    def __init__(self, alpha_inf: float, beta_inf: float, alpha_0: float, beta_0: float,
                 delta2: float, err_inf: float, err_0: float):
        self.alpha_inf, self.beta_inf = alpha_inf, beta_inf
        self.alpha_0, self.beta_0 = alpha_0, beta_0
        self.delta2, self.err_inf, self.err_0 = delta2, err_inf, err_0

    @property
    def boyd_unit(self):
        """Boyd indices of L_F[0,1]: (p_F, q_F) = (alpha_inf, beta_inf)."""
        return (self.alpha_inf, self.beta_inf)

    @property
    def boyd_halfline(self):
        return (min(self.alpha_inf, self.alpha_0), max(self.beta_inf, self.beta_0))

    def to_json_dict(self):
        return {**self._field_dict(), "boyd_unit": list(self.boyd_unit),
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
        raise UsageError("index points span less than the boundary layer y_layer")
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
        raise UsageError("boundary layer y_layer must be positive")
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
        raise UsageError("lambda sequence lives on nonpositive indices")
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
        raise UsageError("t_range needs at least 64 points")
    worst = 1.0
    for omega in _omega_table(F, v[v.size // 2:], x_grid):
        worst = max(worst, float(np.exp(np.max(omega) - np.min(omega))))
    return worst


# ---------------------------------------------------------------------------
# oscillation counters, elasticity, bounded witness
# ---------------------------------------------------------------------------


class TGrid:
    """Geometric t-grid held in log space (t can exceed float range)."""

    def __init__(self, log_t):
        self.log = np.asarray(log_t, dtype=float)
        _log_grid(self, "grid")

    @staticmethod
    def span(v_lo: float, v_hi: float, ratio: float = 2.0 ** 0.25) -> "TGrid":
        """Grid of t = e^v from v_lo up to exactly v_hi, steps <= log(ratio)."""
        step = math.log(ratio)
        n = int(math.ceil((v_hi - v_lo) / step - 1e-12))
        pts = v_lo + step * np.arange(n)
        return TGrid(np.append(pts, v_hi))


def _log_grid(grid, name: str) -> np.ndarray:
    """log t of a ``TGrid`` or raw t, checked; a UsageError names ``name``."""
    if isinstance(grid, TGrid):
        v = np.asarray(grid.log, dtype=float)  # .log is writable: float64 again
    else:
        v = np.log(_positive(grid, name))
    # finite first: np.diff of infinities warns
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)) or not np.all(np.diff(v) > 0):
        raise UsageError(f"{name} must be finite and strictly increasing, with at least 2 points")
    return v


def _positive(a, name: str, what: str = "t") -> np.ndarray:
    """a as floats, checked before any log: a UsageError naming ``name``
    unless every entry is finite and > 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a) & (a > 0)):
        raise UsageError(f"{name} must hold finite {what} > 0")
    return a


def _check_counter_grid(grid, side: str, name: str) -> np.ndarray:
    if side not in ("inf", "0"):
        raise UsageError(f"side must be 'inf' or '0'; got {side!r}")
    v = _log_grid(grid, name)
    if np.any(np.diff(v) > 0.25 * LOG2 + 1e-9):
        raise UsageError(f"{name} ratio must be <= 2^(1/4)")
    if side == "inf" and v[0] < -1e-12:
        raise UsageError(f"{name} at infinity must start at t >= 1")
    if side == "0" and v[-1] > 1e-12:
        raise UsageError(f"{name} at zero must end at t <= 1")
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
        raise UsageError("counter argument x must lie in (0, 1]")
    return -math.log(x) if x < 1 else 0.0


def _counter_log_threshold(C: float) -> float:
    if not 1 < C < math.inf:
        raise UsageError(f"counter threshold C must be finite and exceed 1; got {C!r}")
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
            raise UsageError(f"counter kind {kind!r} needs a finite exponent p")
    elif kind not in ("phi+", "phi-"):
        raise UsageError(f"unknown counter kind {kind!r}")
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


# classification thresholds, frozen from the pre-registered oracle run
# (power/pwpower/elastic-nl stay below the flat/witness bounds on the default
# grid; example1 crosses both).
ELASTIC_FLAT_BOUND = 2
WITNESS_COUNT_FLOOR = 10
WITNESS_TAIL_POINTS = 5


class ElasticityReport(_Record):
    _fields = ("x_grid", "phi_plus", "phi_minus", "fit_r", "fit_logC1", "fit_residual",
               "classification", "side", "C0")

    def __init__(self, x_grid: np.ndarray, phi_plus: np.ndarray, phi_minus: np.ndarray,
                 fit_r: float, fit_logC1: float, fit_residual: float, classification: str,
                 side: str, C0: float):
        self.x_grid, self.phi_plus, self.phi_minus = x_grid, phi_plus, phi_minus
        self.fit_r, self.fit_logC1, self.fit_residual = fit_r, fit_logC1, fit_residual
        self.classification, self.side, self.C0 = classification, side, C0

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
        raise UsageError(f"x_grid needs at least two points for the fit; got {x_grid.size}")
    if np.any(np.diff(x_grid) >= 0):
        raise UsageError("x_grid must be decreasing")
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


class WWitnessReport(_Record):
    _fields = ("log_t", "w", "C1", "C0")

    def __init__(self, log_t: np.ndarray, w: np.ndarray, C1: float, C0: float):
        self.log_t, self.w, self.C1, self.C0 = log_t, w, C1, C0


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
