"""Norm evaluators: r.i. function spaces and their Kothe sequence spaces.

Function-space variants (Lp, Lorentz quasinorm, Orlicz/Luxemburg, and the
space-from-sequence construction) evaluate exactly on step functions -- every
integral is a finite sum over pieces.  ``norm_rows_on(f)`` binds the
pieces of f and norms the rows of a (k, pieces) array of values on them;
sequence-space variants are modelled on a Window, and ``norm_rows`` norms the
rows of a (k, n) array.  The base classes decide once: a space whose
weighted-lp form answers is normed by the one row formula ``_wlp_norms`` on
it, any other by its own ``_rows_on(f)`` or ``_rows``.  Rows never depend on
each other; ``fn_norm`` and ``norm_values`` are the one-row cases.  An Orlicz
norm that is not a power's (``OrliczSpace``, ``OrliczModular``) is one
root-find of the log-modular G, ``_luxemburg_log``: bracketed Newton steps on the
log-norm, row by row over a batch of rows, stopped when the Newton correction
is at most 1e-13 (h' >= 1 bounds the error by |G|), or one step earlier on a
profile whose ``curvature()`` bounds h' and h'', when Newton's remainder bound
certifies a log-error of at most 1e-13.  Its elementwise work runs
on the packed nonzero entries only, and its row sums over the full width in
buffers allocated once per call.  The adversarial searches (the RSP/LSP
shift search, kappa, the ``op_norm`` lower bound) share the one ascent of
``couplekit.ascent``.  Kappa draws all random starts of a shift first and
ascends them as lanes; after an overflowing start it puts the generator back
to the state just past that start's draws.  A shift whose unit vectors reach
the stop level of the space's certified bound on ||tau_n|| is closed: its
starts are drawn and not ascended.

The dyadic sequence space of a function space X is E_X with
||x||_{E_X} = ||sum x(n) chi_[2^n,2^(n+1))||_X; for X = L_p this is the
weighted ell_p space with weights 2^(n/p), for X = L_infty it is ell_infty
(the p = inf member, with unit weights), and for X = L_F it is the modular
space with block weights 2^n.

Only this module knows the concrete space classes: other modules ask a space
through its protocol, whose base-class defaults describe a space without
closed forms.  ``SpaceSpec``: ``e_space(window)`` (E_X, by default
``InducedSeq``), ``norm_rows_on(f)``, ``weighted_lp_form_on(f)``, ``boyd()``,
``is_linf``, ``generator()``.  ``SeqSpaceSpec``: ``norm_rows(V)``,
``e_space`` (the space itself), ``norming_values``, ``weighted_lp_form()``,
``shift_norm_upper(m)`` (a certified bound on ||tau_m||), ``is_linf``,
``generator()``.  The weighted-lp forms are the one answer to "is this space
exactly a weighted ell_p": L_p, the Lorentz space with weight t^(1/p) and the
Orlicz space of F(x) = x^p answer |I_i|^(1/p) on pieces, ``WeightedLp`` its
weights, the modular space of x^p 2^(n/p), and ``InducedSeq`` its space's form
on the blocks; the exponent of a power is read from the profile, never from a
name; a sequence space computes it once.  ``SeqSpaceSpec`` derives from the
form the certified
``shift_upper()`` and ``reversed_space()``, so a weighted ell_p is always a
``WeightedLp``: ``OrderReversed(E)`` is ``E.reversed_space()``, and
``GeometricWeighted(E, b)`` is E at b = 1, else w_n b^n on E's form (w, p);
any other space is reversed and weighted by ``_Conjugated``, which folds a
chain of both.  ``FromSequenceSpace`` delegates ``generator`` to E.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .ascent import STOP_OVERFLOW, STOP_UPPER, _ascend_steps, stop_level, stop_reason
from .errors import ConvergenceError, UsageError, check_budget
from .measure import (UNIT, SeqVec, StepFunction, Window, dyadic_envelope,
                      rearrange)
from .orlicz import LOG2, OrliczFn, _spec_num, indices, log_dilation

_OVERFLOW_RATIO = 1e12
_EPS = float(np.finfo(float).eps)
# kappa_estimate budget and seed behind FromSequenceSpace's kappa_+ < 2 check
_KAPPA_BUDGET, _KAPPA_SEED = 400, 0


# ---------------------------------------------------------------------------
# weight functions for Lorentz spaces
# ---------------------------------------------------------------------------


class WeightFn:
    """Monotone increasing weight with bounded doubling ratio."""

    def doubling_sup(self) -> float:
        raise NotImplementedError

    def __call__(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerWeight(WeightFn):
    """w(t) = t^exponent; exponent = 1/q gives the standard Lorentz L(q,p)."""

    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("power weight needs a positive exponent")

    def __call__(self, t):
        return np.power(np.asarray(t, dtype=float), self.exponent)

    def doubling_sup(self) -> float:
        return 2.0 ** self.exponent


class TableLogLinear(WeightFn):
    """Piecewise log-log-linear weight from a (log t, log w) table."""

    def __init__(self, log_t, log_w, assume_finite_q: bool = False):
        self.log_t = np.asarray(log_t, dtype=float)
        self.log_w = np.asarray(log_w, dtype=float)
        if (self.log_t.ndim != 1 or self.log_t.size < 2 or np.any(np.diff(self.log_t) <= 0)
                or self.log_w.shape != self.log_t.shape):
            raise ValueError("need a strictly increasing log_t grid and one log_w per point")
        slopes = np.diff(self.log_w) / np.diff(self.log_t)
        if np.any(slopes < 0):
            raise ValueError("weight must be monotone increasing")
        self.slopes = slopes
        # doubling ratio w(2t)/w(t) = exp(slope * log 2) per segment
        self._sup = float(np.exp(np.max(slopes) * LOG2))
        if assume_finite_q and np.exp(np.min(slopes) * LOG2) <= 1.0:
            raise ValueError("finite-q regime requires inf w(2t)/w(t) > 1")
        self.assume_finite_q = assume_finite_q

    def _segment(self, lt):
        """Index of the segment containing lt; the end segments extend past
        the table, as the norm integrates them."""
        return np.clip(np.searchsorted(self.log_t, lt, side="right") - 1,
                       0, self.slopes.size - 1)

    def __call__(self, t):
        lt = np.log(np.asarray(t, dtype=float))
        i = self._segment(lt)
        return np.exp(self.log_w[i] + self.slopes[i] * (lt - self.log_t[i]))

    def segment_at(self, lt: float):
        """(anchor log_t, anchor log_w, slope) of the segment containing lt."""
        i = int(self._segment(lt))
        return self.log_t[i], self.log_w[i], float(self.slopes[i])

    def doubling_sup(self) -> float:
        return self._sup


# ---------------------------------------------------------------------------
# function spaces
# ---------------------------------------------------------------------------


@dataclass
class BoydIndices:
    p: float
    q: float
    p_err: float
    q_err: float
    method: str

    def to_json_dict(self):
        return asdict(self)


class SpaceSpec:
    """Base for concrete r.i. function spaces on [0,1] or [0,inf)."""

    domain: str = UNIT
    triangle_constant: float = 1.0
    is_linf: bool = False

    def norm_rows_on(self, f: StepFunction):
        """V -> norms of the rows of a (k, pieces) array of values on the
        pieces of f; rows do not depend on each other.  ``_wlp_norms`` on
        the form wherever ``weighted_lp_form_on(f)`` answers, else ``_rows_on(f)``."""
        if (form := self.weighted_lp_form_on(f)) is not None:
            return lambda V: _wlp_norms(V, *form)
        return self._rows_on(f)

    def _rows_on(self, f: StepFunction):
        raise NotImplementedError  # the space's own formula where no form answers

    def fn_norm(self, f: StepFunction) -> float:
        """Norm of one step function: the one-row case of ``norm_rows_on``."""
        return float(self.norm_rows_on(f)(f.vals[None])[0])

    def weighted_lp_form_on(self, f: StepFunction) -> tuple[np.ndarray, float] | None:
        """(weights, p) when the norm of values on the pieces of f is a
        weighted ell_p, else None."""
        return None

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        """The dyadic sequence space E_X on the window, fast form if known."""
        return InducedSeq(self, window)

    def boyd(self) -> BoydIndices:
        """Boyd indices (p_X, q_X) with error bars, by the best available route."""
        raise UsageError(f"no Boyd-index route for {type(self).__name__}")

    def generator(self) -> OrliczFn | None:
        """The Orlicz function the space is built on, if any."""
        return None

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()} on {self.domain}>"


def _wlp_norms(V: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """The one weighted-ell_p row formula: (sum_i (|v_i| w_i)^p)^(1/p) for each
    row v of V, max_i |v_i| w_i at p = inf.  Each row is summed alone, and its
    root taken as a scalar power: numpy's array ** can differ by an ulp."""
    # w as a (1, n) row: a one-row V (each golden step of K against L_infty)
    # then multiplies without broadcasting, at half the cost
    A = np.abs(V) * w[None]
    if math.isinf(p):
        return np.maximum.reduce(A, axis=1, initial=0.0)
    if p == 1.0:
        return np.add.reduce(A, axis=1)
    A **= p
    root = 1.0 / p
    return np.array([s ** root for s in np.add.reduce(A, axis=1).tolist()])


def _lp_form_on(f: StepFunction, p: float) -> tuple[np.ndarray, float]:
    """L_p's form on the pieces of f: weights |I_i|^(1/p), unit weights at p = inf."""
    if math.isinf(p):
        return np.ones(f.lengths.size), p
    return f.lengths ** (1.0 / p), p


class LpSpace(SpaceSpec):
    def __init__(self, p: float, domain: str = UNIT):
        if p < 1:
            raise ValueError("Lp needs p >= 1")
        self.p = float(p)
        self.domain = domain

    @property
    def is_linf(self) -> bool:
        return math.isinf(self.p)

    def weighted_lp_form_on(self, f: StepFunction) -> tuple[np.ndarray, float]:
        return _lp_form_on(f, self.p)

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        return dyadic_lp(self.p, window)

    def boyd(self) -> BoydIndices:
        return BoydIndices(self.p, self.p, 0.0, 0.0, "analytic")

    def spec_string(self) -> str:
        return "linf" if math.isinf(self.p) else f"lp:p={_spec_num(self.p)}"


def linf_space(domain: str = UNIT) -> LpSpace:
    return LpSpace(math.inf, domain)


class LorentzSpace(SpaceSpec):
    """Quasinorm ||f|| = (int f*(t)^p w(t)^p dt/t)^(1/p), evaluated exactly.

    Kept as the quasinorm exactly as written (no renorming); the triangle
    constant sup w(2t)/w(t) is carried in metadata.  w = t^(1/p) gives L_p.
    """

    def __init__(self, p: float, weight: WeightFn, domain: str = UNIT):
        if not (1 <= p < math.inf):
            raise ValueError("Lorentz order must satisfy 1 <= p < inf")
        self.p = float(p)
        self.weight = weight
        self.domain = domain
        self.triangle_constant = weight.doubling_sup()

    def _piece_integral(self, a: float, b: float) -> float:
        """int_a^b w(t)^p dt/t, exact per log-linear weight segment."""
        p, w = self.p, self.weight
        if isinstance(w, PowerWeight):
            s = w.exponent * p
            return (b ** s - a ** s) / s
        assert isinstance(w, TableLogLinear)
        la = -math.inf if a == 0.0 else math.log(a)
        lb = math.log(b)
        cuts = [la] + [float(t) for t in w.log_t if la < t < lb] + [lb]
        total = 0.0
        for l0, l1 in zip(cuts[:-1], cuts[1:]):
            lt0, lw0, s = w.segment_at(l1 if math.isinf(l0) else l0)
            # w(t)^p = exp(p lw0) (t / exp(lt0))^(p s)
            c = math.exp(p * lw0 - p * s * lt0)
            if s > 0:
                hi = math.exp(p * s * l1)
                lo = 0.0 if math.isinf(l0) else math.exp(p * s * l0)
                total += c * (hi - lo) / (p * s)
            else:
                if math.isinf(l0):
                    return math.inf
                total += c * (l1 - l0)
        return total

    def _rows_on(self, f: StepFunction):
        def norm(vals) -> float:
            fs = rearrange(f.with_values(vals))
            bp = np.asarray(fs.breakpoints)
            acc = 0.0
            for v, a, b in zip(fs.vals, bp[:-1], bp[1:]):
                if v == 0.0:
                    continue
                piece = self._piece_integral(float(a), float(b))
                if math.isinf(piece):
                    return math.inf
                acc += (v ** self.p) * piece
            return acc ** (1.0 / self.p)
        return lambda V: np.array([norm(v) for v in V], dtype=float)

    def weighted_lp_form_on(self, f: StepFunction) -> tuple[np.ndarray, float] | None:
        # t^(1/p) is the one power weight whose quasinorm is L_p itself
        w = self.weight
        if isinstance(w, PowerWeight) and abs(self.p * w.exponent - 1.0) <= 1e-12:
            return _lp_form_on(f, self.p)
        return None

    def boyd(self) -> BoydIndices:
        w = self.weight
        if isinstance(w, PowerWeight):
            q = 1.0 / w.exponent
            return BoydIndices(q, q, 0.0, 0.0, "analytic")
        smax, smin = float(np.max(w.slopes)), float(np.min(w.slopes))
        p = 1.0 / smax if smax > 0 else math.inf
        q = 1.0 / smin if smin > 0 else math.inf
        return BoydIndices(p, q, 0.02, 0.02, "weight-table")

    def spec_string(self) -> str:
        if isinstance(self.weight, PowerWeight):
            return f"lorentz:p={_spec_num(self.p)},w=pow:{_spec_num(self.weight.exponent)}"
        table = (",".join(map(repr, a.tolist())) for a in (self.weight.log_t, self.weight.log_w))
        return f"lorentz:p={_spec_num(self.p)},w=table:<{'>:<'.join(table)}>"


# the log-norm error a Newton stop certifies (G as in _luxemburg_log)
_NEWTON_TOL = 1e-13
# the bracket halves at least every other step (see _luxemburg_log); one no
# wider than the log-range of doubles (~1500) is below the stop width after
# 1 + 2 * ceil(log2(1500 / 1e-13)) = 109 steps
_MAX_ITER = 120


def _luxemburg_log(F: OrliczFn, log_a: np.ndarray, log_w: np.ndarray,
                   beta, lo, hi, nz=None) -> np.ndarray:
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
      reach 1e-13.

    ``log_a`` is a (k, n) array of log |a| with -inf at the zero entries,
    ``log_w`` the (n,) log weights, ``beta``, ``lo``, ``hi`` (k,) arrays of
    each row's start and bracket, and ``nz`` the (k, n) mask of the nonzero
    entries when the caller has it.  Each iteration evaluates the profile
    once, as one fused ``log_eval_slope`` call (h and h' on the same points),
    and the terms exp(log w + h - max) and their products with h' only on
    the packed nonzero entries of the rows still iterating.  The row maxima
    are taken in a -inf-filled (k, n) buffer, and both row sums (S and D of
    G' = -D / S) in one zero-filled (2, k, n) buffer reduced over the full
    width: zeros in place keep numpy's pairwise summation order, so a row's
    result does not depend on the other rows.  As rows finish, the rows still
    iterating reuse the buffers' leading rows.
    """
    k, n = log_a.shape
    out = np.empty(k)
    stop = _NEWTON_TOL
    if (curv := F.curvature()) is not None:
        s_lo, s_hi, lip = curv
        stop = math.sqrt(2.0 * _NEWTON_TOL * s_lo / (lip + 0.25 * (s_hi - s_lo) ** 2))
    er, ec = np.nonzero(log_a > -np.inf if nz is None else nz)
    la, lw = log_a[er, ec], log_w[ec]
    flat = er * n + ec
    top, sums = np.full((k, n), -np.inf), np.zeros((2, k, n))
    top_f, s_f, d_f = top.reshape(-1), sums[0].reshape(-1), sums[1].reshape(-1)
    # row, beta, bracket and previous bracket width of each row still iterating
    rows, betas, los, his = list(range(k)), beta.tolist(), lo.tolist(), hi.tolist()
    widths = [math.inf] * k
    for _ in range(_MAX_ITER):
        live = len(rows)
        h, dh = F.log_eval_slope(la - (betas[0] if live == 1 else np.array(betas)[er]))
        e = lw + h
        top_f[flat] = e
        m = np.maximum.reduce(top[:live], axis=1)
        wts = np.exp(e - m[er])
        s_f[flat] = wts
        d_f[flat] = wts * dh
        S, D = np.add.reduce(sums[:, :live], axis=2).tolist()
        keep = []
        for i, (row, beta, lo, hi, mx) in enumerate(zip(rows, betas, los, his, m.tolist())):
            g = mx + math.log(S[i])
            d = g * S[i] / D[i]
            reach = g * (1.0 + 1e-9)
            if g > 0.0:
                lo, hi = beta, min(hi, beta + reach)
            else:
                lo, hi = max(lo, beta + reach), beta
            if abs(d) <= stop or hi - lo <= _NEWTON_TOL * (1.0 + abs(beta)):
                out[row] = min(max(beta + d, lo), hi)
                continue
            nxt = beta + d
            if not (lo < nxt < hi) or hi - lo > 0.5 * widths[i]:
                nxt = 0.5 * (lo + hi)
            betas[i], los[i], his[i], widths[i] = nxt, lo, hi, hi - lo
            keep.append(i)
        if len(keep) < live:
            if not keep:
                return out
            rows, betas, los, his, widths = ([v[i] for i in keep]
                                             for v in (rows, betas, los, his, widths))
            # renumber the rows still iterating; -1 marks the finished ones
            new = np.full(live, -1)
            new[keep] = np.arange(len(keep))
            er = new[er]
            on = er >= 0
            er, ec, la, lw = er[on], ec[on], la[on], lw[on]
            flat = er * n + ec
            top[:len(keep)] = -np.inf
            sums[:, :len(keep)] = 0.0
    raise ConvergenceError(
        f"Luxemburg solver reached {_MAX_ITER} iterations (bracket "
        f"[{los[0]!r}, {his[0]!r}])")


def _power_exponent(F: OrliczFn) -> float | None:
    """p when F(x) = x^p, read from the profile: h is one affine piece through
    0 (one anchor at (0, 0), the same slope below it as past it).  L_F is then
    L_p, and its modular space the weighted ell_p 2^(n/p); else None."""
    u = F.breaks()
    if u is None or u.size != 1 or u[0] != 0.0 or F.log_eval(0.0) != 0.0:
        return None
    p, below = F.slope(np.array([0.0, -math.inf])).tolist()
    return p if p == below else None


class OrliczSpace(SpaceSpec):
    """Luxemburg norm inf{alpha : int F(|f|/alpha) <= 1} of a step function.

    The modular is sum_i |I_i| F(|f_i| / alpha): the root-find
    ``_luxemburg_log`` of ``OrliczModular`` with the piece lengths as
    weights, started at log max|f|, where the h' >= 1 bound turns the first
    evaluation into a bracket.  F(x) = x^p gives L_p.
    """

    def __init__(self, F: OrliczFn, domain: str = UNIT):
        self.F = F
        self.domain = domain

    def _rows_on(self, f: StepFunction):
        log_len = np.log(f.lengths)

        def rows(V):
            A = np.abs(V)
            out = np.zeros(len(A))
            # each row is solved on its nonzero pieces only, as when alone
            # (zeros in place regroup wide sums); one solve per zero pattern
            groups = {}
            for i, nz in enumerate(A > 0):
                groups.setdefault(nz.tobytes(), (nz, []))[1].append(i)
            for nz, idx in groups.values():
                if nz.any():
                    log_a = np.log(A[idx][:, nz])
                    inf = np.full(len(idx), math.inf)
                    beta = _luxemburg_log(self.F, log_a, log_len[nz], log_a.max(axis=1),
                                          -inf, inf)
                    out[idx] = [math.exp(b) for b in beta.tolist()]
            return out
        return rows

    def weighted_lp_form_on(self, f: StepFunction) -> tuple[np.ndarray, float] | None:
        p = _power_exponent(self.F)
        return None if p is None else _lp_form_on(f, p)

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        return OrliczModular(self.F, window)

    def boyd(self) -> BoydIndices:
        rep, unit = indices(self.F), self.domain == UNIT
        p, q = rep.boyd_unit if unit else rep.boyd_halfline
        err = rep.err_inf if unit else max(rep.err_inf, rep.err_0)
        return BoydIndices(p, q, err + 0.01, err + 0.01, "matuszewska")

    def generator(self) -> OrliczFn:
        return self.F

    def spec_string(self) -> str:
        return f"orlicz:gen=<{self.F.spec_string()}>"


# ---------------------------------------------------------------------------
# sequence spaces
# ---------------------------------------------------------------------------


class SeqSpaceSpec:
    """Kothe sequence space on a window with a dense-array fast path."""

    window: Window
    is_linf: bool = False
    _form: tuple[np.ndarray, float] | None = None  # set once at construction

    def norm_rows(self, V: np.ndarray) -> np.ndarray:
        """Norms of the rows of a (k, window.size) value array: ``_wlp_norms``
        on the space's weighted-lp form when it has one, else ``_rows``."""
        if self._form is not None:
            return _wlp_norms(V, *self._form)
        return self._rows(V)

    def _rows(self, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # the space's own formula where it has no form

    def norm_values(self, vals: np.ndarray) -> float:
        """Norm of one value vector: the one-row case of ``norm_rows``."""
        return float(self.norm_rows(np.asarray(vals, dtype=float)[None])[0])

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        """A sequence space is its own E."""
        return self

    def norming_values(self, xv: np.ndarray) -> np.ndarray:
        """Values of a norming functional g of the nonzero x (see
        ``norming_functional``)."""
        raise NotImplementedError(f"no norming functional for {type(self).__name__}; supported: "
                                  f"weighted lp and Orlicz modular, reversed or b^n-weighted")

    def weighted_lp_form(self) -> tuple[np.ndarray, float] | None:
        """(weights, p) when the space is exactly a weighted ell_p, else None:
        the one answer to "is this space a weighted ell_p"."""
        return self._form

    def shift_upper(self) -> float | None:
        """A certified upper bound on the space's right-shift constant, or None:
        1 on a space with a ``weighted_lp_form``, as its blocks are disjoint,
        so ||sum a_n y_n||^p = sum |a_n|^p ||y_n||^p <= sum |a_n|^p ||x_n||^p
        = ||sum a_n x_n||^p (the max of the same terms for p = inf), whatever
        the weights."""
        return None if self.weighted_lp_form() is None else 1.0

    def shift_norm_upper(self, m: int) -> float | None:
        """A certified upper bound on ||tau_m|| on the window (tau_m as in
        ``shift_values``), widened for rounding, or None."""
        return None

    def generator(self) -> OrliczFn | None:
        """The Orlicz function of the modular space inside, if any."""
        return None

    def norm(self, x: SeqVec) -> float:
        if x.window != self.window:
            raise ValueError("vector window does not match space window")
        return self.norm_values(x.values)

    def unit_norm(self, n: int) -> float:
        vals = np.zeros(self.window.size)
        vals[n - self.window.lo] = 1.0
        return self.norm_values(vals)

    def unit_norms(self) -> np.ndarray:
        return np.array([self.unit_norm(int(n)) for n in self.window.indices()])

    def reversed_space(self) -> "SeqSpaceSpec":
        """The order reversal x(n) -> x(-(n+1)): a ``WeightedLp`` on the
        reversed weights of a space with a form, else ``_Conjugated``."""
        if (form := self.weighted_lp_form()) is not None:
            return WeightedLp(form[1], self.window.reversed(), weights=form[0][::-1].copy())
        return _Conjugated(self, True, (), ("rev:<", ">"), back=self)

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        w = self.window
        return f"<{type(self).__name__} {self.spec_string()} on {w.kind}[{w.lo},{w.hi}]>"


class WeightedLp(SeqSpaceSpec):
    """||x|| = (sum (|x_n| w_n)^p)^(1/p), w_n > 0; p = inf gives max |x_n| w_n.

    ``wexp`` gives the weights w_n = 2^(n wexp) and is kept in the spec
    string; an explicit ``weights`` array is written out in full unless it
    holds the dyadic weights 2^(n/p) of ``dyadic_lp``, and no weights at all
    means wexp = 0.  p = inf with every weight 1 is ell_infty: ``is_linf``
    (an attribute, read on every ``k_numeric`` call) and spec ``seq:linf``.
    """

    def __init__(self, p: float, window: Window, weights=None,
                 wexp: float | None = None):
        if p < 1:
            raise ValueError("weighted lp needs p >= 1")
        if weights is not None and wexp is not None:
            raise ValueError("give weights or wexp, not both")
        self.p = float(p)
        self.window = window
        self.wexp = None
        if weights is None:
            self.wexp = 0.0 if wexp is None else float(wexp)
            with np.errstate(over="ignore"):  # the finite check below reports it
                w = 2.0 ** (window.indices() * self.wexp)
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (window.size,) or not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("need one finite, strictly positive weight per index")
        self.weights = w
        self._form = w, self.p
        self.is_linf = math.isinf(self.p) and bool(np.all(w == 1.0))

    def unit_norm(self, n: int) -> float:
        return float(self.weights[n - self.window.lo])

    def shift_norm_upper(self, m: int) -> float:
        # max_n w_n / w_(n-m), which a unit vector attains; widened for the
        # rounding of the quotient and of the norm's sum over the window
        top = float(np.max(_shift_quotients(self.weights, m), initial=0.0))
        return top * (1.0 + (self.window.size + 8) * _EPS)

    def norming_values(self, xv: np.ndarray) -> np.ndarray:
        w, p = self.weights, self.p
        if math.isinf(p):
            k = int(np.argmax(np.abs(xv) * w))
            g = np.zeros_like(xv)
            g[k] = math.copysign(w[k], xv[k])
            return g
        if p == 1.0:
            return np.where(xv != 0, np.copysign(w, xv), 0.0)
        nrm = self.norm_values(xv)
        return np.sign(xv) * (w ** p) * np.abs(xv) ** (p - 1.0) / nrm ** (p - 1.0)

    def spec_string(self) -> str:
        if self.is_linf:
            return "seq:linf"
        head = f"seq:lpw:p={_spec_num(self.p)}"
        if self.wexp is not None:
            return f"{head},wexp={self.wexp!r}"
        if np.array_equal(self.weights, 2.0 ** (self.window.indices() / self.p)):
            return head
        return f"{head},weights=<{','.join(repr(float(w)) for w in self.weights)}>"


def dyadic_lp(p: float, window: Window) -> WeightedLp:
    """E_X for X = L_p: weighted ell_p with w_n = 2^(n/p); ell_infty for p = inf."""
    return WeightedLp(p, window, weights=2.0 ** (window.indices() / p))


def LinftySeq(window: Window) -> WeightedLp:
    """ell_infty on the window: the weighted ell_p with p = inf and unit weights."""
    return WeightedLp(math.inf, window)


class OrliczModular(SeqSpaceSpec):
    """Luxemburg norm of the modular sum_n 2^n F(|x_n| / alpha).

    This is E_X for X = L_F[0,1] (window on Z_-); the 2^n block weights are
    what lets the space probe F at large arguments: a unit vector may carry
    entries up to lambda_n = F^{-1}(2^{-n}).  The norm is the root-find
    ``_luxemburg_log`` with log weights n log 2, bracketed by the largest
    single-block norm and their sum.  A profile without ``curvature()`` starts
    at the bracket's low end and stops when the Newton correction is at most
    1e-13, with log-error at most |G| since h' >= 1.  A profile with
    curvature (s_lo, s_hi, L) stops on the remainder bound, with log-error at
    most 1e-13, and starts where the modular of x^s, s = (s_lo + s_hi) / 2,
    scaled to agree with F at each lambda_n, is 1: beta_0 = q_max +
    log sum_i exp(s (q_i - q_max)) / s over the row's nonzero entries,
    q_i = log(|x_i| / lambda_i), clamped to the bracket.
    F(x) = x^p gives the weighted ell_p 2^(n/p).
    """

    def __init__(self, F: OrliczFn, window: Window):
        self.F = F
        self.window = window
        ns = window.indices()
        self._log_w = ns.astype(float) * LOG2
        # lambda(n) = F^{-1}(2^{-n}): single-block unit norms are 1/lambda(n)
        self._log_lambda = F.log_lambda(ns)
        # F(x) = x^p: the modular is sum (|x_n| 2^(n/p))^p
        if (p := _power_exponent(F)) is not None:
            self._form = 2.0 ** (ns / p), p

    def _rows(self, V: np.ndarray) -> np.ndarray:
        A = np.abs(V)
        nz = A > 0
        log_a = np.log(A, out=np.full(A.shape, -np.inf), where=nz)
        # single-block norms, 0 at the zero entries; a row's norm lies between
        # the largest of them and their sum
        q = log_a - self._log_lambda
        piece = np.exp(q)
        out = np.maximum.reduce(piece, axis=1)
        hi0 = np.add.reduce(piece, axis=1)
        solve = np.flatnonzero(hi0 > out * (1 + 1e-14))
        if solve.size:
            b_lo, b_hi = np.log(out[solve]), np.log(hi0[solve])
            beta = b_lo
            if (curv := self.F.curvature()) is not None:
                # the root for x^s; the -inf at zero entries add exact zeros
                s = 0.5 * (curv[0] + curv[1])
                qs = q[solve]
                q_max = np.maximum.reduce(qs, axis=1)
                sums = np.add.reduce(np.exp(s * (qs - q_max[:, None])), axis=1)
                beta = np.clip(q_max + np.log(sums) / s, b_lo, b_hi)
            out[solve] = np.exp(_luxemburg_log(self.F, log_a[solve], self._log_w,
                                               beta, b_lo, b_hi, nz[solve]))
        return out

    def unit_norm(self, n: int) -> float:
        return float(np.exp(-self._log_lambda[n - self.window.lo]))

    def shift_norm_upper(self, m: int) -> float | None:
        # rho(tau_m x / (d ||x||)) <= rho(x / ||x||) = 1 when 2^m F(y / d) <= F(y)
        # for every y = |x_n| / ||x|| that stays on the window, y <= lambda_n;
        # widened for the rounding of the norm's sums and of its log weights
        size = self.window.size
        if abs(m) >= size:
            return 0.0
        v_max = float(np.max(self._log_lambda[max(0, -m):size - max(0, m)]))
        log_d = log_dilation(self.F, m * LOG2, v_max)
        if log_d is None:
            return None
        log_d += (size + 4.0 * float(np.max(np.abs(self._log_w)))) * _EPS
        return math.exp(log_d) if log_d < 709.0 else math.inf

    def norming_values(self, xv: np.ndarray) -> np.ndarray:
        xhat = np.abs(xv) / self.norm_values(xv)
        g = np.zeros_like(xv)
        nz = xhat > 0
        w = np.exp(self._log_w[nz])
        g[nz] = w * self.F.deriv(xhat[nz])
        denom = float(np.dot(xhat[nz], g[nz]))
        g[nz] = np.sign(xv[nz]) * g[nz] / denom
        return g

    def generator(self) -> OrliczFn:
        return self.F

    def spec_string(self) -> str:
        return f"seq:orlicz-modular:gen=<{self.F.spec_string()}>"


class _Conjugated(SeqSpaceSpec):
    """||x|| = ||x~ s_1 ... s_k||_inner, x~(n) = x(-(n+1)) if ``reverse``, else x.

    A conjugated ``inner`` folds in (its s_i after these, these reversed if it
    reverses; reversals XORed), so ``inner`` is never conjugated.  The s_i > 0
    on inner's window multiply in the chain's order; their product is checked
    once.  Spec: ``spec[0] + inner spec + spec[1]``; reversal returns ``back``.
    """

    def __init__(self, inner: SeqSpaceSpec, reverse: bool, scales: tuple, spec, back=None):
        if isinstance(inner, _Conjugated):
            scales = tuple(s[::-1] if inner.reverse else s for s in scales) + inner.scales
            spec = (spec[0] + inner.spec[0], inner.spec[1] + spec[1])
            inner, reverse = inner.inner, reverse != inner.reverse
        with np.errstate(over="ignore"):  # the check below reports it
            if not np.all(np.isfinite(s := reduce(np.multiply, scales, 1.0)) & (s > 0)):
                raise ValueError("need one finite, strictly positive weight per index")
        self.inner, self.reverse, self.scales, self.spec, self.back = (
            inner, reverse, scales, spec, back)
        self.window = inner.window.reversed() if reverse else inner.window

    def _rows(self, V: np.ndarray) -> np.ndarray:
        return self.inner.norm_rows(reduce(np.multiply, self.scales,
                                           V[:, ::-1] if self.reverse else V))

    def unit_norm(self, n: int) -> float:
        m = -(n + 1) if self.reverse else n
        return reduce(lambda u, s: float(s[m - self.inner.window.lo]) * u,
                      self.scales[::-1], self.inner.unit_norm(m))

    def shift_norm_upper(self, m: int) -> float | None:
        # a reversal maps tau_m to tau_-m; with z = x~ S, (tau_k x~) S is
        # (tau_k z) S_n / S_(n-k) <= max S_n / S_(n-k) tau_k z in the lattice
        k = -m if self.reverse else m
        inner = self.inner.shift_norm_upper(k)
        if inner is None or not self.scales:
            return inner
        top = float(np.max(_shift_quotients(reduce(np.multiply, self.scales), k), initial=0.0))
        return top * inner * (1.0 + (len(self.scales) + 2) * _EPS)

    def norming_values(self, xv: np.ndarray) -> np.ndarray:
        y = reduce(np.multiply, self.scales, xv[::-1] if self.reverse else xv)
        g = reduce(np.multiply, self.scales[::-1], self.inner.norming_values(y))
        return g[::-1] if self.reverse else g

    def generator(self) -> OrliczFn | None:
        return self.inner.generator()

    def reversed_space(self) -> SeqSpaceSpec:
        return super().reversed_space() if self.back is None else self.back

    def spec_string(self) -> str:
        return self.spec[0] + self.inner.spec_string() + self.spec[1]


def GeometricWeighted(inner: SeqSpaceSpec, base: float) -> SeqSpaceSpec:
    """E(b^n): ``inner`` at b = 1, the WeightedLp w_n b^n on its form (w, p), else conjugated."""
    if base == 1.0:
        return inner
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = float(base) ** inner.window.indices().astype(float)
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"weight base {base!r} gives weights b^n not all finite and > 0")
    if (form := inner.weighted_lp_form()) is not None:
        with np.errstate(over="ignore"):  # WeightedLp reports it
            return WeightedLp(form[1], inner.window, weights=form[0] * w)
    return _Conjugated(inner, False, (w,), ("seq:from:<", f">,weightbase={float(base)!r}"))


def OrderReversed(inner: SeqSpaceSpec) -> SeqSpaceSpec:
    """||x|| = ||x~||_inner with x~(n) = x(-(n+1)): ``inner.reversed_space()``."""
    return inner.reversed_space()


class InducedSeq(SeqSpaceSpec):
    """E_X by direct reconstruction: norm of sum x(n) chi_[2^n, 2^(n+1)) in X.

    Fallback for spaces without a closed-form E_X (Lorentz with general
    weights); the reconstruction rearranges internally, so the space is
    automatically symmetric in the r.i. sense.
    """

    def __init__(self, space: SpaceSpec, window: Window):
        self.space = space
        self.window = window
        # the pieces [0, 2^lo), [2^n, 2^(n+1)); the form drops the first
        pieces = SeqVec(window, np.ones(window.size)).to_step(space.domain)
        if (form := space.weighted_lp_form_on(pieces)) is not None:
            self._form = form[0][1:], form[1]
        else:
            self._blocks = space._rows_on(pieces)

    def _rows(self, V: np.ndarray) -> np.ndarray:
        return self._blocks(np.insert(V, 0, 0.0, axis=1))

    def norming_values(self, xv: np.ndarray) -> np.ndarray:
        if (form := self.weighted_lp_form()) is not None:
            return WeightedLp(form[1], self.window, weights=form[0]).norming_values(xv)
        return super().norming_values(xv)

    def spec_string(self) -> str:
        return f"seq:induced:<{self.space.spec_string()}>"


def seq_norm(space, x: SeqVec) -> float:
    """Norm of a sequence vector; function spaces are routed through E_X."""
    if not isinstance(space, (SpaceSpec, SeqSpaceSpec)):
        raise TypeError(f"cannot take a sequence norm in {space!r}")
    return space.e_space(x.window).norm(x)


class FromSequenceSpace(SpaceSpec):
    """r.i. space built from a sequence space: ||f|| = ||(f*(2^n))_n||_E.

    Requires the fitted shift growth kappa_+(E) < 2 (checked at construction
    via ``kappa_estimate``; the estimate's extrapolated value is used and
    recorded, and it also gives the Boyd indices).  The domain follows the
    window kind: Z_- models [0,1], Z and Z_+ model [0, inf).
    """

    def __init__(self, E: SeqSpaceSpec):
        self.E = E
        self.window = E.window
        self.domain = self.window.domain
        self.triangle_constant = 2.0
        self.kappa = kappa_estimate(E, budget=_KAPPA_BUDGET, seed=_KAPPA_SEED)
        if not (self.kappa.plus_est < 2.0):
            raise ValueError(
                f"space-from-sequence needs kappa_+(E) < 2; fitted "
                f"{self.kappa.plus_est:.4f}")

    def _rows_on(self, f: StepFunction):
        return lambda V: self.E.norm_rows(np.array(
            [dyadic_envelope(f.with_values(v), self.window).values for v in V]
        ).reshape(-1, self.window.size))

    def boyd(self) -> BoydIndices:
        est = self.kappa
        p = 1.0 / math.log2(est.plus_est) if est.plus_est > 1 else math.inf
        q = -1.0 / math.log2(est.minus_est) if est.minus_est < 1 else math.inf
        p_err = abs(p - (1.0 / math.log2(est.plus_lb) if est.plus_lb > 1 else math.inf))
        q_err = abs(q - (-1.0 / math.log2(est.minus_lb) if est.minus_lb < 1 else math.inf))
        return BoydIndices(p, q, min(p_err, 1.0), min(q_err, 1.0), "kappa-estimate")

    def generator(self) -> OrliczFn | None:
        return self.E.generator()

    def spec_string(self) -> str:
        return f"fromseq:<{self.E.spec_string()}>"


# ---------------------------------------------------------------------------
# rho profile and exponential separation
# ---------------------------------------------------------------------------


def rho_profile(E: SeqSpaceSpec, F: SeqSpaceSpec, window: Window) -> dict[int, float]:
    """rho(n) = ||e_n||_E / ||e_n||_F for n in the window."""
    out = {}
    for n in window.indices():
        out[int(n)] = E.unit_norm(int(n)) / F.unit_norm(int(n))
    return out


@dataclass
class SeparationFit:
    beta: float
    C0: float
    separated: bool
    residuals: dict[int, float] = field(default_factory=dict)
    rho: dict[int, float] = field(default_factory=dict)

    def to_json_dict(self):
        return {"beta": self.beta, "C0": self.C0, "separated": self.separated,
                "residuals": {str(k): v for k, v in sorted(self.residuals.items())},
                "rho": {str(k): v for k, v in sorted(self.rho.items())}}


def fit_separation(rho: dict[int, float]) -> SeparationFit:
    """Exhaustive fit of rho(m+n) >= C0^{-1} 2^{n beta} rho(m) over the window.

    beta is the worst pairwise slope of log2 rho; C0 the smallest constant
    making the inequality hold for every pair at that beta.  separated
    means beta > 0.
    """
    ns = sorted(rho)
    if any(rho[n] <= 0 for n in ns):
        raise ValueError("rho must be strictly positive")
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


# ---------------------------------------------------------------------------
# shift-norm (kappa) estimation
# ---------------------------------------------------------------------------


def shift_values(vals: np.ndarray, n: int) -> np.ndarray:
    """(tau_n x) on the same window: the last axis shifted up by n, zero-filled."""
    out = np.zeros_like(vals)
    size = vals.shape[-1]
    if n >= 0:
        if n < size:
            out[..., n:] = vals[..., :size - n]
    else:
        out[..., :n] = vals[..., -n:]
    return out


def _shift_quotients(a: np.ndarray, m: int) -> np.ndarray:
    """a[i] / a[i - m] over the positions i where both lie in a (inf where
    a quotient overflows)."""
    size = a.size
    if abs(m) >= size:
        return a[:0]
    with np.errstate(over="ignore"):
        return a[m:] / a[:size - m] if m > 0 else a[:size + m] / a[-m:]


@dataclass
class KappaEstimate:
    """Shift growth rates: witnessed ratios, estimates and certified bounds.

    ``table`` holds the best ratio ||tau_n x|| / ||x|| found for each tested
    shift n and ``table_ub`` the space's certified bound on ||tau_n|| (inf
    without one, or past the overflow ratio, where ratios read as inf too), so
    ||tau_n|| on the window lies in [table[n], table_ub[n]].
    ``plus_lb``/``minus_lb`` are the max over n of table[+-n]^(1/n), lower
    bounds on the largest ||tau_n||^(1/n); ``plus_est``/``minus_est``
    extrapolate the geometric-mean slope of log ||tau_n|| over the largest
    tested shifts; ``plus_ub``/``minus_ub`` are the min over n of
    table_ub[+-n]^(1/n), upper bounds on kappa = inf_n ||tau_n||^(1/n)
    (Fekete: ||tau_(a+b)|| <= ||tau_a|| ||tau_b||) wherever the window's
    bounds hold for the space.  The true kappa can exceed the estimate;
    verdict logic must treat these as estimates.
    """

    plus_lb: float
    plus_est: float
    minus_lb: float
    minus_est: float
    table: dict[int, float] = field(default_factory=dict)
    table_ub: dict[int, float] = field(default_factory=dict)
    plus_ub: float = math.inf
    minus_ub: float = math.inf

    def to_json_dict(self):
        return {"plus_lb": self.plus_lb, "plus_est": self.plus_est,
                "minus_lb": self.minus_lb, "minus_est": self.minus_est,
                "plus_ub": self.plus_ub, "minus_ub": self.minus_ub,
                "table": {str(k): v for k, v in sorted(self.table.items())},
                "table_ub": {str(k): v for k, v in sorted(self.table_ub.items())}}


def _shift_ratios(space: SeqSpaceSpec, V: np.ndarray, n: int) -> np.ndarray:
    """||tau_n v|| / ||v|| for each row v of V: 0 where ||v|| = 0, inf past
    the overflow ratio."""
    den, num = space.norm_rows(np.concatenate([V, shift_values(V, n)])).reshape(2, -1)
    out = np.divide(num, den, out=np.zeros(den.size), where=den != 0.0)
    out[(den != 0.0) & (num > _OVERFLOW_RATIO * den)] = math.inf
    return out


def _shift_bound(space: SeqSpaceSpec, n: int) -> float:
    """The space's certified bound on ||tau_n||: inf without one, and past
    the overflow ratio, where the ratios read as inf too."""
    ub = space.shift_norm_upper(n)
    return math.inf if ub is None or ub > _OVERFLOW_RATIO else ub


def _best_shift_ratio(space: SeqSpaceSpec, n: int, budget: int,
                      rng: np.random.Generator, units: np.ndarray, upper: float) -> float:
    """Best ||tau_n x|| / ||x|| over the unit vectors (``units`` holds their
    norms), then over ``budget`` random starts, each followed by 8 ascent
    steps; every start and its steps are drawn first and ascended as lanes.
    When the unit vectors reach the stop level of ``upper``, the certified
    bound on ||tau_n||, the bracket is closed and the starts are drawn but
    not ascended, so the generator moves on as if they had been."""
    size = space.window.size
    # unit vectors first: exact on every Kothe space, tight for weighted lp
    best = float(np.max(_shift_quotients(units, n), initial=0.0))
    level = stop_level(None, upper)
    lanes, states = [], []
    ok = np.arange(-n, size) if n < 0 else np.arange(size - n)
    for _ in range(max(1, budget)):
        vals = np.zeros(size)
        k = rng.integers(1, max(2, size // 4))
        idx = rng.choice(ok, size=min(k, ok.size), replace=False)
        vals[idx] = rng.random(idx.size) + 0.1
        # idx[rng.integers(idx.size)] draws as rng.choice(idx) does, at less cost
        coords, factors = zip(*[(int(idx[rng.integers(idx.size)]),
                                 2.0 if rng.random() < 0.5 else 0.5) for _ in range(8)])
        lanes.append([vals, None, np.array(coords), np.array(factors), 8])
        states.append(rng.bit_generator.state)
    if stop_reason(best, level) == STOP_UPPER:
        return best
    # margin 0.0, not ACCEPT_REL, which would move kappa tables by up to 6e-4
    for (r, _, _, _), state in zip(
            _ascend_steps(lambda V: _shift_ratios(space, V, n), lanes, 0.0), states):
        best = max(best, r)
        if stop_reason(best, level) == STOP_OVERFLOW:
            # the starts after an overflow are never drawn: the next shift
            # draws from the state just past this start
            rng.bit_generator.state = state
            break
    return best


def kappa_estimate(E: SeqSpaceSpec, budget: int = 800, seed: int = 0) -> KappaEstimate:
    """Adversarial lower-bound estimate of kappa_±(E) = lim ||tau_{±n}||^{1/n}
    on E's window, which needs at least two indices and a budget of at
    least 1, bracketed from above by E's certified bounds on ||tau_n||; a
    shift whose unit vectors reach its bound skips its ascent."""
    check_budget(budget)
    window = E.window
    if window.size < 2:
        raise UsageError(f"kappa_estimate needs a window of at least 2 indices; "
                         f"this one has {window.size}")
    rng = np.random.default_rng(seed)
    n_max = max(1, window.size // 2)
    shifts = sorted(set([1, 2] + [n_max // 2, n_max] +
                        list(np.unique(np.geomspace(1, n_max, 6).astype(int)))))
    shifts = [n for n in shifts if 1 <= n <= n_max]
    per = max(4, budget // max(1, 2 * len(shifts)))
    units = E.unit_norms()
    table: dict[int, float] = {}
    table_ub: dict[int, float] = {}
    for n in shifts:
        for m in (n, -n):
            table_ub[m] = _shift_bound(E, m)
            table[m] = _best_shift_ratio(E, m, per, rng, units, table_ub[m])

    def summarize(sign: int):
        pairs = [(n, table[sign * n]) for n in shifts if table[sign * n] > 0]
        if not pairs:
            return 0.0, 0.0
        if any(math.isinf(r) for _, r in pairs):
            return math.inf, math.inf
        lb = max(r ** (1.0 / n) for n, r in pairs)
        top = pairs[-max(1, len(pairs) // 3):]
        est = math.exp(float(np.mean([math.log(r) / n for n, r in top])))
        return lb, est

    plus_lb, plus_est = summarize(+1)
    minus_lb, minus_est = summarize(-1)
    # the root widened for the rounding of 1/n, the power and the product
    plus_ub, minus_ub = (min(table_ub[sign * n] ** (1.0 / n) * (1.0 + 32 * _EPS)
                             for n in shifts) for sign in (+1, -1))
    return KappaEstimate(plus_lb, plus_est, minus_lb, minus_est, table,
                         table_ub, plus_ub, minus_ub)


# ---------------------------------------------------------------------------
# norming functionals  (Kothe-dual elements with <x, g> = ||x||, ||g||* = 1)
# ---------------------------------------------------------------------------


def norming_functional(E: SeqSpaceSpec, x: SeqVec) -> SeqVec:
    """g >= 0-signed with supp g in supp x, ||g||_{E*} = 1, <x, g> = ||x||_E.

    Closed forms for weighted ell_p (1 <= p <= inf); for Orlicz modular
    spaces the gradient of the modular at x/||x|| is the exact maximizer of
    <h, g> over the unit ball (first-order condition of the concave
    problem), which pins ||g||* = <x/||x||, g>.  The closed forms are the
    spaces' ``norming_values``; a caller that needs <x, g> = ||x||_E checked
    compares the pairing with the norm it already holds.
    """
    if not np.any(x.values):
        raise ValueError("cannot norm the zero vector")
    return SeqVec(x.window, E.norming_values(x.values))
