"""Norm evaluators: r.i. function spaces and their Kothe sequence spaces.

Function-space variants (Lp, the Lorentz quasinorm of a power weight,
Orlicz/Luxemburg, and the space-from-sequence construction) evaluate exactly
on step functions -- every integral is a finite sum over pieces.
``norm_rows_on(f)`` binds the
pieces of f and norms the rows of a (k, pieces) array of values on them;
sequence-space variants are modelled on a Window, and ``norm_rows`` norms the
rows of a (k, n) array.  The base classes decide once: a space whose
weighted-lp form answers is normed by the one row formula ``_wlp_norms`` on
it, any other by its own ``_rows_on(f)`` or ``_rows``.  Rows never depend on
each other; ``fn_norm`` and ``norm_values`` are the one-row cases.  The Lorentz and space-from-sequence rows are one sort of the
batch (``measure._decreasing``) and one array formula: the weight's
closed-form int_0^T w^p dt/t at the sorted cumulative lengths T, or f*(2^n)
of every row normed by one ``E.norm_rows`` call.  Every
Orlicz norm that is not a power's goes through one row path, ``_orlicz_rows``:
a step function's pieces are the modular's entries, with weights |I_i| and
levels F^{-1}(1 / |I_i|).  It brackets each row by its single-entry norms and
makes one root-find of the log-modular G, ``_luxemburg_log``: bracketed Newton
steps on the log-norm, row by row over a batch of rows, stopped when the
Newton correction is at most 1e-13 (h' >= 1 bounds the error by |G|), or one
step earlier on a profile whose ``curvature()`` bounds h' and h'', when
Newton's remainder bound certifies a log-error of at most 1e-13, or when the
bracket is at most 1e-13 (1 + |log ||f|| |) wide.  That width is the
certified log-error: a flat 1e-13 only for norms near 1.  The row path
packs a batch's nonzero entries once; the bracket, the start and the solver
run their logs and exps on those entries only, their row sums over the full
width of zero-filled rows (a NaN entry stays an entry, so its row is NaN); a
batch of at least ``_ARRAY_ROWS`` rows steps its Newton state as arrays, to
the same floats, while that many rows iterate.  The adversarial searches (the RSP/LSP shift
search, kappa, the ``op_norm`` lower bound) share
the one ascent of ``couplekit.ascent`` and one ratio of rows, ``_row_ratios``.
Kappa draws all random starts of a shift first and ascends them as lanes;
after an overflowing start it puts the generator back to the state just past
that start's draws.  A shift whose unit vectors reach the stop level of the
space's certified bound on ||tau_n|| is closed: its starts are drawn and not
ascended, and after the last open shift none are drawn.

The dyadic sequence space of a function space X is E_X with
||x||_{E_X} = ||sum x(n) chi_[2^n,2^(n+1))||_X; for X = L_p this is the
weighted ell_p space with weights 2^(n/p), for X = L_infty it is ell_infty
(the p = inf member, with unit weights), and for X = L_F it is the modular
space with block weights 2^n.

Only this module knows the concrete space classes: other modules ask a space
through its protocol, whose base-class defaults describe a space without
closed forms.  ``SpaceSpec``: ``e_space(window)`` (E_X, by default
``InducedSeq``), ``norm_rows_on(f)``, ``weighted_lp_form_on(f)``, ``boyd()``,
``generator()``.  ``SeqSpaceSpec``: ``norm_rows(V, grad=False)`` (with
``grad``, the rows' norming functionals G too, as (norms, G), 0 on a zero
row; an ``InducedSeq`` without a form has none, a ``UsageError``), ``e_space``
(the space itself), ``weighted_lp_form()``, ``unit_norms()`` (the rows of
the identity, ``unit_norm(n)`` one of them), ``shift_norm_upper(m)`` (a
certified bound on ||tau_m||), ``generator()``.
The weighted-lp forms are the one answer to "is this space exactly a
weighted ell_p", p = inf included: a function space fixes ``_lp`` at
construction (p for L_p, the Lorentz space of t^(1/p) and the Orlicz space
of x^p, else None), from which ``SpaceSpec`` alone answers |I_i|^(1/p) on
pieces; ``WeightedLp`` its weights, the modular space of x^p 2^(n/p),
``InducedSeq`` its space's form on the blocks; a power's exponent is read
from the profile once per space, never from a name.
``SeqSpaceSpec`` reads every closed form from the form (w, p): the norms
and their norming functionals, ||e_n|| = w_n, max w_n / w_(n-m) for
||tau_m||, ``shift_upper()`` and ``reversed_space()``; a space without one
answers from two hooks, its rows ``_rows(V, grad)`` (its unit norms are the
norms of the identity's rows) and ``_shift_norm_upper``.
So a weighted ell_p is a ``WeightedLp`` (a constructor and a spec string):
``OrderReversed(E)`` is ``E.reversed_space()``, ``GeometricWeighted(E, b)``
E at b = 1, else w_n b^n on E's form; any other space is reversed and
weighted by ``_Conjugated``, which folds a chain of both.
``FromSequenceSpace`` delegates ``generator`` to E.  Data meets a
sequence space through one check, ``_check_windows``: a vector, family or
window off the space's window is a ``UsageError`` naming both windows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .ascent import STOP_OVERFLOW, STOP_UPPER, _ascend_steps, stop_level, stop_reason
from .errors import ConvergenceError, UsageError, check_budget
from .measure import (LOG2, UNIT, SeqVec, StepFunction, Window, _decreasing, _sample_decreasing,
                      _spec_num)

if TYPE_CHECKING:
    from .orlicz import OrliczFn

_OVERFLOW_RATIO = 1e12
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# kappa_estimate budget and seed behind FromSequenceSpace's kappa_+ < 2 check
_KAPPA_BUDGET, _KAPPA_SEED = 400, 0


# ---------------------------------------------------------------------------
# the power weight of Lorentz spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = t^exponent; exponent = 1/q gives the standard Lorentz L(q,p).
    ``integral(p, T)`` is W(T) = int_0^T w(t)^p dt/t for an array of T > 0,
    in closed form."""

    exponent: float

    def __post_init__(self):
        if not self.exponent > 0:
            raise ValueError("power weight needs a positive exponent")

    def integral(self, p: float, T: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # past the float range W(T) is inf
            return np.power(T, self.exponent * p) / (self.exponent * p)


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
    _lp: float | None = None  # p when the space is L_p, set once at construction

    def norm_rows_on(self, f: StepFunction, form: bool = False):
        """V -> norms of the rows of a (k, pieces) array of values on the
        pieces of f; rows do not depend on each other.  ``_wlp_norms`` on
        the form wherever ``weighted_lp_form_on(f)`` answers, else ``_rows_on(f)``;
        with ``form``, (rows, that form), the form read once."""
        lp = self.weighted_lp_form_on(f)
        rows = self._rows_on(f) if lp is None else (lambda V: _wlp_norms(V, *lp))
        return (rows, lp) if form else rows

    def _rows_on(self, f: StepFunction):
        raise NotImplementedError  # the space's own formula where no form answers

    def fn_norm(self, f: StepFunction) -> float:
        """Norm of one step function: the one-row case of ``norm_rows_on``."""
        return float(self.norm_rows_on(f)(f.vals[None])[0])

    def weighted_lp_form_on(self, f: StepFunction) -> tuple[np.ndarray, float] | None:
        """(weights, p) when the norm of values on the pieces of f is a
        weighted ell_p, else None: L_p's |I_i|^(1/p), unit weights at p = inf,
        when the space is L_p (its ``_lp``)."""
        if (p := self._lp) is None:
            return None
        return (np.ones(f.lengths.size) if math.isinf(p) else f.lengths ** (1.0 / p)), p

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
    # w as a (1, n) row: a one-row V (a segment root or golden step of K
    # against L_infty) then multiplies without broadcasting, at half the cost
    A = np.abs(V) * w[None]
    if math.isinf(p):
        return np.maximum.reduce(A, axis=1, initial=0.0)
    if p == 1.0:
        return np.add.reduce(A, axis=1)
    with np.errstate(over="ignore"):  # an overflowing sum is rescaled below
        A **= p
        sums = np.add.reduce(A, axis=1).tolist()
    root = 1.0 / p
    out = np.array([s ** root for s in sums])
    # a sum that is 0, subnormal or inf lost the norm: m (sum (t_i / m)^p)^(1/p)
    if sums and not _TINY <= min(sums) <= max(sums) < math.inf:
        for i in [i for i, s in enumerate(sums) if not _TINY <= s < math.inf]:
            t = np.abs(V[i]) * w
            if 0.0 < (m := float(np.max(t))) < math.inf:  # m = max t_i
                out[i] = m * float(np.add.reduce((t / m) ** p)) ** root
    return out


class LpSpace(SpaceSpec):
    def __init__(self, p: float, domain: str = UNIT):
        if not p >= 1:
            raise ValueError("Lp needs p >= 1")
        self.p = self._lp = float(p)
        self.domain = domain

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

    Kept as the quasinorm exactly as written (no renorming).  w = t^(1/p)
    gives L_p.  A batch of rows on the pieces of f is one ``_decreasing`` sort
    (S, T) and one array formula, ||v||^p = sum_k S_k^p (W(T_k) - W(T_(k-1))),
    with the weight's closed-form ``integral`` W(T) = int_0^T w^p dt/t.
    """

    def __init__(self, p: float, weight: PowerWeight, domain: str = UNIT):
        if not (1 <= p < math.inf):
            raise ValueError("Lorentz order must satisfy 1 <= p < inf")
        self.p = float(p)
        self.weight = weight
        self.domain = domain
        # t^(1/p) is the one power weight whose quasinorm is L_p itself
        if abs(self.p * weight.exponent - 1.0) <= 1e-12:
            self._lp = self.p

    def _rows_on(self, f: StepFunction):
        def rows(V: np.ndarray) -> np.ndarray:
            S, T = _decreasing(V, f.lengths)
            # past a T where T^(p e) overflows, W is inf: the increments stay inf
            W = self.weight.integral(self.p, T)
            dW = W.copy()
            np.subtract(W[:, 1:], W[:, :-1], out=dW[:, 1:], where=W[:, :-1] < math.inf)
            terms = np.multiply(S ** self.p, dW, out=np.zeros(S.shape), where=S > 0.0)
            return np.add.reduce(terms, axis=1) ** (1.0 / self.p)
        return rows

    def boyd(self) -> BoydIndices:
        q = 1.0 / self.weight.exponent
        return BoydIndices(q, q, 0.0, 0.0, "analytic")

    def spec_string(self) -> str:
        return f"lorentz:p={_spec_num(self.p)},w=pow:{_spec_num(self.weight.exponent)}"


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
    taken in one zero-filled (2, k, n) buffer reduced over the full width:
    zeros in place keep numpy's pairwise summation order, so a row's result
    does not depend on the other rows; the rows still iterating reuse its
    leading rows.  A batch of at least ``_ARRAY_ROWS`` rows keeps each row's
    beta, bracket and previous width in arrays, stepped as whole-array
    operations; below that, the rows step one by one in lists.  Both steps
    compute the same floats (``math.log`` per row, Python's min/max as
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
    s_f, d_f = sums[0].reshape(-1), sums[1].reshape(-1)
    # row, beta, bracket and previous bracket width of each row still
    # iterating: arrays while the batch is wide, then lists
    if wide := k >= _ARRAY_ROWS:
        rows, betas, los, his, widths = np.arange(k), beta, lo, hi, np.full(k, math.inf)
    else:
        rows, betas, los, his = list(range(k)), beta.tolist(), lo.tolist(), hi.tolist()
        widths = [math.inf] * k
    for _ in range(_MAX_ITER):
        live = len(rows)
        h, dh = F.log_eval_slope(la - (betas[0] if live == 1 else np.asarray(betas)[er]))
        e = lw + h
        m = np.maximum.reduceat(e, starts)
        wts = np.exp(e - m[er])
        s_f[flat] = wts
        d_f[flat] = wts * dh
        SD = np.add.reduce(sums[:, :live], axis=2)
        if wide:
            S, D = SD
            # the list rule below as array operations; np.where on strict
            # comparisons is Python's min/max, signed zeros included
            g = m + np.fromiter(map(math.log, S.tolist()), float, live)
            d = g * S / D
            reach = betas + g * (1.0 + 1e-9)
            up = g > 0.0
            los, his = (np.where(up, betas, np.where(reach > los, reach, los)),
                        np.where(up, np.where(reach < his, reach, his), betas))
            nxt, width = betas + d, his - los
            done = (np.abs(d) <= stop) | (width <= _NEWTON_TOL * (1.0 + np.abs(betas)))
            keep = np.flatnonzero(~done)
            if len(keep) < live:
                end = np.where(los > nxt, los, nxt)
                out[rows[done]] = np.where(his < end, his, end)[done]
            bisect = ~((los < nxt) & (nxt < his)) | (width > 0.5 * widths)
            betas, widths = np.where(bisect, 0.5 * (los + his), nxt), width
        else:
            keep = []
            S, D = SD.tolist()
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
            if not len(keep):
                return out
            state = [v[keep] if wide else [v[i] for i in keep]
                     for v in (rows, betas, los, his, widths)]
            if wide and len(keep) < _ARRAY_ROWS:  # the rows left iterate as lists
                wide, state = False, [v.tolist() for v in state]
            rows, betas, los, his, widths = state
            # renumber the rows still iterating; -1 marks the finished ones
            new = np.full(live, -1)
            new[keep] = np.arange(len(keep))
            er = new[er]
            on = er >= 0
            er, ec, la, lw = er[on], ec[on], la[on], lw[on]
            flat = er * n + ec
            sums[:, :len(keep)] = 0.0
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
    q_max + log sum exp(s (q_i - q_max)) / s, q_i = log b_i, clamped."""
    k, n = V.shape
    er, ec = np.nonzero(V)
    la = np.log(np.abs(V[er, ec]))
    q = la - log_lambda[ec]
    piece = np.zeros((k, n))
    with np.errstate(over="ignore"):  # a sum past the float range opens the bracket
        piece[er, ec] = np.exp(q)
        out = np.maximum.reduce(piece, axis=1)
        hi0 = np.add.reduce(piece, axis=1)
    solve = hi0 > out * (1 + 1e-14)
    if solve.any():
        on = solve[er]
        er, ec, la, q = (np.cumsum(solve) - 1)[er[on]], ec[on], la[on], q[on]
        b_lo, b_hi = np.log(out[solve]), np.log(hi0[solve])
        beta = b_lo
        if (curv := F.curvature()) is not None:
            s = 0.5 * (curv[0] + curv[1])
            q_max = np.maximum.reduceat(q, er.searchsorted(np.arange(b_lo.size)))
            piece = np.zeros((b_lo.size, n))
            piece[er, ec] = np.exp(s * (q - q_max[er]))
            beta = np.clip(q_max + np.log(np.add.reduce(piece, axis=1)) / s, b_lo, b_hi)
        out[solve] = np.exp(_luxemburg_log(F, er, ec, la, log_w, beta, b_lo, b_hi))
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


class OrliczSpace(SpaceSpec):
    """Luxemburg norm inf{alpha : int F(|f|/alpha) <= 1} of a step function.

    The modular is sum_i |I_i| F(|f_i| / alpha), so the rows on the pieces of
    f are ``_orlicz_rows`` with log weights log |I_i| and levels
    lambda_i = F^{-1}(1 / |I_i|), solved once per f by one ``log_inv`` call:
    closed-form on a piecewise-affine profile, a bisection of about 60 profile
    calls on a smooth one, which a one-off ``fn_norm`` pays in full.
    F(x) = x^p gives L_p.
    """

    def __init__(self, F: OrliczFn, domain: str = UNIT):
        self.F = F
        self.domain = domain
        self._lp = _power_exponent(F)

    def _rows_on(self, f: StepFunction):
        log_len = np.log(f.lengths)
        log_lambda = np.atleast_1d(self.F.log_inv(-log_len))
        return lambda V: _orlicz_rows(self.F, V, log_len, log_lambda)

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        return OrliczModular(self.F, window)

    def boyd(self) -> BoydIndices:
        from .orlicz import indices  # loaded with self.F's class

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


def _check_windows(what: str, window: Window, *spaces: SeqSpaceSpec):
    """The one check of data against spaces: each must be on ``window`` (on
    another of the same size its weights fall on the wrong indices), else a
    ``UsageError`` naming the space and both windows."""
    for space in spaces:
        if space.window != window:
            a, b = space.window, window
            raise UsageError(f"window mismatch: {space.spec_string()} is on "
                             f"{a.kind}[{a.lo},{a.hi}], the {what} on {b.kind}[{b.lo},{b.hi}]")


class SeqSpaceSpec:
    """Kothe sequence space on a window with a dense-array fast path."""

    window: Window
    _form: tuple[np.ndarray, float] | None = None  # set once at construction

    def norm_rows(self, V: np.ndarray, grad: bool = False):
        """Norms of the rows of a (k, window.size) value array, with ``grad``
        as (norms, G), G the rows' norming functionals: supp g in supp v,
        <v, g> = ||v||, ||g||* = 1 for each nonzero row v, and g = 0 for a
        zero row (any g of the dual ball norms it).  On the form (w, p):
        ``_wlp_norms`` and the scale-free g_i = sgn(v_i) w_i
        (w_i |v_i| / ||v||)^(p-1), whose power neither overflows nor loses a
        tiny row (sgn(v_k) w_k at the first k of largest w_k |v_k| at p = inf);
        else the space's own ``_rows(V, grad)``."""
        if self._form is None:
            return self._rows(V, grad)
        w, p = self._form
        norms = _wlp_norms(V, w, p)
        if not grad:
            return norms
        if math.isinf(p):
            top = np.argmax(np.abs(V) * w, axis=1)[:, None] == np.arange(V.shape[1])
            return norms, np.where(top & (norms != 0.0)[:, None], np.copysign(w, V), 0.0)
        # a zero row divides by 1: its sgn(v_i) = 0 makes g = 0
        scale = np.where(norms == 0.0, 1.0, norms)[:, None]
        return norms, np.sign(V) * w * (np.abs(V) * w / scale) ** (p - 1.0)

    def _rows(self, V: np.ndarray, grad: bool = False):
        raise NotImplementedError  # the space's own formula where it has no form

    def norm_values(self, vals: np.ndarray) -> float:
        """Norm of one value vector: the one-row case of ``norm_rows``."""
        return float(self.norm_rows(np.asarray(vals, dtype=float)[None])[0])

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        """A sequence space is its own E."""
        return self

    def weighted_lp_form(self) -> tuple[np.ndarray, float] | None:
        """(weights, p) when the space is exactly a weighted ell_p, p = inf too, else None."""
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
        if self._form is None:
            return self._shift_norm_upper(m)
        # max_n w_n / w_(n-m), which a unit vector attains; widened for the
        # rounding of the quotient and of the norm's sum over the window
        top = float(np.max(_shift_quotients(self._form[0], m), initial=0.0))
        return top * (1.0 + (self.window.size + 8) * _EPS)

    def _shift_norm_upper(self, m: int) -> float | None:
        return None

    def generator(self) -> OrliczFn | None:
        """The Orlicz function of the modular space inside, if any."""
        return None

    def norm(self, x: SeqVec) -> float:
        _check_windows("vector", x.window, self)
        return self.norm_values(x.values)

    def unit_norm(self, n: int) -> float:
        """||e_n||: one row of ``unit_norms``."""
        if self._form is None:
            return self.norm_values(np.eye(1, self.window.size, n - self.window.lo)[0])
        return float(self._form[0][n - self.window.lo])

    def unit_norms(self) -> np.ndarray:
        """||e_n|| over the window: the form's weights, else the identity's rows' norms."""
        form = self._form
        return self.norm_rows(np.eye(self.window.size)) if form is None else form[0].copy()

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
    means wexp = 0.  p = inf with every weight 1 is ell_infty, spec ``seq:linf``.
    """

    def __init__(self, p: float, window: Window, weights=None,
                 wexp: float | None = None):
        if not p >= 1:
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

    def spec_string(self) -> str:
        if math.isinf(self.p) and np.all(self.weights == 1.0):
            return "seq:linf"
        head = f"seq:lpw:p={_spec_num(self.p)}"
        if self.wexp is not None:
            return f"{head},wexp={self.wexp!r}"
        if np.array_equal(self.weights, 2.0 ** (self.window.indices() / self.p)):
            return head
        return f"{head},weights=<{','.join(repr(float(w)) for w in self.weights)}>"


def dyadic_lp(p: float, window: Window) -> WeightedLp:
    """E_X for X = L_p: weighted ell_p with w_n = 2^(n/p); ell_infty for p = inf."""
    if not p >= 1:  # before 2^(n/p) divides by it
        raise ValueError("weighted lp needs p >= 1")
    return WeightedLp(p, window, weights=2.0 ** (window.indices() / p))


def LinftySeq(window: Window) -> WeightedLp:
    """ell_infty on the window: the weighted ell_p with p = inf and unit weights."""
    return WeightedLp(math.inf, window)


class OrliczModular(SeqSpaceSpec):
    """Luxemburg norm of the modular sum_n 2^n F(|x_n| / alpha).

    This is E_X for X = L_F[0,1] (window on Z_-); the 2^n block weights are
    what lets the space probe F at large arguments: a unit vector may carry
    entries up to lambda_n = F^{-1}(2^{-n}).  Its rows are ``_orlicz_rows``
    with log weights n log 2 and these levels.  F(x) = x^p gives the weighted
    ell_p 2^(n/p).
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

    def _rows(self, V: np.ndarray, grad: bool = False):
        norms = _orlicz_rows(self.F, V, self._log_w, self._log_lambda)
        if not grad:
            return norms
        # the modular's gradient at v / ||v||, scaled to <v / ||v||, g> = 1:
        # one F' call on the packed nonzero entries, then one dot per row
        # a zero row divides by 1 and keeps g = 0 (it has no entry to scale)
        xhat = np.abs(V) / np.where(norms == 0.0, 1.0, norms)[:, None]
        G = np.zeros_like(V)
        r, c = np.nonzero(xhat > 0)
        G[r, c] = np.exp(self._log_w[c]) * self.F.deriv(xhat[r, c])
        for g, v, x in zip(G, V, xhat):
            nz = x > 0
            g[nz] = np.sign(v[nz]) * g[nz] / float(np.dot(x[nz], g[nz]))
        return norms, G

    def _shift_norm_upper(self, m: int) -> float | None:
        # rho(tau_m x / (d ||x||)) <= rho(x / ||x||) = 1 when 2^m F(y / d) <= F(y)
        # for every y = |x_n| / ||x|| that stays on the window, y <= lambda_n;
        # widened for the rounding of the norm's sums and of its log weights
        from .orlicz import log_dilation  # loaded with self.F's class

        size = self.window.size
        if abs(m) >= size:
            return 0.0
        v_max = float(np.max(self._log_lambda[max(0, -m):size - max(0, m)]))
        log_d = log_dilation(self.F, m * LOG2, v_max)
        if log_d is None:
            return None
        log_d += (size + 4.0 * float(np.max(np.abs(self._log_w)))) * _EPS
        return math.exp(log_d) if log_d < 709.0 else math.inf

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

    def _rows(self, V: np.ndarray, grad: bool = False):
        Y = reduce(np.multiply, self.scales, V[:, ::-1] if self.reverse else V)
        if not grad:
            return self.inner.norm_rows(Y)
        # g = (inner g at x~ S) S, reversed back
        norms, G = self.inner.norm_rows(Y, grad=True)
        G = reduce(np.multiply, self.scales[::-1], G)
        return norms, G[:, ::-1] if self.reverse else G

    def _shift_norm_upper(self, m: int) -> float | None:
        # a reversal maps tau_m to tau_-m; with z = x~ S, (tau_k x~) S is
        # (tau_k z) S_n / S_(n-k) <= max S_n / S_(n-k) tau_k z in the lattice
        k = -m if self.reverse else m
        inner = self.inner.shift_norm_upper(k)
        if inner is None or not self.scales:
            return inner
        top = float(np.max(_shift_quotients(reduce(np.multiply, self.scales), k), initial=0.0))
        return top * inner * (1.0 + (len(self.scales) + 2) * _EPS)

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

    Fallback for spaces without a closed-form E_X (a Lorentz space whose
    weight is not t^(1/p)); the reconstruction rearranges internally, so the
    space is automatically symmetric in the r.i. sense.  Without a form it
    has no norming functional: ``grad`` is a ``UsageError``.
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

    def _rows(self, V: np.ndarray, grad: bool = False):
        if grad:
            raise UsageError("no norming functional for InducedSeq; supported: weighted "
                             "lp and Orlicz modular, reversed or b^n-weighted")
        return self._blocks(np.insert(V, 0, 0.0, axis=1))

    def spec_string(self) -> str:
        return f"seq:induced:<{self.space.spec_string()}>"


class FromSequenceSpace(SpaceSpec):
    """r.i. space built from a sequence space: ||f|| = ||(f*(2^n))_n||_E.

    Requires the fitted shift growth kappa_+(E) < 2 (checked at construction
    via ``kappa_estimate``; the estimate's extrapolated value is used and
    recorded, and it also gives the Boyd indices).  The domain follows the
    window kind: Z_- models [0,1], Z and Z_+ model [0, inf).  A batch of rows
    samples f*(2^n) off one ``_decreasing`` sort and makes one ``E.norm_rows``.
    """

    def __init__(self, E: SeqSpaceSpec):
        self.E = E
        self.window = E.window
        self.domain = self.window.domain
        self.kappa = kappa_estimate(E, budget=_KAPPA_BUDGET, seed=_KAPPA_SEED)
        if not (self.kappa.plus_est < 2.0):
            raise ValueError(
                f"space-from-sequence needs kappa_+(E) < 2; fitted "
                f"{self.kappa.plus_est:.4f}")

    def _rows_on(self, f: StepFunction):
        points = np.power(2.0, self.window.indices().astype(float))
        return lambda V: self.E.norm_rows(_sample_decreasing(*_decreasing(V, f.lengths), points))

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
    """rho(n) = ||e_n||_E / ||e_n||_F for n in the window, which must be E's
    and F's (``_check_windows``), from one ``unit_norms()`` each."""
    _check_windows("window", window, E, F)
    ue, uf = E.unit_norms().tolist(), F.unit_norms().tolist()
    return {n: a / b for n, a, b in zip(window.indices().tolist(), ue, uf)}


@dataclass
class SeparationFit:
    beta: float
    C0: float
    separated: bool
    residuals: dict[int, float] = field(default_factory=dict)
    rho: dict[int, float] = field(default_factory=dict)


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
    bounds on the largest ||tau_n||^(1/n), not on kappa;
    ``plus_est``/``minus_est`` extrapolate the geometric-mean slope of
    log ||tau_n|| over the largest tested shifts; ``plus_ub``/``minus_ub``
    are the min over n of table_ub[+-n]^(1/n), upper bounds on
    kappa = inf_n ||tau_n||^(1/n) (Fekete: ||tau_(a+b)|| <= ||tau_a||
    ||tau_b||) wherever the window's bounds hold for the space.  The true
    kappa can exceed the estimate; verdict logic must treat these as
    estimates.
    """

    plus_lb: float
    plus_est: float
    minus_lb: float
    minus_est: float
    table: dict[int, float] = field(default_factory=dict)
    table_ub: dict[int, float] = field(default_factory=dict)
    plus_ub: float = math.inf
    minus_ub: float = math.inf


def _row_ratios(space: SeqSpaceSpec, D: np.ndarray, N: np.ndarray) -> np.ndarray:
    """||n|| / ||d|| for the rows d of D and n of N (0 where ||d|| = 0), from
    one ``norm_rows`` call on the stacked D and N."""
    den, num = space.norm_rows(np.concatenate([D, N])).reshape(2, -1)
    return np.divide(num, den, out=np.zeros(den.size), where=den != 0.0)


def _shift_ratios(space: SeqSpaceSpec, V: np.ndarray, n: int) -> np.ndarray:
    """||tau_n v|| / ||v|| for each row v of V: 0 where ||v|| = 0, inf past
    the overflow ratio."""
    out = _row_ratios(space, V, shift_values(V, n))
    out[out > _OVERFLOW_RATIO] = math.inf
    return out


def _shift_bound(space: SeqSpaceSpec, n: int) -> float:
    """The space's certified bound on ||tau_n||: inf without one, and past
    the overflow ratio, where the ratios read as inf too."""
    ub = space.shift_norm_upper(n)
    return math.inf if ub is None or ub > _OVERFLOW_RATIO else ub


def _best_shift_ratio(space: SeqSpaceSpec, n: int, budget: int,
                      rng: np.random.Generator, best: float, upper: float) -> float:
    """Best ||tau_n x|| / ||x|| over ``best``, the unit vectors' ratio, and
    ``budget`` random starts, each followed by 8 ascent steps; every start
    and its steps are drawn first and ascended as lanes.  When ``best``
    reaches the stop level of ``upper``, the certified bound on ||tau_n||,
    the bracket is closed and the starts are drawn but not ascended, so the
    generator moves on as if they had been."""
    size = space.window.size
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
    """Adversarial estimate of kappa_±(E) = lim ||tau_{±n}||^{1/n} =
    inf_n ||tau_{±n}||^{1/n} on E's window, which needs at least two indices
    and a budget of at least 1.  ``plus_lb``/``minus_lb`` (max_n
    table^(1/n)) bound max_n ||tau_{±n}||^(1/n) from below, not kappa; the
    certified side of kappa is ``plus_ub``/``minus_ub``, from E's certified
    bounds on ||tau_n||.  A shift whose unit vectors reach its bound skips
    its ascent; every shift's closure is decided first, and no starts are
    drawn after the last shift that ascends, as none would be read."""
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
    units, order = E.unit_norms(), [m for n in shifts for m in (n, -n)]
    # shift -> certified bound, best ratio (the unit vectors' first: exact on any Kothe space)
    table_ub = {m: _shift_bound(E, m) for m in order}
    table = {m: float(np.max(_shift_quotients(units, m), initial=0.0)) for m in order}
    last = max((i for i, m in enumerate(order)
                if stop_reason(table[m], stop_level(None, table_ub[m])) != STOP_UPPER), default=-1)
    for m in order[:last + 1]:
        table[m] = _best_shift_ratio(E, m, per, rng, table[m], table_ub[m])

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
