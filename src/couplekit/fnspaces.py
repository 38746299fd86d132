"""R.i. function spaces on [0,1] or [0,inf) and the step functions they norm.

``StepFunction`` is a finitely supported step function f with f = v_i on
[t_{i-1}, t_i) and f = 0 past the last breakpoint.  The decreasing
rearrangement of a step function is again a step function, so every integral
in the package is a finite exact sum.  f* has one sort per batch of rows,
``_decreasing``, behind ``rearrange``, ``dyadic_envelope`` and the Lorentz
and space-from-sequence rows.  ``dyadic_envelope`` is the bridge to
sequences: sampling f* at the dyadic points 2^n gives the coefficients of
G = sum f*(2^n) chi_[2^n,2^(n+1)), with f* <= G <= D_2 f* on the covered range.

The spaces (Lp, the Lorentz quasinorm of a power weight, Orlicz/Luxemburg,
and the space-from-sequence construction) evaluate exactly on step
functions.  ``SpaceSpec`` is their protocol: ``norm_rows_on(f)`` binds the
pieces of f and norms the rows of a (k, pieces) array of values on them, by
``spaces._wlp_norms`` on the form ``weighted_lp_form_on(f)`` where it
answers (read from the L_p exponent ``_lp`` a space fixes at construction),
else by the space's own ``_rows_on(f)``; ``fn_norm`` (one row),
``e_space(window)`` (E_X, by default ``InducedSeq``), ``boyd()`` and
``generator()`` (E's, for ``FromSequenceSpace``).  A shift search on the
sequence spaces of ``spaces`` loads no part of this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .measure import HALFLINE, UNIT, SeqVec, Window, _Record, _spec_num
from .spaces import OrliczModular, SeqSpaceSpec, _wlp_norms, dyadic_lp

if TYPE_CHECKING:
    from .orlicz import OrliczFn

_DOMAINS = (UNIT, HALFLINE)
# kappa_estimate budget and seed behind FromSequenceSpace's kappa_+ < 2 check
_KAPPA_BUDGET, _KAPPA_SEED = 400, 0


class StepFunction(_Record):
    """Right-continuous step function, zero past its last breakpoint.

    ``breakpoints`` is the strictly increasing grid t_0 = 0 < t_1 < ... < t_m
    and ``values`` the piece values v_1..v_m with f = v_i on [t_{i-1}, t_i).
    On the unit-interval domain t_m <= 1.  Values may be negative; operations
    that need |f| take the absolute value themselves.  ``lengths`` (the piece
    lengths) and ``vals`` are read-only arrays built once; they are not
    fields, so equality, hash and JSON see the tuples only.
    """

    _fields = ("domain", "breakpoints", "values")
    __setattr__ = __delattr__ = _Record._read_only
    __hash__ = _Record._hash

    def __init__(self, domain: str, breakpoints: tuple[float, ...], values: tuple[float, ...]):
        if domain not in _DOMAINS:
            raise UsageError(f"unknown domain {domain!r}")
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size == 0 or bp[0] != 0.0:
            raise UsageError("breakpoints must start at 0")
        if bp.size != len(values) + 1:
            raise UsageError("need exactly one more breakpoint than values")
        lengths = np.diff(bp)
        if np.any(lengths <= 0):
            raise UsageError("breakpoints must be strictly increasing")
        if domain == UNIT and bp[-1] > 1.0 + 1e-15:
            raise UsageError("unit-interval step function exceeds [0,1]")
        values = tuple(float(v) for v in values)
        vals = np.array(values)
        lengths.setflags(write=False)
        vals.setflags(write=False)
        vars(self).update(domain=domain, breakpoints=tuple(float(t) for t in bp),
                          values=values, lengths=lengths, vals=vals)

    # -- basic geometry ----------------------------------------------------

    def __call__(self, t) -> np.ndarray:
        """Evaluate f at t (scalar or array), right-continuous, 0 past t_m."""
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        idx = np.searchsorted(bp, t, side="right") - 1
        out = np.zeros_like(t, dtype=float)
        inside = (idx >= 0) & (idx < len(self.values))
        out[inside] = self.vals[idx[inside]]
        return out

    # -- algebra on a shared grid -------------------------------------------

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.domain, self.breakpoints, tuple(float(v) for v in values))

    def scale(self, c: float) -> "StepFunction":
        return self.with_values(c * self.vals)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain,
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "StepFunction":
        return StepFunction(d["domain"], tuple(d["breakpoints"]), tuple(d["values"]))


def char_fn(a: float, b: float, domain: str = UNIT, height: float = 1.0) -> StepFunction:
    """height * chi_[a,b) as a StepFunction."""
    if a > 0:
        return StepFunction(domain, (0.0, a, b), (0.0, height))
    return StepFunction(domain, (0.0, b), (height,))


def zero_fn(domain: str = UNIT) -> StepFunction:
    return StepFunction(domain, (0.0, 1.0), (0.0,))


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def _decreasing(V: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decreasing rearrangement of each row of V on pieces of the given
    lengths, as (S, T): S is |V| sorted decreasingly along each row (stably,
    so ties stay in piece order) and T the cumulative piece lengths in that
    order, so the row's f* is S[k] on [T[k-1], T[k]) with T[-1] = 0.  The
    lengths of a run of equal values are summed first and then added to the
    run's start, as ``rearrange`` merges them: T at the end of each run is a
    breakpoint of f* to the bit."""
    A = np.abs(V)
    order = np.argsort(-A, axis=1, kind="stable")
    S = np.take_along_axis(A, order, axis=1)
    run = lengths[order]  # becomes each piece's partial sum within its run
    tie = S[:, 1:] == S[:, :-1]
    for j in np.flatnonzero(tie.any(axis=0)) + 1:
        run[:, j] += np.where(tie[:, j - 1], run[:, j - 1], 0.0)
    end = np.ones(S.shape, dtype=bool)
    end[:, :-1] = ~tie
    # a running sum of the run totals (zeros elsewhere add exactly) is each
    # run's start, to which its pieces' partial sums are added
    starts = np.cumsum(np.where(end, run, 0.0), axis=1)
    T = run
    T[:, 1:] += starts[:, :-1]
    return S, T


def _sample_decreasing(S: np.ndarray, T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f*(points) for each row of ``_decreasing``'s (S, T): the S entry of the
    piece with T[k-1] <= point < T[k], 0 past the support."""
    k = np.add.reduce(T[:, :, None] <= points, axis=1)
    return np.take_along_axis(np.pad(S, ((0, 0), (0, 1))), k, axis=1)


def rearrange(f: StepFunction) -> StepFunction:
    """Decreasing rearrangement f* of |f|.

    f* is the nonincreasing right-continuous step function equimeasurable
    with |f|: for every level c > 0 the sets {|f| > c} and {f* > c} have the
    same measure.  It is the one row of ``_decreasing``, a run of equal values
    one piece; pieces of value 0 or of no length at float resolution are
    dropped, so the result is supported on [0, m(supp f)).
    """
    (S,), (T,) = _decreasing(f.vals[None], f.lengths)
    end = S > 0.0
    end[:-1] &= S[1:] != S[:-1]
    v, t = S[end], T[end]
    keep = np.diff(t, prepend=0.0) > 0.0
    if not keep.any():
        return zero_fn(f.domain)
    return StepFunction(f.domain, (0.0, *t[keep].tolist()), tuple(v[keep].tolist()))


def star_integral(f: StepFunction, t: float) -> float:
    """int_0^t f*(s) ds, exact from steps, for t > 0."""
    fs = rearrange(f)
    bp = np.asarray(fs.breakpoints)
    covered = np.clip(np.minimum(bp[1:], t) - bp[:-1], 0.0, None)
    return float(np.dot(fs.vals, covered))


def dyadic_envelope(f: StepFunction, window: Window) -> SeqVec:
    """Sample f* at the dyadic points: returns (f*(2^n))_{n in window}.

    The reconstructed step function G = sum f*(2^n) chi_[2^n,2^(n+1)) satisfies
    f* <= G <= D_2 f* on [2^lo, 2^(hi+1)).  If f* still carries mass outside
    that range the result is flagged with meta["truncated"] = True.
    """
    S, T = _decreasing(f.vals[None], f.lengths)
    points = np.append(np.power(2.0, window.indices().astype(float)), 2.0 ** (window.hi + 1))
    (samples,) = _sample_decreasing(S, T, points)
    vec = SeqVec(window, samples[:-1])
    vec.meta["truncated"] = bool(samples[-1] > 0.0 or np.max(S, initial=0.0) > samples[0])
    return vec


# ---------------------------------------------------------------------------
# the power weight of Lorentz spaces
# ---------------------------------------------------------------------------


class PowerWeight(_Record):
    """w(t) = t^exponent; exponent = 1/q gives the standard Lorentz L(q,p).
    ``integral(p, T)`` is W(T) = int_0^T w(t)^p dt/t for an array of T > 0,
    in closed form."""

    _fields = ("exponent",)
    __setattr__ = __delattr__ = _Record._read_only
    __hash__ = _Record._hash

    def __init__(self, exponent: float):
        if not exponent > 0:
            raise UsageError("power weight needs a positive exponent")
        vars(self)["exponent"] = exponent

    def integral(self, p: float, T: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # past the float range W(T) is inf
            return np.power(T, self.exponent * p) / (self.exponent * p)


# ---------------------------------------------------------------------------
# function spaces
# ---------------------------------------------------------------------------


class BoydIndices(_Record):
    _fields = ("p", "q", "p_err", "q_err", "method")

    def __init__(self, p: float, q: float, p_err: float, q_err: float, method: str):
        self.p, self.q, self.p_err, self.q_err, self.method = p, q, p_err, q_err, method

    def to_json_dict(self):
        return self._field_dict()


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



class LpSpace(SpaceSpec):
    def __init__(self, p: float, domain: str = UNIT):
        if not p >= 1:
            raise UsageError("Lp needs p >= 1")
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
            raise UsageError("Lorentz order must satisfy 1 <= p < inf")
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
        from .orlicz import _power_exponent  # loaded with F's class
        self.F = F
        self.domain = domain
        self._lp = _power_exponent(F)

    def _rows_on(self, f: StepFunction):
        from .orlicz import _orlicz_rows
        log_len = np.log(f.lengths)
        log_lambda = np.atleast_1d(self.F.log_inv(-log_len))
        return lambda V: _orlicz_rows(self.F, V, log_len, log_lambda)

    def e_space(self, window: Window) -> "SeqSpaceSpec":
        return OrliczModular(self.F, window)

    def boyd(self) -> BoydIndices:
        from .analysis import indices
        rep, unit = indices(self.F), self.domain == UNIT
        p, q = rep.boyd_unit if unit else rep.boyd_halfline
        err = rep.err_inf if unit else max(rep.err_inf, rep.err_0)
        return BoydIndices(p, q, err + 0.01, err + 0.01, "matuszewska")

    def generator(self) -> OrliczFn:
        return self.F

    def spec_string(self) -> str:
        return f"orlicz:gen=<{self.F.spec_string()}>"


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
        from .kappa import kappa_estimate
        self.E = E
        self.window = E.window
        self.domain = self.window.domain
        self.kappa = kappa_estimate(E, budget=_KAPPA_BUDGET, seed=_KAPPA_SEED)
        if not (self.kappa.plus_est < 2.0):
            raise UsageError(f"space-from-sequence needs kappa_+(E) < 2; "
                             f"fitted {self.kappa.plus_est:.4f}")

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
