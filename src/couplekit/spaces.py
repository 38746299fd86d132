"""Norm evaluators: the Kothe sequence spaces on a window.

A sequence space is modelled on a Window, and ``norm_rows`` norms the rows
of a (k, n) array.  The base class decides once: a space whose weighted-lp
form answers is normed by the one row formula ``_wlp_norms`` on it (which
norms the function spaces of ``fnspaces`` on their forms too), any other by
its own ``_rows``.  Rows never depend on each other; ``norm_values`` is the
one-row case.  The Orlicz rows are ``orlicz._orlicz_rows``.  The
adversarial searches (the RSP/LSP shift search, kappa, the ``op_norm`` lower
bound) share the one ascent of ``couplekit.ascent`` and one ratio of rows,
``_row_ratios``.

The dyadic sequence space of a function space X is E_X with
||x||_{E_X} = ||sum x(n) chi_[2^n,2^(n+1))||_X; for X = L_p this is the
weighted ell_p space with weights 2^(n/p), for X = L_infty it is ell_infty
(the p = inf member, with unit weights), and for X = L_F it is the modular
space with block weights 2^n; any other is ``fnspaces.InducedSeq``.

Only this module and ``fnspaces`` (the r.i. function spaces) know the
concrete space classes: other modules ask a space through its protocol,
whose base-class defaults describe a space without closed forms.
``SeqSpaceSpec``: ``norm_rows(V, grad=False)`` (with
``grad``, the rows' norming functionals G too, as (norms, G), 0 on a zero
row; an ``InducedSeq`` without a form has none, a ``UsageError``), ``e_space``
(the space itself), ``weighted_lp_form()``, ``unit_norms()`` (the rows of
the identity, ``unit_norm(n)`` one of them), ``shift_norm_upper(m)`` (a
certified bound on ||tau_m||), ``generator()``.
The weighted-lp forms are the one answer to "is this space exactly a
weighted ell_p", p = inf included: ``WeightedLp`` its weights, the modular
space of x^p 2^(n/p), ``InducedSeq`` its space's form on the blocks; a
power's exponent is read from the profile once per space, never from a name.
``SeqSpaceSpec`` reads every closed form from the form (w, p): the norms
and their norming functionals, ||e_n|| = w_n, max w_n / w_(n-m) for
||tau_m||, ``shift_upper()`` and ``reversed_space()``; a space without one
answers from two hooks, its rows ``_rows(V, grad)`` (its unit norms are the
norms of the identity's rows) and ``_shift_norm_upper``.
So a weighted ell_p is a ``WeightedLp`` (a constructor and a spec string):
``OrderReversed(E)`` is ``E.reversed_space()``, ``GeometricWeighted(E, b)``
E at b = 1, else w_n b^n on E's form; any other space is reversed and
weighted by ``_Conjugated``, which folds a chain of both.  Data meets a
sequence space through one check, ``_check_windows``: a vector, family or
window off the space's window is a ``UsageError`` naming both windows.
This module imports no ``fnspaces``; ``orlicz``, ``analysis`` and ``kappa``
are imported by the methods that call them.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .measure import LOG2, SeqVec, Window, _spec_num

if TYPE_CHECKING:
    from .orlicz import OrliczFn

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


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
            raise UsageError("weighted lp needs p >= 1")
        if weights is not None and wexp is not None:
            raise UsageError("give weights or wexp, not both")
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
            raise UsageError("need one finite, strictly positive weight per index")
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
        raise UsageError("weighted lp needs p >= 1")
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
        from .orlicz import _power_exponent  # loaded with F's class
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
        from .orlicz import _orlicz_rows
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
        from .analysis import log_dilation
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
                raise UsageError("need one finite, strictly positive weight per index")
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
        raise UsageError(f"weight base {base!r} gives weights b^n not all finite and > 0")
    if (form := inner.weighted_lp_form()) is not None:
        with np.errstate(over="ignore"):  # WeightedLp reports it
            return WeightedLp(form[1], inner.window, weights=form[0] * w)
    return _Conjugated(inner, False, (w,), ("seq:from:<", f">,weightbase={float(base)!r}"))


def OrderReversed(inner: SeqSpaceSpec) -> SeqSpaceSpec:
    """||x|| = ||x~||_inner with x~(n) = x(-(n+1)): ``inner.reversed_space()``."""
    return inner.reversed_space()



# ---------------------------------------------------------------------------
# shifts and ratios of rows
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


def _row_ratios(space: SeqSpaceSpec, D: np.ndarray, N: np.ndarray) -> np.ndarray:
    """||n|| / ||d|| for the rows d of D and n of N (0 where ||d|| = 0), from
    one ``norm_rows`` call on the stacked D and N."""
    den, num = space.norm_rows(np.concatenate([D, N])).reshape(2, -1)
    return np.divide(num, den, out=np.zeros(den.size), where=den != 0.0)
