import functools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from couplekit import (GeometricWeighted, LinftySeq, OrderReversed, OrliczModular,
                       SeqVec, StepFunction, WeightedLp, Window, dyadic_lp,
                       example1, pwpower, zero_fn)
import couplekit.spaces as spaces
from couplekit.spaces import _Conjugated


def random_step(rng, n_pieces=None, domain="unit", vmax=3.0):
    """Seeded nonnegative step function with irregular breakpoints."""
    if n_pieces is None:
        n_pieces = int(rng.integers(4, 14))
    top = 1.0 if domain == "unit" else float(rng.uniform(0.5, 20.0))
    cuts = np.sort(rng.uniform(0.0, top, size=n_pieces - 1))
    bp = np.concatenate([[0.0], cuts, [top]])
    bp = np.unique(bp)
    vals = rng.uniform(0.0, vmax, size=bp.size - 1)
    return StepFunction(domain, tuple(bp), tuple(vals))


def random_seqvec(rng, window: Window, k=None, scale_sigma=2.0):
    if k is None:
        k = int(rng.integers(2, max(3, window.size // 3)))
    vals = np.zeros(window.size)
    idx = rng.choice(window.size, size=min(k, window.size), replace=False)
    vals[idx] = np.exp(rng.normal(0.0, scale_sigma, size=idx.size))
    return SeqVec(window, vals)


class KernelCount:
    """A profile for the Luxemburg solver that appends the size of each fused
    ``log_eval_slope`` call made on it to ``counts``."""

    def __init__(self, F, counts: list):
        self.F, self.counts = F, counts

    def curvature(self):
        return self.F.curvature()

    def log_eval_slope(self, u):
        self.counts.append(u.size)
        return self.F.log_eval_slope(u)


def count_solver_kernel(monkeypatch, counts: list) -> None:
    """Route every ``spaces._luxemburg_log`` call through a ``KernelCount``."""
    solve = spaces._luxemburg_log
    monkeypatch.setattr(spaces, "_luxemburg_log",
                        lambda F, *args: solve(KernelCount(F, counts), *args))


def reference_orlicz_rows(F, V, log_w, log_lambda):
    """``spaces._orlicz_rows`` with its prep on the dense (k, n) batch, as
    before the rows were packed: |V|, log |v| with -inf at the zeros, exp of
    q = log |v| - log lambda, the row max and sum, the solve rows sliced out
    and the curvature start on their dense q; the solver gets the entries of
    the dense nonzero mask.  A NaN entry reads as a zero here (NaN > 0 is
    False), so this is the reference on NaN-free rows only."""
    A = np.abs(V)
    nz = A > 0
    log_a = np.log(A, out=np.full(A.shape, -np.inf), where=nz)
    q = log_a - log_lambda
    with np.errstate(over="ignore"):
        piece = np.exp(q)
        out = np.maximum.reduce(piece, axis=1)
        hi0 = np.add.reduce(piece, axis=1)
    solve = np.flatnonzero(hi0 > out * (1 + 1e-14))
    if solve.size:
        b_lo, b_hi = np.log(out[solve]), np.log(hi0[solve])
        beta = b_lo
        if (curv := F.curvature()) is not None:
            s = 0.5 * (curv[0] + curv[1])
            qs = q[solve]
            q_max = np.maximum.reduce(qs, axis=1)
            sums = np.add.reduce(np.exp(s * (qs - q_max[:, None])), axis=1)
            beta = np.clip(q_max + np.log(sums) / s, b_lo, b_hi)
        er, ec = np.nonzero(nz[solve])
        out[solve] = np.exp(spaces._luxemburg_log(F, er, ec, log_a[solve][er, ec], log_w,
                                                  beta, b_lo, b_hi))
    return out


def _log_modular(F, log_a, log_w, beta):
    expo = log_w + F.log_eval(log_a - beta)
    m = float(np.max(expo))
    return m + math.log(float(np.sum(np.exp(expo - m))))


def reference_norm(F, vals, log_w):
    """inf{alpha : sum w_i F(|v_i| / alpha) <= 1} by bisection on log alpha."""
    a = np.abs(vals)
    nz = a > 0
    log_a, log_w = np.log(a[nz]), log_w[nz]
    lo = hi = float(np.max(log_a))
    step = 1.0
    while _log_modular(F, log_a, log_w, lo) <= 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while _log_modular(F, log_a, log_w, hi) > 0.0:
        hi += step
        step *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.exp(hi)
        if _log_modular(F, log_a, log_w, mid) > 0.0:
            lo = mid
        else:
            hi = mid


def reference_brudnyi_samples(rng, window: Window, lam: dict, J: list, n_samples: int,
                              k_max: int = 6) -> np.ndarray:
    """The Brudnyi evidence sampler as one dict of entries per sample, made a
    ``SeqVec``: per sample, the size, ``choice`` of the indices J, the scale,
    then one ``random()`` per index, valued (u + 0.05) * scale * lam[n]."""
    def sample_on():
        idx = rng.choice(J, size=min(len(J), int(rng.integers(1, k_max + 1))), replace=False)
        scale = np.exp(rng.normal(0.0, 2.0))
        ent = {int(n): float(rng.random() + 0.05) * scale * lam[int(n)] for n in idx}
        return SeqVec.from_entries(window, ent).values

    return np.array([sample_on() for _ in range(n_samples)])


def reference_rearrange(f: StepFunction) -> StepFunction:
    """f* by one Python sort and merge per function: drop the zero pieces,
    sort stably by decreasing |value|, sum the lengths of each run of equal
    values, add each run to the breakpoint before it, and drop a run whose
    length collapses at float resolution."""
    v = np.abs(f.vals)
    keep = v > 0.0
    v, lens = v[keep], f.lengths[keep]
    if v.size == 0:
        return zero_fn(f.domain)
    order = np.argsort(-v, kind="stable")
    merged_v, merged_l = [v[order[0]]], [lens[order[0]]]
    for val, ln in zip(v[order[1:]], lens[order[1:]]):
        if val == merged_v[-1]:
            merged_l[-1] += ln
        else:
            merged_v.append(val)
            merged_l.append(ln)
    bp, out_v = [0.0], []
    for val, ln in zip(merged_v, merged_l):
        if bp[-1] + ln > bp[-1]:
            bp.append(bp[-1] + ln)
            out_v.append(val)
    return StepFunction(f.domain, tuple(bp), tuple(out_v))


def reference_star_integral(f: StepFunction, t: float) -> float:
    fs = reference_rearrange(f)
    bp = np.asarray(fs.breakpoints)
    return float(np.dot(fs.vals, np.clip(np.minimum(bp[1:], t) - bp[:-1], 0.0, None)))


def reference_dyadic_envelope(f: StepFunction, window: Window) -> SeqVec:
    """(f*(2^n))_n read off ``reference_rearrange``, with its truncation flag."""
    fs = reference_rearrange(f)
    vec = SeqVec(window, fs(np.power(2.0, window.indices().astype(float))))
    vec.meta["truncated"] = bool(fs(np.array([2.0 ** (window.hi + 1)]))[0] > 0.0
                                 or fs.vals[0] > fs(np.array([2.0 ** window.lo]))[0])
    return vec


def _reference_weight_integral(p: float, w, a: float, b: float) -> float:
    """int_a^b w(t)^p dt/t for the power weight w, in closed form."""
    s = w.exponent * p
    return (b ** s - a ** s) / s


def reference_lorentz_norm(X, f: StepFunction) -> float:
    """(int f*^p w^p dt/t)^(1/p) piece by piece of ``reference_rearrange``."""
    fs = reference_rearrange(f)
    acc = 0.0
    for v, a, b in zip(fs.values, fs.breakpoints[:-1], fs.breakpoints[1:]):
        if v == 0.0:
            continue
        acc += (v ** X.p) * _reference_weight_integral(X.p, X.weight, a, b)
    return acc ** (1.0 / X.p)


@st.composite
def tied_rows(draw, max_rows: int = 6):
    """(f, V): a step function of 1-12 pieces at random breakpoints, some on
    dyadic points, on [0, 1] or stretched onto [0, inf), and 1 to max_rows
    rows of values on its pieces drawn from 0 and at most 3 levels of either
    sign, so that rows hold ties and zeros in place; f's values are the
    first row."""
    dyadic = st.sampled_from([0.5, 0.25, 0.75, 0.125, 0.375])
    cuts = draw(st.lists(st.floats(1e-6, 1.0, exclude_max=True) | dyadic, max_size=11,
                         unique=True))
    top = draw(st.sampled_from([1.0, 0.37, 4.0, 40.0]))
    bp = np.unique(np.array([0.0, *sorted(cuts), 1.0]) * top)
    levels = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3))
    pool = [0.0, *levels, *(-x for x in levels)]
    row = st.lists(st.sampled_from(pool), min_size=bp.size - 1, max_size=bp.size - 1)
    V = np.array(draw(st.lists(row, min_size=1, max_size=max_rows)))
    return StepFunction("unit" if top <= 1.0 else "halfline", tuple(bp), tuple(V[0])), V


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# sequence spaces for the reference tests of the adversarial searches
SEARCH_SPACE_KINDS = ("lpw", "linf", "modular", "geometric", "reversed", "reversed-modular")


def search_space(kind, win, p=2.0, base=1.3):
    return {
        "lpw": lambda: WeightedLp(p, win, wexp=0.3),
        "linf": lambda: LinftySeq(win),
        "modular": lambda: OrliczModular(example1(), win),
        "geometric": lambda: GeometricWeighted(dyadic_lp(p, win), base),
        "reversed": lambda: OrderReversed(dyadic_lp(p, win.reversed())),
        "reversed-modular": lambda: OrderReversed(OrliczModular(pwpower(1.5, 3),
                                                                win.reversed())),
    }[kind]()


def reference_norming_rows(E, V: np.ndarray) -> np.ndarray:
    """The norming functionals of the nonzero rows of V as the per-row
    ``norming_rows(V, norms)`` hooks gave them: the scale-free closed form on
    a weighted-lp form, the Orlicz modular's gradient one row at a time, and
    a reversed or b^n-weighted space's inner functionals conjugated back."""
    if isinstance(E, _Conjugated):
        Y = functools.reduce(np.multiply, E.scales, V[:, ::-1] if E.reverse else V)
        G = functools.reduce(np.multiply, E.scales[::-1], reference_norming_rows(E.inner, Y))
        return G[:, ::-1] if E.reverse else G
    norms = E.norm_rows(V)
    if (form := E.weighted_lp_form()) is not None:
        w, p = form
        if math.isinf(p):
            top = np.argmax(np.abs(V) * w, axis=1)[:, None] == np.arange(V.shape[1])
            return np.where(top, np.copysign(w, V), 0.0)
        return np.sign(V) * w * (np.abs(V) * w / norms[:, None]) ** (p - 1.0)
    G = np.zeros_like(V)
    for g, v, xhat in zip(G, V, np.abs(V) / norms[:, None]):
        nz = xhat > 0
        g[nz] = np.exp(E._log_w[nz]) * E.F.deriv(xhat[nz])
        g[nz] = np.sign(v[nz]) * g[nz] / float(np.dot(xhat[nz], g[nz]))
    return G
