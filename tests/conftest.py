import math

import numpy as np
import pytest

from couplekit import (GeometricWeighted, LinftySeq, OrderReversed, OrliczModular,
                       SeqVec, StepFunction, WeightedLp, Window, dyadic_lp, example1,
                       pwpower)


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
