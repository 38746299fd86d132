"""Shift growth rates kappa_+-(E) = lim ||tau_{+-n}||^(1/n) of a sequence space.

``kappa_estimate`` brackets ||tau_n|| for a few shifts n between the best
ratio of rows it finds (``spaces._row_ratios``, raised by the one ascent of
``couplekit.ascent``) and E's certified ``shift_norm_upper(n)``.
``FromSequenceSpace`` imports it at construction; a shift search or a K
computation never loads it.
"""
from __future__ import annotations

import math

import numpy as np

from .ascent import STOP_OVERFLOW, STOP_UPPER, _ascend_steps, stop_level, stop_reason
from .errors import UsageError, check_budget
from .measure import _Record
from .spaces import _EPS, SeqSpaceSpec, _row_ratios, _shift_quotients, shift_values

_OVERFLOW_RATIO = 1e12


class KappaEstimate(_Record):
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

    _fields = ("plus_lb", "plus_est", "minus_lb", "minus_est", "table", "table_ub",
               "plus_ub", "minus_ub")

    def __init__(self, plus_lb: float, plus_est: float, minus_lb: float, minus_est: float,
                 table: dict[int, float] | None = None, table_ub: dict[int, float] | None = None,
                 plus_ub: float = math.inf, minus_ub: float = math.inf):
        self.plus_lb, self.plus_est = plus_lb, plus_est
        self.minus_lb, self.minus_est = minus_lb, minus_est
        self.table = {} if table is None else table
        self.table_ub = {} if table_ub is None else table_ub
        self.plus_ub, self.minus_ub = plus_ub, minus_ub


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
