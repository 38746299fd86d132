"""The shared Luxemburg solver behind OrliczModular and OrliczSpace.

Norms are checked against a plain log-space bisection that lives only here,
the two Orlicz norms against each other, the iteration cap against a silent
exit, and the work per norm against a fixed count of profile evaluations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from couplekit import (ConvergenceError, GeometricWeighted, MinimalFn,
                       OrderReversed, OrliczFn, OrliczModular, OrliczSpace,
                       SeqVec, StepFunction, Window, brudnyi_pair,
                       elastic_non_lorentz, example1, logfactor_fn, power,
                       pwpower, shift_constant_estimate, spaces)

_BF, _BG = brudnyi_pair(1.5, 3.0)
ZOO = {"power": power(2.0), "pwpower": pwpower(1.5, 3.0),
       "logfactor": logfactor_fn(1.5), "example1": example1(),
       "elastic-nl": elastic_non_lorentz(), "brudnyi-F": _BF, "brudnyi-G": _BG,
       "minimal": MinimalFn(0.05)}

_ENTRIES = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(math.exp))


def _log_modular(F, log_a, log_w, beta):
    expo = log_w + F.log_eval(log_a - beta)
    m = float(np.max(expo))
    return m + math.log(float(np.sum(np.exp(expo - m))))


def _reference_norm(F, vals, log_w):
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


def _window_vals(data, kind):
    size = data.draw(st.integers(2, 24))
    lo = -size if kind == "Z-" else -(size // 2)
    win = Window(kind, lo, lo + size - 1)
    vals = np.array(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size)))
    assume(np.any(vals))
    return win, vals


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ZOO)), kind=st.sampled_from(["Z-", "Z"]),
       base=st.sampled_from([0.5, 2.0 ** 0.5, 3.0]), data=st.data())
def test_modular_norm_matches_reference_bisection(name, kind, base, data):
    F = ZOO[name]
    win, vals = _window_vals(data, kind)
    E = OrliczModular(F, win)
    log_w = win.indices() * math.log(2.0)
    ns = win.indices().astype(float)
    cases = [(E, vals, vals), (GeometricWeighted(E, base), vals, vals * base ** ns),
             (OrderReversed(E), vals, vals[::-1])]
    for space, outer, inner in cases:
        ref = _reference_norm(F, inner, log_w)
        assert space.norm_values(outer) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ZOO)), kind=st.sampled_from(["Z-", "Z"]),
       data=st.data())
def test_function_and_sequence_norms_agree(name, kind, data):
    win, vals = _window_vals(data, kind)
    x = SeqVec(win, vals)
    X = OrliczSpace(ZOO[name])
    assert X.fn_norm(x.to_step()) == pytest.approx(OrliczModular(X.F, win).norm(x),
                                                   rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(F=st.one_of(st.floats(1e-6, 1.0).map(lambda t: MinimalFn(t / (4.0 * math.pi))),
                   st.floats(1.0, 16.0).map(logfactor_fn)),
       kind=st.sampled_from(["Z-", "Z"]), data=st.data())
def test_early_stopped_norms_are_within_the_certified_error(F, kind, data):
    # a profile with curvature stops one Newton step early: the certificate
    # is a log-error of at most 1e-13, for the modular and the function norm
    win, vals = _window_vals(data, kind)
    log_w = win.indices() * math.log(2.0)
    ref = _reference_norm(F, vals, log_w)
    E = OrliczModular(F, win)
    norm = E.norm_values(vals)
    assert abs(math.log(norm / ref)) <= 1e-13
    assert abs(math.log(OrliczSpace(F).fn_norm(SeqVec(win, vals).to_step()) / ref)) <= 1e-13
    # the start is read from the row alone: batched, the row is the same float
    assert E.norm_rows(np.stack([vals, vals[::-1], 2.0 * vals]))[0] == norm


def test_function_norm_extreme_range_matches_reference():
    # start and first bracket far from the root: the bisection fallback
    f = StepFunction("unit", (0.0, 1e-200, 0.5, 1.0), (1e150, 1e-150, 3.0))
    for F in ZOO.values():
        ref = _reference_norm(F, np.asarray(f.vals), np.log(f.lengths))
        assert OrliczSpace(F).fn_norm(f) == pytest.approx(ref, rel=1e-12)


def test_iteration_cap_raises(monkeypatch):
    win = Window("Z-", -16, -1)
    vals = np.linspace(0.1, 2.0, win.size)
    E = OrliczModular(example1(), win)
    X = OrliczSpace(example1())
    f = SeqVec(win, vals).to_step()
    expected = E.norm_values(vals), X.fn_norm(f)
    monkeypatch.setattr(spaces, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="1 iterations"):
        E.norm_values(vals)
    with pytest.raises(ConvergenceError):
        X.fn_norm(f)
    monkeypatch.undo()
    assert (E.norm_values(vals), X.fn_norm(f)) == expected


class _Counting(OrliczFn):
    """Delegates to a generator and counts the points the profile is evaluated at."""

    def __init__(self, base):
        self.base, self.name, self.params = base, base.name, base.params
        self.points = 0

    def log_eval(self, u):
        self.points += np.size(u)
        return self.base.log_eval(u)

    def slope(self, u):
        return self.base.slope(u)

    def log_inv(self, v):
        return self.base.log_inv(v)

    def curvature(self):
        return self.base.curvature()


def test_profile_evaluations_per_norm():
    # the shift-search mix: mostly multi-block vectors from coordinate ascent.
    # The solver evaluates the profile at each nonzero entry of each row still
    # iterating, so points evaluated over the nonzero entries of the rows
    # solved is the mean number of profile evaluations per norm, each row
    # weighted by its nonzero entries.  minimal states its curvature, so its
    # rows start near the root and stop one step early: 4.79 points per
    # nonzero entry with neither, about 3.0 with both
    points = nonzeros = norms = 0
    for seed, name in enumerate(("example1", "brudnyi-F", "elastic-nl", "minimal",
                                 "pwpower")):
        F = _Counting(ZOO[name])
        E = OrliczModular(F, Window("Z-", -64, -1))
        solve = E.norm_rows
        rows = []

        def counted(V, solve=solve, rows=rows):
            rows.append((V.shape[0], np.count_nonzero(V)))
            return solve(V)

        E.norm_rows = counted
        for side in ("rsp", "lsp"):
            shift_constant_estimate(GeometricWeighted(E, 2.0 ** 0.5), side,
                                    budget=60, seed=seed, n_pairs_range=(3, 10))
        if name == "minimal":
            assert F.points / sum(nz for _, nz in rows) <= 3.2
        points += F.points
        norms += sum(k for k, _ in rows)
        nonzeros += sum(nz for _, nz in rows)
    assert norms >= 500
    assert points / nonzeros <= 6.0
