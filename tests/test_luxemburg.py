"""The shared Luxemburg solver behind OrliczModular and OrliczSpace.

Norms are checked against a plain log-space bisection
(``conftest.reference_norm``), the two Orlicz norms against each other, the
iteration cap against a silent exit, and the work per norm against a fixed
count of profile evaluations and against each other.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from couplekit import (ConvergenceError, GeometricWeighted, MinimalFn,
                       OrderReversed, OrliczFn, OrliczModular, OrliczSpace,
                       SeqVec, StepFunction, Window, brudnyi_pair,
                       elastic_non_lorentz, example1, logfactor_fn, orlicz, power,
                       pwpower, shift_constant_estimate)
from conftest import random_seqvec, reference_norm, reference_orlicz_rows

_BF, _BG = brudnyi_pair(1.5, 3.0)
ZOO = {"power": power(2.0), "pwpower": pwpower(1.5, 3.0),
       "logfactor": logfactor_fn(1.5), "example1": example1(),
       "elastic-nl": elastic_non_lorentz(), "brudnyi-F": _BF, "brudnyi-G": _BG,
       "minimal": MinimalFn(0.05)}

_ENTRIES = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(math.exp))


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
        ref = reference_norm(F, inner, log_w)
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
    ref = reference_norm(F, vals, log_w)
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
        ref = reference_norm(F, np.asarray(f.vals), np.log(f.lengths))
        assert OrliczSpace(F).fn_norm(f) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("name", ["logfactor", "example1", "elastic-nl", "minimal"])
def test_tiny_norms_are_within_the_width_certificate(name):
    # the solver also stops on a bracket 1e-13 (1 + |beta|) wide, so far
    # from norm 1 the certified log-error is 1e-13 (1 + |log ||f|| |)
    F = ZOO[name]
    for f in (StepFunction("unit", (0.0, 1.0), (1e-300,)),
              StepFunction("unit", (0.0, 1e-10, 1.0), (1e-300, 1e-305)),
              StepFunction("unit", (0.0, 0.25, 0.5, 1.0), (3e-300, 1e-300, 2e-302))):
        ref = reference_norm(F, np.asarray(f.vals), np.log(f.lengths))
        err = abs(math.log(OrliczSpace(F).fn_norm(f) / ref))
        assert err <= 1e-13 * (1.0 + abs(math.log(ref))), f.vals


def test_iteration_cap_raises(monkeypatch):
    win = Window("Z-", -16, -1)
    vals = np.linspace(0.1, 2.0, win.size)
    E = OrliczModular(example1(), win)
    X = OrliczSpace(example1())
    f = SeqVec(win, vals).to_step()
    # a wide batch keeps its Newton state in arrays: it raises the same error
    scale = np.linspace(0.5, 2.0, 2 * orlicz._ARRAY_ROWS)[:, None]
    wide = [(E.norm_rows, vals * scale), (X.norm_rows_on(f), np.asarray(f.vals) * scale)]
    expected = E.norm_values(vals), X.fn_norm(f), [rows(V).tolist() for rows, V in wide]
    monkeypatch.setattr(orlicz, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="1 iterations"):
        E.norm_values(vals)
    with pytest.raises(ConvergenceError):
        X.fn_norm(f)
    for rows, V in wide:
        with pytest.raises(ConvergenceError, match="1 iterations") as err:
            rows(V)
        lo, hi = re.fullmatch(r".*\(bracket \[(.*), (.*)\]\)", str(err.value)).groups()
        assert float(lo) < float(hi), str(err.value)
    monkeypatch.undo()
    assert (E.norm_values(vals), X.fn_norm(f), [rows(V).tolist() for rows, V in wide]) == expected


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


@pytest.mark.parametrize("name", ["minimal", "logfactor", "example1", "brudnyi-F"])
def test_function_path_spends_no_more_than_the_modular(name):
    # one row path: a step function's pieces are the modular's entries with
    # log weights log |I_i| and levels F^{-1}(1 / |I_i|), so on the same
    # vectors the function norm evaluates the profile at no more points per
    # nonzero piece than the modular (the one log_inv per f is not counted)
    win = Window("Z-", -64, -1)
    rng = np.random.default_rng(18)
    xs = [random_seqvec(rng, win) for _ in range(200)]
    V = np.array([x.values for x in xs])
    E, X = OrliczModular(_Counting(ZOO[name]), win), OrliczSpace(_Counting(ZOO[name]))
    E.norm_rows(V)
    # the pieces [0, 2^-64), [2^n, 2^(n+1)), the first one zero in every row
    f = SeqVec(win, np.ones(win.size)).to_step()
    X.norm_rows_on(f)(np.insert(V, 0, 0.0, axis=1))
    assert X.F.points <= E.F.points


def test_function_norm_past_the_float_range_of_the_bracket():
    # the single-piece norms sum past 1.8e308, so the bracket's upper end is
    # inf, while the norm itself is finite
    f = StepFunction("unit", (0.0, 0.5, 1.0), (1.5e308, 1.5e308))
    for name, F in ZOO.items():
        if name != "power":
            ref = reference_norm(F, np.asarray(f.vals), np.log(f.lengths))
            assert OrliczSpace(F).fn_norm(f) == pytest.approx(ref, rel=1e-12), name


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["example1", "minimal", "logfactor"]),
       on=st.sampled_from(["modular", "pieces"]), wide=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_rows_equal_the_dense_prep(name, on, wide, seed):
    # log and exp on the packed entries, row sums in a zero-filled buffer and
    # the solver on the packed solve rows give the dense prep's floats bit for
    # bit, and hand the solver the same arguments
    F, rng = ZOO[name], np.random.default_rng(seed)
    if on == "modular":
        E = OrliczModular(F, Window("Z-", -64, -1))
        log_w, log_lambda = E._log_w, E._log_lambda
    else:  # two pieces of 0.45, then pieces cutting [0.9, 1]
        cuts = np.sort(rng.uniform(0.9, 1.0, int(rng.integers(1, 40))))
        log_w = np.log(np.diff(np.unique(np.concatenate([[0.0, 0.45, 0.9], cuts, [1.0]]))))
        log_lambda = np.atleast_1d(F.log_inv(-log_w))
    n = log_w.size
    rows = orlicz._ARRAY_ROWS
    k = int(rng.integers(rows, 2 * rows) if wide else rng.integers(3, rows))
    V = np.zeros((k, n))
    for row in V[3:]:
        idx = rng.choice(n, int(rng.integers(2, min(n, 12) + 1)), replace=False)
        row[idx] = np.exp(rng.normal(0.0, 4.0, idx.size)) * rng.choice([-1.0, 1.0], idx.size)
    V[0, rng.integers(n)] = -1.0 if rng.random() < 0.5 else 3.0  # one entry
    # single-entry norms of 0.95e308 (or less, where lambda_i is too large):
    # their sum is past the float range, the norm is not
    top = np.argsort(log_lambda)[:2]
    lam = np.exp(log_lambda[top])
    V[1, top] = np.minimum(0.95e308, 1.79e308 / lam) * lam
    V[2] = -0.0  # a zero row
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(np.exp(np.log(V[1][V[1] > 0]) - log_lambda[V[1] > 0])))
    V = V[rng.permutation(k)]
    calls, solve = [], orlicz._luxemburg_log

    def recorded(*args):
        calls.append([np.asarray(a).tobytes() for a in args[1:]])
        return solve(*args)

    with mock.patch.object(orlicz, "_luxemburg_log", recorded):
        got = orlicz._orlicz_rows(F, V, log_w, log_lambda)
        ref = reference_orlicz_rows(F, V, log_w, log_lambda)
    assert got.tobytes() == ref.tobytes()
    assert len(calls) == 2 and calls[0] == calls[1]


def test_a_nan_entry_makes_the_norm_nan():
    # a NaN entry is an entry: its row's bracket test is False, so the row's
    # norm is NaN, with no solve and no warning, as the weighted-lp norms give
    # it; the other rows are normed as they are alone
    win = Window("Z-", -4, -1)
    E = OrliczModular(example1(), win)
    V = np.array([[math.nan, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 2.0, 0.0]])
    for space in (E, GeometricWeighted(E, 2.0 ** 0.5), OrderReversed(E),
                  OrderReversed(GeometricWeighted(E, 2.0 ** 0.5))):
        norms = space.norm_rows(V)
        assert math.isnan(norms[0])
        assert norms[1:].tolist() == [space.norm_values(v) for v in V[1:]]
    f = StepFunction("unit", (0.0, 0.25, 0.5, 1.0), (math.nan, 1.0, 0.0))
    for F in (example1(), ZOO["minimal"], ZOO["logfactor"]):
        assert math.isnan(OrliczSpace(F).fn_norm(f))
