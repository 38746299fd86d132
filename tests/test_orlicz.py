import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplekit import (HypothesisError, MinimalFn, OrliczModular, TGrid, Window, brudnyi_pair,
                       brudnyi_schedule, convexify, counter,
                       elastic_non_lorentz, elasticity_report, example1,
                       indices, lambda_seq, logfactor_fn, parse_generator,
                       phi_minus, phi_plus, power, pwpower, rv_defect, sample_profile,
                       w_witness)
from couplekit import analysis, cli, orlicz
from couplekit.orlicz import OrliczFn, PiecewiseAffineFn

GEN_SET = [power(2), pwpower(2, 3), logfactor_fn(2), example1(),
           elastic_non_lorentz(), MinimalFn(0.05)]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_power_values():
    F = power(2)
    assert F(4.0) == pytest.approx(16.0)
    assert F(0.0) == 0.0
    assert F.deriv(3.0) == pytest.approx(6.0)
    assert math.exp(F.log_inv(math.log(16.0))) == pytest.approx(4.0)


def test_brudnyi_parameters():
    F, G = brudnyi_pair(1.5, 3.0)
    r = 0.5 * (1.5 + 3.0)
    alpha, beta = 1.5 - 1.0, 3.0 - r
    assert r == 2.25 and alpha == 0.5 and beta == 0.75
    # slopes present in the profiles: F uses r, r±beta; G adds r±alpha bumps
    sF = set(np.round(F._s, 10))
    assert sF == {r, r + beta, r - beta}
    sG = set(np.round(G._s, 10))
    assert {r + alpha, r - alpha} <= sG
    # schedule: b_n = 2^n a_n, c_n = 4 b_n, d_n = c_n + 2n, a_{n+1} = 4 d_n
    sched = brudnyi_schedule()
    for n, a, b, c, d in sched[:4]:
        assert b == 2.0 ** n * a and c == 4 * b and d == c + 2 * n
    assert sched[1][1] == 4 * sched[0][4]


def test_brudnyi_needs_q_gt_p_gt_1():
    with pytest.raises(ValueError):
        brudnyi_pair(3.0, 1.5)
    with pytest.raises(ValueError):
        brudnyi_pair(1.0, 2.0)


def test_elastic_non_lorentz_rejects_bad_psi():
    with pytest.raises(HypothesisError, match="^psi must be nonincreasing$"):
        elastic_non_lorentz(psi=lambda t: 0.5 * np.tanh(t))
    with pytest.raises(HypothesisError, match="^psi must be bounded by one$"):
        elastic_non_lorentz(psi=lambda t: 2.0 + 0.0 * t)


def test_example1_quadratic_below_e():
    F = example1()
    for x in (0.25, 1.0, math.e * 0.999):
        assert F(x) == pytest.approx(x ** 2, rel=1e-12)


def test_example1_rejects_bad_schedule():
    with pytest.raises(HypothesisError, match="values in"):
        example1(xi=lambda n: np.asarray(n, dtype=float) * 0 + 1.5)
    with pytest.raises(HypothesisError, match="nonincreasing"):
        example1(xi=lambda n: 0.1 + 0.01 * np.asarray(n, dtype=float))


def test_elastic_nl_profile_concave():
    F = elastic_non_lorentz(u_max=256.0)
    s = F._s
    assert np.all(np.diff(s[:-1]) <= 1e-12)
    assert np.all(s >= 2.0 - 1e-12) and np.all(s <= 3.0 + 1e-12)


def test_minimal_alpha_cap():
    with pytest.raises(ValueError):
        MinimalFn(0.2)  # would break h' >= 1
    F = MinimalFn(0.05)
    u = np.linspace(-20, 20, 801)
    assert np.all(F.slope(u) >= 1.0)


def _minimal_series(alpha, u):
    """h(u) and h'(u) of MinimalFn by 80 explicit terms, summed exactly."""
    s = math.fsum(1.0 - math.cos(2.0 * math.pi * u / 2.0 ** n) for n in range(80))
    d = math.fsum(2.0 * math.pi / 2.0 ** n * math.sin(2.0 * math.pi * u / 2.0 ** n)
                  for n in range(80))
    return 2.0 * u + alpha * s, 2.0 + alpha * d


def test_minimal_is_evaluated_point_by_point():
    F = MinimalFn(0.05)
    u = np.concatenate([np.linspace(-40.0, 40.0, 161), [0.0, 1e-9, -3e-4, 700.0]])
    h, s = F.log_eval(u), F.slope(u)
    for i, ui in enumerate(u.tolist()):
        # a point's value does not depend on the rest of the array
        assert F.log_eval(u[i:i + 1])[0] == h[i] and F.slope(np.array(ui)) == s[i]
        ref_h, ref_s = _minimal_series(0.05, ui)
        assert abs(h[i] - ref_h) <= 1e-12 * max(1.0, abs(ref_h))
        assert abs(s[i] - ref_s) <= 1e-12
    perm = np.random.default_rng(4).permutation(u.size)
    assert np.array_equal(F.log_eval(u[perm]), h[perm])
    assert np.array_equal(F.slope(u.reshape(5, 33)), s.reshape(5, 33))


def test_profile_invariants_all_generators():
    # h strictly increasing and h(u) - u nondecreasing; F_t(1) = 1 and
    # F_t(x) <= 1 for x <= 1
    u = np.linspace(-30.0, 120.0, 1501)
    for F in GEN_SET:
        h = F.log_eval(u)
        assert np.all(np.diff(h) > 0)
        assert np.all(np.diff(h - u) >= -1e-9)
        for t_log in (0.0, 3.0, 40.0):
            # log F_t(x) = h(log t + log x) - h(log t)
            for x in (1.0, 0.9, 0.5, 2.0 ** -8):
                log_ft = F.log_eval(t_log + math.log(x)) - F.log_eval(t_log)
                assert log_ft <= 1e-12 and (x < 1.0 or abs(log_ft) <= 1e-12)


def test_slope_must_stay_at_least_one():
    with pytest.raises(ValueError):
        PiecewiseAffineFn("bad", {}, [0.0], [0.0], [0.5], 1.0)


# ---------------------------------------------------------------------------
# convexify
# ---------------------------------------------------------------------------


def test_convexify_power():
    F1 = convexify(power(3))
    for x in (0.1, 1.0, 2.0, 50.0):
        assert F1(x) == pytest.approx(x ** 3 / 3.0, rel=1e-12)


def test_convexify_below_original():
    for F in (example1(), pwpower(2, 3), logfactor_fn(2)):
        F1 = convexify(F)
        for x in np.geomspace(0.01, 1e6, 40):
            assert F1(x) <= F(x) * (1 + 1e-12)
            # two-sided equivalence: F(x) <= F1(2x)/log 2
            assert F(x) <= F1(2 * x) / math.log(2.0) * (1 + 1e-12)


def test_convexify_is_convex(rng):
    F1 = convexify(example1())
    xs = np.geomspace(0.5, 1e5, 200)
    vals = np.asarray(F1(xs))
    # midpoint convexity on the geometric grid, sampled in linear scale
    for _ in range(50):
        i = rng.integers(0, xs.size - 2)
        x0, x2 = xs[i], xs[i + 2]
        x1 = 0.5 * (x0 + x2)
        assert F1(np.array([x1]))[0] <= 0.5 * (vals[i] + vals[i + 2]) + 1e-9 * vals[i + 2]


def test_convexified_deriv_is_base_over_x():
    # F1'(x) = F(x)/x of the base profile, and the slope of F1 itself
    F = example1()
    F1 = convexify(F)
    x = np.geomspace(1e-3, 1e6, 60)
    assert np.allclose(F1.deriv(x), F(x) / x, rtol=1e-12, atol=0.0)
    dx = 1e-6 * x
    central = (np.asarray(F1(x + dx)) - np.asarray(F1(x - dx))) / (2.0 * dx)
    assert np.allclose(F1.deriv(x), central, rtol=1e-5, atol=0.0)
    assert F1.deriv(0.0) == 0.0 and isinstance(F1.deriv(2.0), float)


def test_indices_reject_an_overflowing_profile():
    # h = 1e307 v overflows on the grid's far end; nan indices are no answer
    with pytest.raises(ValueError, match="profile overflows"):
        indices(power(1e307))


def test_convexified_example1_regularly_varying():
    F1 = convexify(example1())
    # defect over a far tail stays below the frozen constant while the
    # generator remains inelastic (criterion 8 exercises the counters)
    d = rv_defect(F1, [0.25, 0.125], TGrid.span(0.0, 2048.0))
    assert d <= 50.0


# ---------------------------------------------------------------------------
# curvature: the stated bounds on h' and h''
# ---------------------------------------------------------------------------

# minimal over alpha in (0, 1/(4 pi)], logfactor over p >= 1
_SMOOTH = st.one_of(st.floats(1e-6, 1.0).map(lambda t: MinimalFn(t / (4.0 * math.pi))),
                    st.floats(1.0, 16.0).map(logfactor_fn))


def test_curvature_is_stated_by_smooth_profiles_only():
    for F in (power(2), pwpower(2, 3), example1(), elastic_non_lorentz(),
              convexify(MinimalFn(0.05)), sample_profile(logfactor_fn(2))):
        assert F.curvature() is None
    assert MinimalFn(0.05).curvature() == pytest.approx((2 - 0.2 * math.pi, 2 + 0.2 * math.pi,
                                                        0.8 * math.pi ** 2 / 3))
    assert logfactor_fn(2).curvature() == (2.0, 2.3179, 0.25)


@settings(max_examples=25, deadline=None)
@given(F=_SMOOTH, u=st.lists(st.floats(-200.0, 4000.0), min_size=1, max_size=8),
       du=st.floats(-1.0, 1.0))
def test_curvature_bounds_the_slope_and_its_lipschitz_constant(F, u, du):
    s_lo, s_hi, lip = F.curvature()
    u = np.array(u)
    s = F.slope(u)
    assert np.all((s_lo <= s) & (s <= s_hi))
    # the slope's own rounding grows with |u| (phases u 2 pi / 2^n)
    gap = np.abs(F.slope(u + du) - s)
    assert np.all(gap <= lip * abs(du) + 1e-13 * (1.0 + np.abs(u)))


def test_minimal_curvature_is_attained_at_zero():
    # h'' = alpha sum (2 pi / 2^n)^2 cos(2 pi u / 2^n) has every cosine at 1
    # when u = 0: the stated L is the maximum, 2.6319 at alpha = 0.05
    F = MinimalFn(0.05)
    lip = F.curvature()[2]
    u = np.linspace(-4.0, 4.0, 8001)
    fd = np.diff(F.slope(u)) / np.diff(u)
    assert lip == pytest.approx(2.6319, abs=1e-4)
    assert lip * (1.0 - 1e-5) <= fd.max() <= lip


@pytest.mark.parametrize("F", [MinimalFn(0.05), logfactor_fn(2)], ids=["minimal", "logfactor"])
def test_curvature_bounds_the_sample_gap(F):
    # a chord over a cell of width delta is within delta^2 L / 8 of h: the
    # sample's gap at the cell midpoints on its whole range [-64, 2048]
    delta, lip = 0.125, F.curvature()[2]
    sample = sample_profile(F)
    mid = np.arange(-64.0, 2048.0, delta) + 0.5 * delta
    gap = np.abs(sample.log_eval(mid) - F.log_eval(mid)).max()
    assert gap <= delta ** 2 * lip / 8.0


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def test_indices_power_exact():
    for p in (1.0, 2.0, 3.5):
        rep = indices(power(p))
        assert rep.alpha_inf == pytest.approx(p, abs=1e-12)
        assert rep.beta_inf == pytest.approx(p, abs=1e-12)
        assert rep.alpha_0 == pytest.approx(p, abs=1e-12)
        assert rep.beta_0 == pytest.approx(p, abs=1e-12)
        assert rep.delta2 == pytest.approx(2.0 ** p, rel=1e-12)


def test_indices_pwpower():
    rep = indices(pwpower(2, 3))
    assert rep.alpha_inf == pytest.approx(3.0, abs=0.02)
    assert rep.beta_inf == pytest.approx(3.0, abs=0.02)
    assert rep.alpha_0 == pytest.approx(2.0, abs=0.02)
    assert rep.beta_0 == pytest.approx(2.0, abs=0.02)
    assert rep.boyd_unit == (rep.alpha_inf, rep.beta_inf)
    assert rep.boyd_halfline[0] == pytest.approx(2.0, abs=0.02)
    assert rep.boyd_halfline[1] == pytest.approx(3.0, abs=0.02)


def test_indices_brudnyi():
    for F in brudnyi_pair(1.5, 3.0):
        rep = indices(F)
        assert rep.alpha_inf == pytest.approx(1.5, abs=0.05)
        assert rep.beta_inf == pytest.approx(3.0, abs=0.05)


# ---------------------------------------------------------------------------
# lambda sequence
# ---------------------------------------------------------------------------


def test_lambda_closed_form_square():
    lam = lambda_seq(power(2), Window("Z-", -8, -1))
    for n, v in lam.items():
        assert v == pytest.approx(2.0 ** (-n / 2.0), rel=1e-12)
    assert lam[-2] == pytest.approx(2.0)


def test_lambda_zero_is_inverse_at_one():
    for F in GEN_SET:
        lam0 = lambda_seq(F, Window("Z", 0, 0))[0]
        assert float(F(lam0)) == pytest.approx(1.0, rel=1e-9)


def test_lambda_doubling_all_generators():
    win = Window("Z-", -40, -1)
    for F in GEN_SET:
        lam = lambda_seq(F, win)
        ns = sorted(lam)
        for a, b in zip(ns[:-1], ns[1:]):
            assert lam[a] > lam[b]            # strictly decreasing in n
            assert lam[a] <= 2.0 * lam[b] * (1 + 1e-12)


def test_lambda_rejects_positive_indices():
    with pytest.raises(ValueError):
        lambda_seq(power(2), Window("Z", -2, 2))


# ---------------------------------------------------------------------------
# regular variation
# ---------------------------------------------------------------------------


def test_rv_defect_power_is_one():
    assert rv_defect(power(2), [0.5, 0.25], TGrid.span(0.0, 64.0)) == pytest.approx(1.0)


def test_rv_defect_logfactor_shrinks():
    F = logfactor_fn(2)
    d1 = rv_defect(F, [0.25], TGrid.span(0.0, 32.0))
    d2 = rv_defect(F, [0.25], TGrid.span(0.0, 512.0))
    assert d2 < d1 and d2 <= 1.05


def test_rv_defect_example1_bounded():
    d = rv_defect(example1(), [2.0 ** -8], TGrid.span(0.0, 2048.0))
    assert 1.0 < d <= 2.0e4


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def test_counters_zero_for_power():
    F = power(2)
    for C in (1.5, 4.0):
        assert phi_plus(F, 0.25, C) == 0
        assert phi_minus(F, 0.25, C) == 0
        assert counter(F, "psi:2", 0.25, C) == 0


def test_counter_example1_strictly_increasing():
    F = example1()
    grid = TGrid.span(0.0, 2048.0)
    counts = [phi_plus(F, 2.0 ** -k, 4.0, grid=grid) +
              phi_minus(F, 2.0 ** -k, 4.0, grid=grid) for k in range(4, 17)]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 10


def test_counter_monotone_in_C_and_grid():
    F = example1()
    g1 = TGrid.span(0.0, 512.0)
    g2 = TGrid.span(0.0, 2048.0)
    x = 2.0 ** -8
    assert phi_plus(F, x, 8.0, grid=g2) <= phi_plus(F, x, 4.0, grid=g2)
    assert phi_plus(F, x, 4.0, grid=g1) <= phi_plus(F, x, 4.0, grid=g2)
    fine = TGrid.span(0.0, 512.0, ratio=2.0 ** 0.125)
    assert phi_plus(F, x, 4.0, grid=g1) <= phi_plus(F, x, 4.0, grid=fine)


def test_psi_logfactor_bound():
    # Psi_2(x, C) <= ceil(C/(C-1) log2(1/x)) + 2 for F = x^2 log(e+x)
    F = logfactor_fn(2)
    for C in (1.5, 3.0):
        for k in (4, 8, 12):
            n = counter(F, "psi:2", 2.0 ** -k, C)
            assert n <= math.ceil(C / (C - 1.0) * k) + 2


def test_counter_grid_validation():
    F = power(2)
    with pytest.raises(ValueError, match="ratio"):
        counter(F, "phi+", 0.5, 2.0, grid=np.array([1.0, 4.0, 16.0]))
    with pytest.raises(ValueError, match="t >= 1"):
        counter(F, "phi+", 0.5, 2.0, grid=TGrid.span(-4.0, 4.0))
    with pytest.raises(ValueError):
        counter(F, "phi+", 1.5, 2.0)
    with pytest.raises(ValueError):
        counter(F, "phi+", 0.5, 1.0)


def test_counter_at_zero_side():
    F = pwpower(2, 3)
    g0 = TGrid.span(-512.0, 0.0)
    assert counter(F, "phi+", 0.25, 4.0, side="0", grid=g0) == 0
    assert counter(F, "psi:2", 0.25, 4.0, side="0", grid=g0) == 0


# ---------------------------------------------------------------------------
# elasticity reports and the bounded witness
# ---------------------------------------------------------------------------


def test_elasticity_classifications():
    assert elasticity_report(power(2)).classification == "elastic-consistent"
    rep_nl = elasticity_report(elastic_non_lorentz())
    assert rep_nl.classification == "elastic-consistent"
    assert int(np.max(rep_nl.totals)) <= 8
    rep1 = elasticity_report(example1())
    assert rep1.classification == "inelastic-witness"
    assert rep1.to_json_dict()["fit"]["r"] > 0


def test_elasticity_report_validates_grid():
    with pytest.raises(ValueError):
        elasticity_report(power(2), x_grid=np.array([0.25, 0.5]))


def test_w_witness_power_zero():
    ww = w_witness(power(2), 2.0)
    assert ww.C1 == 0.0
    assert np.all(ww.w == 0.0)


def test_w_witness_monotone_and_condition4(rng):
    F = elastic_non_lorentz()
    C0 = 4.0
    ww = w_witness(F, C0)
    assert np.all(np.diff(ww.w) >= 0.0)
    # condition (4) on the grid: F_t(x) <= C0 F_s(x) + w(t) - w(s)
    v = ww.log_t
    for _ in range(200):
        i, j = sorted(rng.integers(0, v.size, size=2))
        if i == j:
            continue
        x = 2.0 ** -float(rng.integers(1, 16))
        ft = math.exp(F.log_eval(v[j] + math.log(x)) - F.log_eval(v[j]))
        fs = math.exp(F.log_eval(v[i] + math.log(x)) - F.log_eval(v[i]))
        assert ft <= C0 * fs + ww.w[j] - ww.w[i] + 1e-9


def test_w_witness_example1_grows():
    c_small = w_witness(example1(), 4.0, t_grid=TGrid.span(0.0, 128.0, 2.0)).C1
    c_big = w_witness(example1(), 4.0, t_grid=TGrid.span(0.0, 1024.0, 2.0)).C1
    assert c_big > c_small > 0.0


def test_sample_profile_step_cap():
    with pytest.raises(ValueError):
        sample_profile(logfactor_fn(2), step=0.5)


# ---------------------------------------------------------------------------
# piecewise-affine kernels
# ---------------------------------------------------------------------------

_PIECEWISE = [power(2), pwpower(1.5, 3.0), example1(), elastic_non_lorentz(),
              *brudnyi_pair(1.5, 3.0), sample_profile(logfactor_fn(2))]


def _clipped_log_eval(F, u):
    """The clip-and-select formula the segment-indexed kernel replaced."""
    idx = np.searchsorted(F._u, u, side="right") - 1
    idx_c = np.clip(idx, 0, F._u.size - 1)
    out = F._h[idx_c] + (u - F._u[idx_c]) * F._s[idx_c]
    return np.where(idx < 0, F._h[0] + (u - F._u[0]) * F._s_below, out)


def _clipped_slope(F, u):
    idx = np.searchsorted(F._u, u, side="right") - 1
    return np.where(idx < 0, F._s_below, F._s[np.clip(idx, 0, F._u.size - 1)])


@settings(max_examples=80, deadline=None)
@given(k=st.integers(0, len(_PIECEWISE) - 1), data=st.data())
def test_piecewise_kernels_bit_identical(k, data):
    F = _PIECEWISE[k]
    offsets = st.floats(0.0, 1e3, allow_subnormal=False)
    below = F._u[0] - np.array(data.draw(st.lists(offsets, min_size=1, max_size=8)))
    past = F._u[-1] + np.array(data.draw(st.lists(offsets, min_size=1, max_size=8)))
    inside = np.array(data.draw(st.lists(
        st.floats(float(F._u[0]), float(F._u[-1])), max_size=8)))
    u = np.concatenate([below, F._u, past, inside])
    assert np.array_equal(F.log_eval(u), _clipped_log_eval(F, u))
    assert np.array_equal(F.slope(u), _clipped_slope(F, u))


def test_piecewise_log_inv_matches_bisection():
    # anchor heights, both tails and points between anchors; bisection from
    # the base class is the reference (1e-12 abs, relative beyond |u| = 1)
    for F in _PIECEWISE:
        h = F._h if F._h.size < 500 else F._h[::37]
        v = np.concatenate([h, 0.5 * (h[1:] + h[:-1]),
                            F._h[0] - np.array([1e-3, 1.0, 40.0]),
                            F._h[-1] + np.array([1e-3, 1.0, 40.0])])
        closed = F.log_inv(v)
        ref = OrliczFn.log_inv(F, v)
        assert np.all(np.abs(closed - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert np.allclose(F.log_eval(closed), v, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# the fused kernel and the log_inv fixed-point stop, bit for bit
# ---------------------------------------------------------------------------

_ZOO = [power(2.5), pwpower(1.5, 3.0), logfactor_fn(1.5), example1(),
        elastic_non_lorentz(), *brudnyi_pair(1.5, 3.0), MinimalFn(0.05),
        convexify(example1())]
_SHAPES = [(), (1,), (2,), (1, 1), (7, 1), (5, 9)]


def _same(a, b):
    """Equal bit for bit, with the same type and shape (0-d stays 0-d)."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _points(seed, shape, scale):
    """Seeded normal points with zeros, signed zeros and tiny values mixed in."""
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, scale, shape)
    flat = u.reshape(-1)
    special = [0.0, -0.0, 1e-300, -2.0 ** -9 / math.pi, 700.0]
    for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
        flat[i] = special[int(rng.integers(len(special)))]
    return u


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, len(_ZOO) - 1), shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 40.0, 5e3]))
def test_log_eval_slope_is_log_eval_and_slope(k, shape, seed, scale):
    F = _ZOO[k]
    u = _points(seed, shape, scale)
    h, s = F.log_eval_slope(u)
    assert _same(h, F.log_eval(u)) and _same(s, F.slope(u))


def test_log_eval_slope_is_log_eval_and_slope_large():
    u = _points(5, (40, 250), 300.0)
    for F in _ZOO:
        h, s = F.log_eval_slope(u)
        assert _same(h, F.log_eval(u)) and _same(s, F.slope(u)), F.name


def test_deriv_is_the_two_kernel_formula():
    # F'(x) = F(x) h'(log x) / x, as evaluated before the fused kernel
    x = np.exp(np.random.default_rng(6).normal(0.0, 40.0, 200))
    u = np.log(x)
    for F in _ZOO[:-1]:  # convexify's F1'(x) = F(x)/x has its own formula
        assert _same(F.deriv(x), np.exp(F.log_eval(u) - u) * F.slope(u)), F.name


def _cumsum_minimal(alpha, u):
    """h and h' of MinimalFn as two separate series, each summed by cumsum."""
    u = np.asarray(u, dtype=float)
    M = np.maximum(np.frexp(2.0 * math.pi * u)[1] + 8, 0)
    first = orlicz._TERM_N.size - int(M.max(initial=0))
    shape = (-1,) + (1,) * u.ndim
    freq = orlicz._TERM_FREQ[first:].reshape(shape)
    keep = orlicz._TERM_N[first:].reshape(shape) < M
    f = np.ldexp(2.0 * math.pi, -M)
    x = (u * f) ** 2
    terms = np.empty((keep.shape[0] + 1,) + u.shape)
    terms[0] = x * (orlicz._C1 + orlicz._C2 * x)
    np.multiply(1.0 - np.cos(u * freq), keep, out=terms[1:])
    h = 2.0 * u + alpha * np.cumsum(terms, axis=0)[-1]
    theta = u * f
    x = theta * theta
    terms[0] = f * theta * (orlicz._S0 + x * (orlicz._S1 + orlicz._S2 * x))
    np.multiply(freq * np.sin(u * freq), keep, out=terms[1:])
    return h, 2.0 + alpha * np.cumsum(terms, axis=0)[-1]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_SHAPES + [(300, 40)]), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 40.0, 5e3, 1e7]))
def test_minimal_kernels_match_cumsum_series(shape, seed, scale):
    F = MinimalFn(0.05)
    u = _points(seed, shape, scale)
    ref_h, ref_s = _cumsum_minimal(0.05, u)
    assert _same(F.log_eval(u), ref_h) and _same(F.slope(u), ref_s)


@pytest.mark.parametrize("shape", [(), (1,), (2,), (1, 1), (7, 1), (5, 9), (200, 300)])
def test_minimal_series_sums_in_order(shape):
    # the sum MinimalFn takes of its terms is cumsum's last row, bit for bit
    rng = np.random.default_rng(2)
    for m in (1, 9, 17, 40):
        scale = np.exp(rng.normal(0.0, 4.0, (m,) + (1,) * len(shape)))
        terms = rng.normal(0.0, 1.0, (m,) + shape) * scale
        assert _same(orlicz._sum_terms(terms), np.cumsum(terms, axis=0)[-1])


def _full_bisection(F, v):
    """The base-class log_inv with all 100 bisection steps, no early stop."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    lo = np.full(v.shape, -1.0)
    hi = np.full(v.shape, 1.0)
    for _ in range(120):
        need = F.log_eval(hi) < v
        if not np.any(need):
            break
        hi[need] = hi[need] * 2.0 + 1.0
    for _ in range(120):
        need = F.log_eval(lo) > v
        if not np.any(need):
            break
        lo[need] = lo[need] * 2.0 - 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = F.log_eval(mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return out if out.shape != (1,) else float(out[0])


@pytest.mark.parametrize("F", [MinimalFn(0.05), logfactor_fn(2),
                               sample_profile(logfactor_fn(2))])
def test_log_inv_stop_matches_full_bisection(F):
    rng = np.random.default_rng(8)
    for v in (-np.arange(128) * math.log(2.0), rng.normal(0.0, 30.0, 50),
              rng.normal(0.0, 3e3, 20), np.array([0.0]), 2.5):
        assert _same(OrliczFn.log_inv(F, v), _full_bisection(F, v))


_BISECTED = [MinimalFn(0.05), logfactor_fn(2), convexify(MinimalFn(0.05)),
             sample_profile(logfactor_fn(2))]


@settings(max_examples=40, deadline=None)
@given(F=st.sampled_from(_BISECTED),
       v=st.lists(st.one_of(st.integers(-128, 128).map(lambda n: -n * math.log(2.0)),
                            st.floats(-3e3, 3e3)), min_size=2, max_size=6))
def test_log_inv_is_pointwise(F, v):
    # a level solved alone is the float it is among others: what lets
    # log_lambda solve each level once, whatever window asks for it
    v = np.array(v)
    whole = OrliczFn.log_inv(F, v)
    assert all(_same(float(whole[i]), OrliczFn.log_inv(F, v[i:i + 1])) for i in range(v.size))


@pytest.mark.parametrize("make", [lambda: MinimalFn(0.05), lambda: logfactor_fn(2),
                                  lambda: convexify(MinimalFn(0.05))],
                         ids=["minimal", "logfactor", "convexify"])
@pytest.mark.parametrize("widths", [(64, 128), (128, 64)], ids=["64-128", "128-64"])
def test_memoised_levels_are_the_bisection(make, widths):
    F = make()
    for width in widths:
        win = Window("Z-", -width, -1)
        levels = OrliczModular(F, win)._log_lambda
        assert _same(levels, _full_bisection(F, -win.indices() * math.log(2.0)))
        assert list(lambda_seq(F, win).values()) == [math.exp(u) for u in levels.tolist()]


def test_levels_are_solved_once_per_generator():
    F = _CountingFn(MinimalFn(0.05))
    OrliczModular(F, Window("Z-", -128, -1))
    assert F.calls > 0
    solved = F.calls
    OrliczModular(F, Window("Z-", -64, -1))
    lambda_seq(F, Window("Z-", -64, -1))
    assert F.calls == solved


# ---------------------------------------------------------------------------
# vectorized counters, indices and witness against their loop references
# ---------------------------------------------------------------------------


def _loop_counter(F, kind, x, C, side, grid):
    """The per-point greedy loops the numpy scans replaced (reference)."""
    v = grid.log
    kappa = -math.log(x) if x < 1 else 0.0
    logC = math.log(C)
    omega = F.log_eval(v) - F.log_eval(v - kappa)
    if kind in ("phi+", "phi-"):
        w = (1.0 if kind == "phi+" else -1.0) * omega
        count, run_max = 0, w[0]
        for j in range(1, w.size):
            run_max = max(run_max, w[j - 1])
            if run_max - w[j] >= logC:
                count += 1
                run_max = w[j]
        return count
    p = float(kind.split(":")[1])
    dev = np.abs(p * kappa - omega)
    count, last_v = 0, -np.inf
    for j in range(v.size):
        if dev[j] >= logC and v[j] - last_v >= math.log(2.0) - 1e-12:
            count += 1
            last_v = v[j]
    return count


def _random_profile(rng, n_anchors, span=40.0):
    u = np.unique(rng.uniform(-span, span, size=n_anchors))
    s = rng.uniform(1.0, 6.0, size=u.size)
    h = np.concatenate([[0.0], np.cumsum(s[:-1] * np.diff(u))])
    return PiecewiseAffineFn("rand", {}, u, h, s, float(rng.uniform(1.0, 6.0)))


def _random_counter_grid(rng, side, n):
    steps = rng.uniform(1e-3, 0.25 * math.log(2.0), size=n - 1)
    v = np.concatenate([[0.0], np.cumsum(steps)])
    return TGrid(v if side == "inf" else -v[::-1])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.sampled_from(["inf", "0"]),
       n=st.integers(2, 2500), kind=st.sampled_from(["phi+", "phi-", "psi"]),
       C=st.floats(1.0, 20.0, exclude_min=True), k=st.floats(0.0, 20.0))
def test_counter_matches_loop_reference(seed, side, n, kind, C, k):
    rng = np.random.default_rng(seed)
    F = _random_profile(rng, int(rng.integers(1, 60)))
    grid = _random_counter_grid(rng, side, n)
    if kind == "psi":
        kind = f"psi:{rng.uniform(1.0, 6.0)}"
    x = 2.0 ** -k
    assert counter(F, kind, x, C, side, grid) == _loop_counter(F, kind, x, C, side, grid)


def test_counter_matches_loop_reference_on_zoo():
    grid = TGrid.span(0.0, 2048.0)
    for F in GEN_SET + list(brudnyi_pair(1.5, 3.0)):
        for k in (4, 9, 16):
            for kind in ("phi+", "phi-", "psi:2"):
                for C in (1.5, 4.0):
                    assert counter(F, kind, 2.0 ** -k, C, grid=grid) == \
                        _loop_counter(F, kind, 2.0 ** -k, C, "inf", grid)


def _threshold_for(d):
    """C > 1 with math.log(C) == d exactly, or None."""
    C = math.exp(d)
    for _ in range(8):
        if math.log(C) == d:
            return C
        C = math.nextafter(C, math.inf if math.log(C) < d else 0.0)
    return None


def test_counter_counts_drops_equal_to_log_C():
    # the largest drop from the start, used as log C, is an event (>=)
    grid = TGrid.span(0.0, 512.0)
    tried = 0
    for F in GEN_SET + list(brudnyi_pair(1.5, 3.0)):
        for k in (4, 9):
            x = 2.0 ** -k
            omega = F.log_eval(grid.log) - F.log_eval(grid.log + math.log(x))
            for kind, w in (("phi+", omega), ("phi-", -omega)):
                d = float(np.max(np.maximum.accumulate(w[:-1]) - w[1:]))
                C = _threshold_for(d) if d > 0 else None
                if C is None or C <= 1:
                    continue
                tried += 1
                n = counter(F, kind, x, C, grid=grid)
                assert n >= 1 and n == _loop_counter(F, kind, x, C, "inf", grid)
    assert tried >= 10


def _galloping_drops(w, logC):
    """The galloping scan the block scan replaced (reference): from each
    restart, blocks of 64, 128, ... points with a running maximum."""
    count, r, n, block = 0, 0, w.size, 64
    while r < n - 1:
        end = min(n, r + block + 1)
        run_max = np.maximum.accumulate(w[r:end - 1])
        hit = np.flatnonzero(run_max - w[r + 1:end] >= logC)
        if hit.size:
            count += 1
            r += 1 + int(hit[0])
            block = 64
        elif end == n:
            break
        else:
            block *= 2
    return count


_B = analysis._DROP_BLOCK
# lengths 0-3, around one to three blocks (which start at k = 1) or up to four
_DROP_LENGTHS = (st.sampled_from([0, 1, 2, 3, _B - 1, _B, _B + 1, 2 * _B, 3 * _B - 1])
                 | st.builds(lambda i, d: i * _B + d, st.integers(1, 3), st.integers(-2, 2))
                 | st.integers(0, 4 * _B + 1))


def _drop_row(draw, rng, n):
    """A raw float64 row of length n: a walk, long plateaus, a dense sawtooth
    or noise, with some entries +-inf or nan."""
    shape = draw(st.sampled_from(["walk", "plateau", "sawtooth", "noise"]))
    if shape == "walk":
        w = np.cumsum(rng.normal(0.0, 0.4, n))
    elif shape == "plateau":
        w = np.repeat(rng.normal(0.0, 3.0, n // 50 + 1), 50)[:n]
    elif shape == "sawtooth":
        w = (np.arange(n) % rng.integers(2, 6)) * rng.uniform(0.5, 3.0)
    else:
        w = rng.normal(0.0, 2.0, n)
    if n and draw(st.booleans()):
        at = rng.integers(0, n, size=int(rng.integers(1, 4)))
        w[at] = rng.choice([np.inf, -np.inf, np.nan], size=at.size)
    return w


def _drop_log_C(draw, rng, w):
    """log C drawn, or tied to the drop of w at some k from its running
    maximum."""
    logC = draw(st.floats(1e-3, 8.0))
    if w.size > 1 and draw(st.booleans()):
        k = int(rng.integers(1, w.size))
        with np.errstate(invalid="ignore"):
            d = float(np.max(w[:k]) - w[k])
        C = _threshold_for(d) if 0 < d < math.inf else None
        logC = math.log(C) if C is not None and C > 1 else logC
    return logC


@st.composite
def _drop_stacks(draw):
    """1-6 rows of one length, each of its own ``_drop_row`` shape, and a
    log C tied (or not) to a drop of one row read with either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(_DROP_LENGTHS)
    W = np.array([_drop_row(draw, rng, n) for _ in range(draw(st.integers(1, 6)))])
    sign = draw(st.sampled_from([1.0, -1.0]))
    return W, _drop_log_C(draw, rng, sign * W[int(rng.integers(W.shape[0]))])


@settings(max_examples=150, deadline=None)
@given(stack=_drop_stacks())
@example(stack=(np.array([[0.0, -1.0] * _B, [-1.0, 0.0] * _B]), 1.0))
@example(stack=(np.array([np.r_[np.zeros(_B), np.nan, -5.0, np.zeros(_B)],
                          np.r_[np.zeros(_B), 5.0, -np.inf, np.zeros(_B)]]), 1.0))
@example(stack=(np.r_[np.zeros(9), -5.0, np.nan, np.zeros(_B)][None], 1.0))
@example(stack=(np.r_[np.zeros(_B - 1), np.inf, np.inf, -np.inf, 0.0][None], 1.0))
def test_count_drops_matches_galloping_reference(stack):
    # every (sign, row) scan of one lockstep call counts what the galloping
    # scan counts on that row alone, negated for the rises; raw rows with
    # ties, infinities and nan: a nan or inf fails the skip test and is
    # scanned with the same floats (Python's max would drop it)
    W, logC = stack
    with np.errstate(invalid="ignore"):
        got = analysis._count_drops(W, logC, (1.0, -1.0))
        assert got.tolist() == [[_galloping_drops(s * w, logC) for w in W] for s in (1.0, -1.0)]


@pytest.mark.parametrize("kind", ["phi+", "phi-", "psi:2"])
def test_counter_rejects_an_overflowing_profile(kind):
    # h = 1e307 u overflows on the default grid, where the counts would be
    # NaN arithmetic
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="log F is not finite"):
            counter(power(1e307), kind, 0.5, 4.0)


def test_rv_defect_rejects_an_overflowing_profile():
    # a defect of 1.0 from NaN arithmetic would read as regular variation
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="log F is not finite"):
            rv_defect(power(1e307), [0.5, 0.25], TGrid.span(0.0, 512.0))


def test_w_witness_rejects_an_overflowing_profile():
    # NaN profits, dropped by max, would read as a certified C1 = 0
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="log F is not finite"):
            w_witness(power(1e307), 4.0)


class _CountingFn(OrliczFn):
    def __init__(self, base):
        self.base, self.calls = base, 0
        self.name, self.params = base.name, base.params

    def log_eval(self, u):
        self.calls += 1
        return self.base.log_eval(u)


@pytest.mark.parametrize("side", ["inf", "0"])
def test_elasticity_report_matches_counter(side):
    x_grid = 2.0 ** -np.arange(4, 17, dtype=float)
    t_grid = TGrid.span(0.0, 2048.0) if side == "inf" else TGrid.span(-2048.0, 0.0)
    for F in GEN_SET + list(brudnyi_pair(1.5, 3.0)):
        counted = _CountingFn(F)
        rep = elasticity_report(counted, x_grid=x_grid, side=side)
        assert counted.calls <= x_grid.size + 1
        plus = [counter(F, "phi+", x, 4.0, side, t_grid) for x in x_grid]
        minus = [counter(F, "phi-", x, 4.0, side, t_grid) for x in x_grid]
        assert rep.phi_plus.tolist() == plus and rep.phi_minus.tolist() == minus


@pytest.mark.parametrize("side", ["inf", "0"])
def test_elasticity_report_rejects_an_overflowing_profile(side):
    # the counters of an overflowing profile are NaN arithmetic; the report
    # refuses it as ``indices`` does, with no floating-point error on the way
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="log F is not finite"):
            elasticity_report(power(1e307), side=side)
    with pytest.raises(ValueError, match="log F is not finite"):
        indices(power(1e307))


def test_elasticity_report_validates_arguments():
    with pytest.raises(ValueError, match="x must lie"):
        elasticity_report(power(2), x_grid=np.array([2.0, 0.5]))
    with pytest.raises(ValueError, match="exceed 1"):
        elasticity_report(power(2), C0=1.0)
    with pytest.raises(ValueError, match="ratio"):
        elasticity_report(power(2), t_grid=np.array([1.0, 4.0, 16.0]))


def _meshgrid_indices(F, t_grid=None, x_grid=None, y_layer=1.5):
    """The all-pairs window table indices() used to build (reference)."""
    if t_grid is None:
        t_grid = np.exp(np.linspace(0.0, 64.0, 257))
    v_grid = np.log(np.asarray(t_grid, dtype=float))
    if x_grid is not None:
        ys = -np.log(np.asarray(x_grid, dtype=float))
        v_grid = np.unique(np.concatenate([v_grid, v_grid[-1] - ys]))

    def slopes(grid, sign):
        pts = set(float(v) for v in grid)
        br = F.breaks()
        if br is not None:
            pts.update(float(b) for b in br if (b >= 0.0 if sign > 0 else b <= 0.0))
        pts.add(0.0)
        pts = np.array(sorted(pts))
        pts = pts[pts >= 0.0] if sign > 0 else pts[pts <= 0.0]
        lo, hi = np.meshgrid(pts, pts, indexing="ij")
        keep = (hi - lo) >= y_layer
        lo, hi = lo[keep], hi[keep]
        s = (F.log_eval(hi) - F.log_eval(lo)) / (hi - lo)
        return float(np.min(s)), float(np.max(s))

    return slopes(v_grid, +1) + slopes(-v_grid, -1)


def _index_extremes(rep):
    return (rep.alpha_inf, rep.beta_inf, rep.alpha_0, rep.beta_0)


@pytest.mark.parametrize("F", [power(2), power(3.5), pwpower(2, 3), logfactor_fn(2),
                               example1(), MinimalFn(0.05), *brudnyi_pair(1.5, 3.0),
                               convexify(example1())],
                         ids=lambda F: F.name)
def test_indices_match_meshgrid_reference(F):
    assert _index_extremes(indices(F)) == _meshgrid_indices(F)
    x_grid = 2.0 ** -np.arange(1, 9, dtype=float)
    assert _index_extremes(indices(F, x_grid=x_grid)) == _meshgrid_indices(F, x_grid=x_grid)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_anchors=st.integers(1, 40),
       n=st.integers(0, 120), y=st.floats(0.05, 4.0), extra=st.floats(0.0, 60.0),
       block=st.sampled_from([analysis._BAND_BLOCK, 1, 2, 7, 64]))
# a reducible chord rounds past the band's extreme: only the rescan finds it
@example(3211734110, 25, 105, 0.6103201708235395, 35.70460775198615, analysis._BAND_BLOCK)
@example(4015120240, 20, 14, 0.27915819842020756, 30.31934982171452, analysis._BAND_BLOCK)
@example(31728281, 9, 92, 0.37224223184094873, 44.534996763217954, analysis._BAND_BLOCK)
@example(1113077188, 10, 78, 0.7728294037565997, 18.745477198790123, analysis._BAND_BLOCK)
@example(3279766178, 2, 7, 3.3199258034773695, 31.61838715147143, analysis._BAND_BLOCK)
def test_indices_match_meshgrid_reference_random(seed, n_anchors, n, y, extra, block):
    rng = np.random.default_rng(seed)
    top = y + extra
    F = _random_profile(rng, n_anchors, span=top)
    t_grid = np.exp(np.unique(np.concatenate([[0.0, top], rng.uniform(0.0, top, size=n)])))
    try:
        expected = _meshgrid_indices(F, t_grid, y_layer=y)
    except ValueError:
        # log(exp(top)) can round below y: then no pair is y apart, and
        # indices() must reject the grid as the reference does
        with pytest.raises(ValueError, match="y_layer"):
            indices(F, t_grid, y_layer=y)
        return
    # small blocks split a point's partners across blocks
    with mock.patch.object(analysis, "_BAND_BLOCK", block):
        assert _index_extremes(indices(F, t_grid, y_layer=y)) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), affine=st.booleans())
@example(6268, True)  # a rescan row that only the slack admits holds the minimum
def test_chord_slope_range_matches_pair_table(seed, affine):
    # points y apart, one ulp either side of it and below half an ulp of y:
    # v_j - y rounds past a point both ways, and pairs a rounding apart
    # decide the extremes; an affine profile ties every slope up to rounding
    rng = np.random.default_rng(seed)
    y, u = rng.uniform(0.05, 4.0), rng.uniform(0.0, 20.0, size=rng.integers(1, 31))
    v = np.unique(np.concatenate([[0.0, y], u, u + y, np.nextafter(u + y, 0.0),
                                  np.nextafter(u + y, np.inf), u + 2 * y, u * 1e-17]))
    h = rng.uniform(1.0, 6.0) * v + rng.uniform(-5.0, 5.0) if affine else rng.normal(size=v.size)
    lo, hi = np.meshgrid(v, v, indexing="ij")
    h_lo, h_hi = np.meshgrid(h, h, indexing="ij")
    keep = (hi - lo) >= y
    s = (h_hi[keep] - h_lo[keep]) / (hi[keep] - lo[keep])
    assert analysis._chord_slope_range(v, h, y) == (float(np.min(s)), float(np.max(s)))


def test_indices_reject_short_span():
    with pytest.raises(ValueError, match="y_layer"):
        indices(power(2), t_grid=np.exp([0.0, 0.5, 1.0]), y_layer=1.5)
    with pytest.raises(ValueError, match="positive"):
        indices(power(2), y_layer=0.0)


def test_indices_elastic_nl_without_pair_table():
    F = elastic_non_lorentz()
    tracemalloc.start()
    try:
        rep = indices(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.alpha_inf, rep.beta_inf) == (2.9999739520644653, 2.9999999952266925)
    assert rep.alpha_0 == rep.beta_0 == 2.0
    # the 393,030 band pairs of its 32,770 points, scanned in one block,
    # peak at about 15 MB
    assert peak < 8 * 2 ** 20


def _w_profiles(F, t_grid, x_grid):
    """ft[j, k] = F_{t_k}(x_j) on the grids, as w_witness evaluates it."""
    v = t_grid.log
    ft = np.empty((len(x_grid), v.size))
    for j, x in enumerate(x_grid):
        ft[j] = np.exp(F.log_eval(v + math.log(x)) - F.log_eval(v))
    return ft


def _reference_profit(ft, C0):
    """profit[i, k] = max_x fl(F_{t_k}(x) - C0 F_{t_i}(x)), unclipped: the
    full table the witness prunes (-inf for an empty x-grid)."""
    profit = np.full((ft.shape[1],) * 2, -np.inf)
    for f in ft:
        np.maximum(profit, f[None, :] - C0 * f[:, None], out=profit)
    return profit


def _reference_w(F, C0, t_grid, x_grid):
    """The full-table witness the pruned rows replaced (reference)."""
    profit = np.maximum(_reference_profit(_w_profiles(F, t_grid, x_grid), C0), 0.0)
    best = np.zeros(profit.shape[0])
    for k in range(1, best.size):
        best[k] = max(best[k - 1], float(np.max(best[:k] + profit[:k, k])))
    return best


_BRUDNYI_F, _BRUDNYI_G = brudnyi_pair(1.5, 3.0)


def _x_grid(m, seed):
    """m random points in (0, 1), or the dyadic default for m = None."""
    if m is None:
        return 2.0 ** -np.arange(1, 17, dtype=float)
    return np.sort(np.random.default_rng(seed).uniform(1e-6, 1.0, m))[::-1]


@pytest.mark.parametrize("F", [power(2), pwpower(2, 3), logfactor_fn(2), example1(),
                               elastic_non_lorentz(), MinimalFn(0.05),
                               _BRUDNYI_F, _BRUDNYI_G],
                         ids=lambda F: F.name)
@settings(max_examples=6, deadline=None)
@given(C0=st.floats(1.0, 20.0, exclude_min=True), ratio=st.floats(1.3, 4.0),
       span=st.floats(16.0, 400.0), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(0, 20))
@example(C0=4.0, ratio=2.0, span=128.0, seed=0, m=None)
@example(C0=1.5, ratio=1.3, span=300.0, seed=1, m=7)
@example(C0=1 + 1e-9, ratio=2.0, span=256.0, seed=0, m=None)
@example(C0=4.0, ratio=2.0, span=256.0, seed=0, m=0)
def test_w_witness_matches_table_reference(F, C0, ratio, span, seed, m):
    # grids of 13 to about 1,500 points, and x-grids of m random points in
    # (0, 1) (m = None: the dyadic default; m = 0: an empty x-grid, w = 0).
    # C0 = 1 + 1e-9 builds nearly every row.
    t_grid = TGrid.span(0.0, span, ratio=ratio)
    x_grid = _x_grid(m, seed)
    ww = w_witness(F, C0, t_grid=t_grid, x_grid=x_grid)
    ref = _reference_w(F, C0, t_grid, x_grid)
    assert np.array_equal(ww.w, ref) and ww.C1 == float(ref[-1] - ref[0])


@pytest.mark.parametrize("F, rows", [
    (power(2), 0), (pwpower(2, 3), 0), (elastic_non_lorentz(), 0),
    (MinimalFn(0.05), 0), (_BRUDNYI_F, 15), (example1(), 148),
    (_BRUDNYI_G, 238), (logfactor_fn(2), 342)], ids=lambda a: getattr(a, "name", a))
def test_w_witness_profit_rows(F, rows):
    # the rows (of 370) of the default grids that still need a profit row at
    # C0 = 4; on the first four no profit difference is formed at all
    seen = []
    real = analysis._profit_rows
    with mock.patch.object(analysis, "_profit_rows",
                           lambda ft, c: seen.append(real(ft, c)) or seen[-1]):
        w_witness(F, 4.0)
    assert [r.size for r in seen] == [rows]


@settings(max_examples=25, deadline=None)
@given(F=st.sampled_from(GEN_SET + [_BRUDNYI_F, _BRUDNYI_G]),
       C0=st.floats(1.0, 20.0, exclude_min=True), ratio=st.floats(1.3, 4.0),
       span=st.floats(4.0, 160.0), seed=st.integers(0, 2 ** 32 - 1),
       m=st.none() | st.integers(0, 12))
@example(F=logfactor_fn(2), C0=1 + 1e-9, ratio=2.0, span=64.0, seed=0, m=None)
def test_profit_rows_are_the_rows_with_a_positive_profit(F, C0, ratio, span, seed, m):
    # a dropped row is <= 0 throughout the unclipped table, and a kept row
    # holds a positive profit: the row rule is exact
    ft = _w_profiles(F, TGrid.span(0.0, span, ratio=ratio), _x_grid(m, seed))
    profit = np.triu(_reference_profit(ft, C0), 1)
    positive = np.flatnonzero(np.any(profit > 0, axis=0))
    assert np.array_equal(analysis._profit_rows(ft, C0 * ft), positive)


def test_profit_rows_need_a_strict_excess():
    # F_{t_k}(x) = C0 F_{t_i}(x) is a profit of exactly 0: no row to build
    ft = np.array([[1.0, 4.0, 2.0, 17.0]])
    assert analysis._profit_rows(ft, 4.0 * ft).tolist() == [3]


def test_w_witness_validates_its_arguments():
    F = example1()
    for C0 in (math.nan, -1.0, 1.0, math.inf):
        with pytest.raises(ValueError, match="threshold C"):
            w_witness(F, C0)
    for x_grid in ([2.0], [0.0], [0.5, -0.25]):
        with pytest.raises(ValueError, match="argument x"):
            w_witness(F, 4.0, x_grid=x_grid)
    for t_grid in ([3.0, 2.0, 5.0], [2.0, 2.0], [2.0]):
        with pytest.raises(ValueError, match="t_grid"):
            w_witness(F, 4.0, t_grid=t_grid)
    ww = w_witness(F, 4.0, x_grid=[])
    assert ww.C1 == 0.0 and np.all(ww.w == 0.0) and ww.w.size == 371


# the four analyses that read omega, each with its t-grid argument's name
_ANALYSES = [
    ("counter", "grid", lambda F, g: counter(F, "phi+", 2.0 ** -8, 4.0, grid=g)),
    ("elasticity_report", "t_grid", lambda F, g: elasticity_report(F, t_grid=g)),
    ("rv_defect", "t_range", lambda F, g: rv_defect(F, [2.0 ** -8], g)),
    ("w_witness", "t_grid", lambda F, g: w_witness(F, 4.0, t_grid=g)),
]


def _nan_tgrid():
    # TGrid refuses a nan itself; one can still be written into its log
    g = TGrid.span(0.0, 1.0)
    g.log = np.array([0.0, np.nan, 0.1, 0.2])
    return g


@pytest.mark.parametrize("grid, message", [
    ([0.0, 1.0, 2.0], "must hold finite t > 0"),
    ([-1.0, 1.0, 2.0], "must hold finite t > 0"),
    ([1.0, np.nan, 2.0], "must hold finite t > 0"),
    (_nan_tgrid(), "must be finite and strictly increasing"),
], ids=["t=0", "t<0", "t=nan", "TGrid-nan"])
@pytest.mark.parametrize("analysis", _ANALYSES, ids=[a[0] for a in _ANALYSES])
def test_a_bad_t_grid_is_a_value_error_naming_the_argument(analysis, grid, message):
    # no log of a t <= 0 (a RuntimeWarning is an error in this suite) and no
    # nan counted or blamed on the profile
    _, name, run = analysis
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        run(example1(), grid)


@pytest.mark.parametrize("log_t", [[0.0, np.nan, 0.1, 0.2], [0.0, 1.0, np.inf],
                                   [-np.inf, 0.0], [np.inf, np.inf]])
def test_tgrid_refuses_a_non_finite_point(log_t):
    with pytest.raises(ValueError, match="^grid must be finite and strictly increasing"):
        TGrid(log_t)


@pytest.mark.parametrize("x", [2.0, 0.0, -0.5, np.nan])
def test_rv_defect_checks_its_x(x):
    with pytest.raises(ValueError, match=r"argument x must lie in \(0, 1\]"):
        rv_defect(power(2), [x], TGrid.span(0.0, 64.0))


@pytest.mark.parametrize("kind", ["phi", "phi+ ", "psi", "psi:x", "psi:nan", "psi:inf"])
def test_counter_rejects_a_bad_kind_before_any_work(kind):
    counted = _CountingFn(example1())
    with pytest.raises(ValueError, match=f"^(unknown )?counter kind {re.escape(repr(kind))}"):
        counter(counted, kind, 0.5, 4.0)
    assert counted.calls == 0


def test_each_analysis_evaluates_h_once_and_omega_once_per_x():
    xs = 2.0 ** -np.arange(1, 7, dtype=float)
    runs = [(lambda F: counter(F, "psi:2", 0.25, 4.0), 2),
            (lambda F: elasticity_report(F, x_grid=xs), xs.size + 1),
            (lambda F: rv_defect(F, xs, TGrid.span(0.0, 64.0)), xs.size + 1),
            (lambda F: w_witness(F, 4.0, x_grid=xs), xs.size + 1)]
    for run, calls in runs:
        counted = _CountingFn(example1())
        run(counted)
        assert counted.calls == calls


@pytest.mark.parametrize("side", ["zero", "x", "", "INF", 0])
def test_counter_and_elasticity_reject_an_unknown_side(side):
    counted = _CountingFn(example1())
    with pytest.raises(ValueError, match="^side must be 'inf' or '0'"):
        counter(counted, "phi+", 2.0 ** -8, 4.0, side=side)
    with pytest.raises(ValueError, match="^side must be 'inf' or '0'"):
        elasticity_report(counted, side=side)
    assert counted.calls == 0


@pytest.mark.parametrize("kw, message", [
    ({"t_grid": [0.0, 1.0, 2.0]}, "t_grid must hold finite t > 0"),
    ({"t_grid": [-1.0, 1.0, 2.0]}, "t_grid must hold finite t > 0"),
    ({"t_grid": [1.0, np.inf]}, "t_grid must hold finite t > 0"),
    ({"t_grid": [1.0, np.nan, 2.0]}, "t_grid must hold finite t > 0"),
    ({"x_grid": [0.5, 0.0]}, "x_grid must hold finite x > 0"),
    ({"x_grid": [-0.25]}, "x_grid must hold finite x > 0"),
    ({"x_grid": [np.nan]}, "x_grid must hold finite x > 0"),
], ids=["t=0", "t<0", "t=inf", "t=nan", "x=0", "x<0", "x=nan"])
def test_indices_reject_a_bad_raw_grid_before_the_log(kw, message):
    # a RuntimeWarning from np.log is an error in this suite: the check comes first
    with pytest.raises(ValueError, match=f"^{message}"):
        indices(power(2), **kw)


def test_indices_grid_stays_set_like():
    t = np.exp(np.linspace(0.0, 16.0, 33))
    shuffled = np.random.default_rng(3).permutation(np.concatenate([t, t[::4]]))
    assert indices(pwpower(2, 3), t_grid=shuffled) == indices(pwpower(2, 3), t_grid=t)


# every generator's log_eval is pointwise, which _omega_table's reuse rests on
_OMEGA_ZOO = _ZOO + [convexify(MinimalFn(0.05))]


@pytest.mark.parametrize("F", _OMEGA_ZOO, ids=lambda F: F.name)
def test_log_eval_is_pointwise(F):
    rng = np.random.default_rng(11)
    for scale in (1.0, 40.0, 5e3):
        u = _points(int(rng.integers(2 ** 32)), (600,), scale)
        h = F.log_eval(u)
        for size in (0, 1, 2, 37, 599):
            idx = rng.choice(u.size, size=size, replace=False)
            assert _same(h[idx], F.log_eval(u[idx])), (F.name, scale, size)


def test_a_float32_tgrid_log_is_read_as_float64():
    # the omega table compares grid points as float64 bits
    g = TGrid.span(0.0, 64.0)
    g.log = g.log.astype(np.float32)
    assert rv_defect(example1(), [0.5], g) == rv_defect(example1(), [0.5], TGrid(g.log))


def _omega_grid(kind, seed, span, ratio):
    """A t-grid of the given kind: a TGrid.span on either side, a non-uniform
    raw t-grid, or a grid whose first step is subnormal."""
    if kind == "inf":
        return TGrid.span(0.0, span, ratio)
    if kind == "0":
        return TGrid.span(-span, 0.0, ratio)
    if kind == "raw":
        rng = np.random.default_rng(seed)
        return np.exp(np.unique(rng.uniform(-span / 2, span / 2, 300)))
    return TGrid([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0])


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, len(_OMEGA_ZOO) - 1),
       kind=st.sampled_from(["inf", "0", "raw", "subnormal"]),
       seed=st.integers(0, 2 ** 32 - 1), span=st.floats(1.0, 200.0),
       ratio=st.integers(4, 32).map(lambda m: 2.0 ** (1.0 / m))
       | st.floats(1.01, 2.0 ** 0.25))
@example(k=7, kind="subnormal", seed=0, span=1.0, ratio=2.0 ** 0.25)
def test_omega_table_rows_are_the_full_shifted_call(k, kind, seed, span, ratio):
    # reusing h at the grid points v - kappa hits changes no bit of omega
    F = _OMEGA_ZOO[k]
    v = analysis._log_grid(_omega_grid(kind, seed, span, ratio), "grid")
    rng = np.random.default_rng(seed)
    step, width = v[1] - v[0], v[-1] - v[0]
    xs = [1.0, 2.0 ** -int(rng.integers(1, 12)), float(rng.uniform(1e-3, 1.0)),
          math.exp(-0.4 * step),  # kappa below half a step
          math.exp(-1.5 * width - 1.0)]  # kappa beyond the grid's span
    h = F.log_eval(v)
    for x, omega in zip(xs, analysis._omega_table(F, v, xs)):
        kappa = -math.log(x) if x < 1 else 0.0
        assert _same(omega, h - F.log_eval(v - kappa)), x


# Phi+ and Phi- of elasticity_report at C0 = 4 on the default grids, per
# x = 2^-4 .. 2^-16; at zero every count of the eight generators is 0
_NONE = [0] * 13
_PHI_AT_INF = {
    "power:p=2": (_NONE, _NONE),
    "pwpower:p0=2,p1=3": (_NONE, [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]),
    "logfactor:p=2": ([0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
                      [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1]),
    "example1": ([14, 17, 18, 22, 26, 30, 33, 34, 38, 41, 44, 46, 47],
                 [13, 16, 17, 20, 23, 26, 29, 31, 34, 36, 39, 41, 41]),
    "elastic-nl": (_NONE, [1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7]),
    "brudnyi:p=1.5,q=3:F": ([3] * 13, [2] * 13),
    "brudnyi:p=1.5,q=3:G": ([4, 5, 5, 6, 6, 7, 7, 7, 8, 9, 9, 9, 10],
                            [4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 10]),
    "minimal:alpha=0.05": (_NONE, _NONE),
}


@pytest.mark.parametrize("gen", _PHI_AT_INF)
def test_elasticity_counts_of_the_zoo(gen):
    F = parse_generator(gen)
    for side, counts in (("inf", _PHI_AT_INF[gen]), ("0", (_NONE, _NONE))):
        rep = elasticity_report(F, C0=4.0, side=side)
        assert (rep.phi_plus.tolist(), rep.phi_minus.tolist()) == counts, side


def test_analyze_orlicz_minimal_profile_points(tmp_path):
    # the points MinimalFn.log_eval evaluates for one analyze-orlicz: the
    # omega rows evaluate only the points v - kappa that are off the grid
    points = []
    log_eval = MinimalFn.log_eval

    def spy(self, u):
        points.append(np.size(u))
        return log_eval(self, u)

    with mock.patch.object(MinimalFn, "log_eval", spy):
        assert cli.main(["analyze-orlicz", "--gen", "minimal:alpha=0.05", "--C0", "4",
                         "--out", str(tmp_path / "a.json")]) == 0
    assert sum(points) == 74_378
