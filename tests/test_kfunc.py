import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplekit import (LinftySeq, LorentzSpace, LpSpace, OrliczSpace,
                       PowerWeight, SeqVec, StepFunction, Window, char_fn,
                       dyadic_envelope, dyadic_lp, fit_separation, kfunc,
                       k_block_estimate, k_l1_linf_oracle, k_numeric,
                       k_profile, linf_space, pwpower, rho_profile)
from conftest import random_seqvec, random_step

L1 = LpSpace(1)
LINF = linf_space()


def test_oracle_char_examples():
    f = char_fn(0, 1)
    assert k_l1_linf_oracle(2.0, f) == pytest.approx(1.0)
    assert k_l1_linf_oracle(0.25, f) == pytest.approx(0.25)


def test_k_numeric_matches_oracle(rng):
    for _ in range(12):
        f = random_step(rng)
        for t in 2.0 ** np.arange(-8, 5):
            o = k_l1_linf_oracle(t, f)
            r = k_numeric(t, f, L1, LINF)
            assert r.value == pytest.approx(o, rel=1e-5)
            assert r.lower <= r.value <= r.upper + 1e-15


def test_k_large_t_reaches_x_norm(rng):
    f = random_step(rng)
    X, Y = LpSpace(2), LpSpace(1)
    r = k_numeric(1e6, f, X, Y)
    assert r.value == pytest.approx(X.fn_norm(f), rel=1e-6)


def test_k_same_space_all_or_nothing(rng):
    f = random_step(rng)
    X = LpSpace(2)
    for t in (0.2, 0.9, 1.0, 3.0):
        r = k_numeric(t, f, X, X)
        assert r.value == pytest.approx(min(1.0, t) * X.fn_norm(f), rel=1e-7)


def test_k_trivial_upper_bounds(rng):
    f = random_step(rng)
    X, Y = LpSpace(1), LpSpace(2)
    for t in (0.1, 1.0, 10.0):
        r = k_numeric(t, f, X, Y)
        assert r.value <= min(X.fn_norm(f), t * Y.fn_norm(f)) + 1e-12


def test_k_equals_k_of_abs(rng):
    f = random_step(rng)
    g = f.with_values(f.vals * np.where(np.arange(f.vals.size) % 2, -1.0, 1.0))
    for t in (0.3, 2.0):
        assert k_numeric(t, g, L1, LINF).value == pytest.approx(
            k_numeric(t, abs(g), L1, LINF).value, rel=1e-12)


def test_k_rejects_bad_t():
    with pytest.raises(ValueError):
        k_numeric(0.0, char_fn(0, 1), L1, LINF)


def test_k_zero_function():
    r = k_numeric(1.0, char_fn(0, 1, height=0.0), L1, LINF)
    assert r.value == 0.0 and r.converged


# ---------------------------------------------------------------------------
# sequence couples and the block estimate
# ---------------------------------------------------------------------------


def _couple(width=12):
    win = Window("Z", -width, width)
    E, F = dyadic_lp(1, win), LinftySeq(win)
    return win, E, F, fit_separation(rho_profile(E, F, win))


def test_block_estimate_unit_vector():
    win, E, F, fit = _couple()
    x = SeqVec.basis(win, 0)
    assert k_block_estimate(1.0, x, E, F, fit) == pytest.approx(1.0)


def test_block_estimate_two_spikes():
    win, E, F, fit = _couple()
    x = SeqVec.from_entries(win, {-3: 1.0, 3: 1.0})
    assert k_block_estimate(1.0, x, E, F, fit) == pytest.approx(2.0 ** -3 + 1.0)


def test_block_estimate_boundary_regimes():
    win, E, F, fit = _couple()
    x = SeqVec.from_entries(win, {-1: 1.0, 2: 0.5})
    t_small = 0.5 * min(fit.rho.values())
    assert k_block_estimate(t_small, x, E, F, fit) == pytest.approx(t_small * F.norm(x))
    t_big = 2.0 * max(fit.rho.values())
    assert k_block_estimate(t_big, x, E, F, fit) == pytest.approx(E.norm(x))


def test_block_estimate_rejects_unseparated():
    win = Window("Z", -4, 4)
    E = dyadic_lp(1, win)
    flat = fit_separation({n: 1.0 for n in range(-4, 5)})
    with pytest.raises(ValueError):
        k_block_estimate(1.0, SeqVec.basis(win, 0), E, E, flat)


def test_block_dominates_k_and_ratio_bounded(rng):
    win, E, F, fit = _couple(10)
    for _ in range(10):
        x = random_seqvec(rng, win, k=6, scale_sigma=1.5)
        for t in np.geomspace(min(fit.rho.values()), max(fit.rho.values()), 7):
            kv = k_numeric(t, x, E, F).value
            bv = k_block_estimate(t, x, E, F, fit)
            assert bv >= kv - 1e-9
            assert bv <= 8.0 * kv


# ---------------------------------------------------------------------------
# profiles and structural identities
# ---------------------------------------------------------------------------


def test_profile_char_values():
    rows = k_profile(char_fn(0, 1), L1, LINF, [0.25, 0.5, 1.0, 2.0])
    assert [r["K"] for r in rows] == pytest.approx([0.25, 0.5, 1.0, 1.0])


def test_profile_monotone_concave(rng):
    f = random_step(rng)
    ts = np.geomspace(1.0 / 64, 8.0, 13)
    rows = k_profile(f, L1, LINF, ts)
    ks = np.array([r["K"] for r in rows])
    assert np.all(np.diff(ks) >= -1e-9)
    # concavity in t: midpoint value dominates the chord
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ks[i - 1] + lam * ks[i + 1]
        assert ks[i] >= chord - 1e-7


def test_profile_grid_validation():
    with pytest.raises(ValueError):
        k_profile(char_fn(0, 1), L1, LINF, [1.0, 0.5])


def test_prop52_sequence_function_equality(rng):
    # f in span{e_n}: K(t, f; X, Y) = K(t, f; E_X, E_Y)
    win = Window("Z-", -16, -1)
    couples = [
        (LpSpace(1), linf_space(), dyadic_lp(1, win), LinftySeq(win)),
        (LpSpace(1), LpSpace(2), dyadic_lp(1, win), dyadic_lp(2, win)),
        (LpSpace(2), linf_space(), dyadic_lp(2, win), LinftySeq(win)),
    ]
    for _ in range(4):
        xs = random_seqvec(rng, win, k=5, scale_sigma=1.0)
        f = xs.to_step()
        for X, Y, EX, EY in couples:
            for t in (0.1, 1.0, 4.0):
                kf = k_numeric(t, f, X, Y).value
                ks = k_numeric(t, xs, EX, EY).value
                assert ks == pytest.approx(kf, rel=1e-5)


def test_envelope_k_comparison(rng):
    # K(t, G) <= 2 K(t, f) for the dyadic envelope G of f
    for _ in range(5):
        f = random_step(rng)
        G = dyadic_envelope(f, Window("Z-", -40, -1)).to_step()
        for t in (0.25, 1.0, 3.0):
            kG = k_numeric(t, G, L1, LINF).value
            kf = k_numeric(t, f, L1, LINF).value
            assert kG <= 2.0 * kf + 1e-9


# ---------------------------------------------------------------------------
# the exact one-dimensional path for couples with L_infty / ell_infty
# ---------------------------------------------------------------------------

SEQ_WIN = Window("Z-", -12, -1)
LINF_X = {
    "L1": LpSpace(1), "L2": LpSpace(2),
    "lorentz": LorentzSpace(2, PowerWeight(0.5)),
    "orlicz": OrliczSpace(pwpower(2, 3)),
    "dyadic_lp(1)": dyadic_lp(1, SEQ_WIN),
}
# the Luxemburg norms are solved to about 1e-13, so comparisons between
# separately evaluated decompositions allow this relative slack
NORM_REL = 1e-12
# a few repeated levels and zeros, so that distinct levels are fewer than pieces
_LEVELS = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                    st.floats(-4.0, 3.0).map(math.exp))


@st.composite
def linf_cases(draw):
    """(t, f, X, Y): a random step function or sequence and X paired with L_infty."""
    name = draw(st.sampled_from(sorted(LINF_X)))
    t = 2.0 ** draw(st.floats(-6.0, 6.0))
    if name != "dyadic_lp(1)" and draw(st.booleans()):
        n = draw(st.integers(1, 10))
        cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1,
                             max_size=n - 1, unique=True))
        bp = (0.0, *sorted(cuts), 1.0)
        vals = draw(st.lists(_LEVELS, min_size=n, max_size=n))
        if not any(vals):
            vals[0] = 1.0
        return t, StepFunction("unit", bp, tuple(vals)), LINF_X[name], linf_space()
    vals = np.array(draw(st.lists(_LEVELS, min_size=SEQ_WIN.size,
                                  max_size=SEQ_WIN.size)))
    if not np.any(vals):
        vals[-1] = 1.0
    return t, SeqVec(SEQ_WIN, vals), LINF_X[name], LinftySeq(SEQ_WIN)


def _objective(t, f, X, Y):
    """c -> ||c||_X + t ||a - c||_Y with a = |f|, through k_numeric's norms."""
    nx, ny = kfunc._norm_rows(X, f), kfunc._norm_rows(Y, f)
    a = np.abs(f.vals if isinstance(f, StepFunction) else f.values)
    return a, lambda c: float(nx(c[None])[0] + t * ny((a - c)[None])[0])


def _dense_grid_k(t, f, X, Y):
    """min of phi(lam) = ||(a - lam)_+||_X + t lam by zooming dense grids."""
    a, obj = _objective(t, f, X, Y)

    def phi(lam):
        return obj(np.maximum(a - lam, 0.0))

    lo, hi, best = 0.0, float(np.max(a)), math.inf
    for points in [257] + [33] * 10:
        grid = np.linspace(lo, hi, points)
        vals = [phi(lam) for lam in grid]
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return best


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_between_lower_and_trivial_splits(case):
    t, f, X, Y = case
    a, obj = _objective(t, f, X, Y)
    r = k_numeric(t, f, X, Y)
    assert r.lower <= r.value <= min(obj(a), obj(np.zeros_like(a)))


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_certified_gap(case):
    r = k_numeric(*case)
    assert r.value - r.lower <= 1e-6 * r.value


@settings(max_examples=30, deadline=None)
@given(linf_cases())
def test_k_linf_matches_dense_grid(case):
    assert k_numeric(*case).value == pytest.approx(_dense_grid_k(*case), rel=1e-8)


@pytest.mark.parametrize("t, top", [(0.125, 0.9999999999999998),
                                    (0.25, 1.0000000000000002)])
def test_k_linf_levels_one_ulp_apart(t, top):
    # no float lies strictly between the two levels, so the golden points of
    # the final bracket coincide with its ends
    case = (t, SeqVec.from_entries(SEQ_WIN, {-2: 1.0, -1: top}), L1, LinftySeq(SEQ_WIN))
    r = k_numeric(*case)
    assert r.lower <= r.value and r.value - r.lower <= 1e-6 * r.value
    assert r.value == pytest.approx(_dense_grid_k(*case), rel=1e-12)


def test_k_linf_exact_at_levels_for_l1(rng):
    # phi is piecewise affine for X = L1 with kinks at the levels of |f|,
    # so the level grid alone gives K = int_0^t f* up to rounding
    for _ in range(20):
        f = random_step(rng)
        for t in 2.0 ** np.arange(-8, 5):
            assert k_numeric(t, f, L1, LINF).value == pytest.approx(
                k_l1_linf_oracle(t, f), rel=1e-12)


@pytest.mark.parametrize("name", ["L2", "lorentz", "orlicz"])
def test_k_linf_lower_bounds_k_at_loose_tol(name):
    # a two-level f puts the minimiser of phi strictly between levels for
    # some t, where a loose tol leaves value above K; lower stays below K
    X = LINF_X[name]
    f = StepFunction("unit", (0.0, 0.5, 1.0), (2.0, 1.0))
    above = 0
    for t in np.geomspace(0.25, 2.0, 25):
        r = k_numeric(t, f, X, LINF, tol=0.5)
        ref = _dense_grid_k(t, f, X, LINF)
        assert r.lower <= ref * (1 + NORM_REL)
        above += r.value > ref * (1 + 1e-6)
    assert above > 0


@settings(max_examples=60, deadline=None)
@given(linf_cases(), st.integers(0, 2 ** 32 - 1))
def test_k_linf_no_split_beats_lower(case, seed):
    # every decomposition, near-optimal ones included, costs at least lower
    t, f, X, Y = case
    a, obj = _objective(t, f, X, Y)
    r = k_numeric(t, f, X, Y)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        c = a * rng.random(a.size)
        near = np.clip(r.split + 1e-3 * a * rng.normal(size=a.size), 0.0, a)
        assert obj(c) >= r.lower * (1 - NORM_REL)
        assert obj(near) >= r.lower * (1 - NORM_REL)


@settings(max_examples=30, deadline=None)
@given(linf_cases())
def test_k_linf_increasing_concave_in_t(case):
    _, f, X, Y = case
    ts = np.geomspace(1.0 / 64, 64.0, 13)
    ks = np.array([k_numeric(t, f, X, Y).value for t in ts])
    # each value is within tol = 1e-8 of K, so allow 1e-7 relative
    assert np.all(np.diff(ks) >= -1e-7 * ks[1:])
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ks[i - 1] + lam * ks[i + 1]
        assert ks[i] >= chord * (1 - 1e-7)


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_swap_identity(case):
    # K(t, f; L_infty, X) = t K(1/t, f; X, L_infty)
    t, f, X, Y = case
    swapped = k_numeric(t, f, Y, X).value
    assert swapped == pytest.approx(t * k_numeric(1.0 / t, f, X, Y).value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_norm_evaluations_bounded(case):
    t, f, X, Y = case
    rows = [0]
    norm_rows = kfunc._norm_rows

    def counting_rows(space, template):
        nrm = norm_rows(space, template)

        def counted(V):
            rows[0] += len(V)
            return nrm(V)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kfunc, "_norm_rows", counting_rows)
        k_numeric(t, f, X, Y)
    a = np.abs(f.vals if isinstance(f, StepFunction) else f.values)
    assert rows[0] <= np.unique(a[a > 0]).size + 80


def test_k_numeric_rejects_a_window_mismatch():
    f = SeqVec(Window("Z-", -8, -1), np.linspace(0.5, 2.0, 8))
    other = Window("Z", -4, 3)
    with pytest.raises(ValueError, match="vector window does not match space window"):
        k_numeric(1.0, f, dyadic_lp(1, other), dyadic_lp(2, other))
    with pytest.raises(ValueError, match="vector window does not match space window"):
        k_numeric(1.0, f, dyadic_lp(1, f.window), dyadic_lp(2, other))
    assert k_numeric(1.0, f, dyadic_lp(1, f.window), dyadic_lp(2, f.window)).value > 0
