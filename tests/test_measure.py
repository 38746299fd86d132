import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplekit import (SeqVec, StepFunction, Window, char_fn,
                       default_unit_window, dyadic_envelope, k_l1_linf_oracle, rearrange, zero_fn)
from couplekit.measure import star_integral
from conftest import (random_step, reference_dyadic_envelope, reference_rearrange,
                      reference_star_integral, tied_rows)


# ---------------------------------------------------------------------------
# rearrange
# ---------------------------------------------------------------------------


def test_rearrange_char_is_fixed_point():
    f = char_fn(0, 1)
    fs = rearrange(f)
    assert fs.breakpoints == (0.0, 1.0) and fs.values == (1.0,)


def test_rearrange_sorts_by_value():
    f = StepFunction("unit", (0.0, 0.5, 0.75, 1.0), (3.0, 1.0, 2.0))
    fs = rearrange(f)
    assert fs.values == (3.0, 2.0, 1.0)
    assert fs.breakpoints == (0.0, 0.5, 0.75, 1.0)


def test_rearrange_negative_values():
    f = StepFunction("unit", (0.0, 0.3, 0.4), (0.0, -2.0))
    fs = rearrange(f)
    assert fs.values == (2.0,)
    assert fs.breakpoints == (0.0, pytest.approx(0.1))


def test_rearrange_zero_function():
    assert rearrange(zero_fn()).values == (0.0,)


@st.composite
def step_functions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    cuts = draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                         min_size=n, max_size=n, unique=True))
    bp = [0.0] + sorted(cuts) + [1.0]
    vals = draw(st.lists(st.floats(min_value=-4, max_value=4,
                                   allow_nan=False, allow_infinity=False),
                         min_size=len(bp) - 1, max_size=len(bp) - 1))
    return StepFunction("unit", tuple(bp), tuple(vals))


@settings(max_examples=120, deadline=None)
@given(tied_rows())
def test_rearrange_matches_reference_bit_for_bit(case):
    # runs of equal values merge, and zero-measure pieces drop, exactly as
    # one Python sort and merge per function does
    f, V = case
    for v in V:
        g = f.with_values(v)
        fs, ref = rearrange(g), reference_rearrange(g)
        assert (fs.breakpoints, fs.values) == (ref.breakpoints, ref.values)


@settings(max_examples=80, deadline=None)
@given(tied_rows(), st.integers(-24, -1), st.integers(0, 6))
def test_dyadic_envelope_and_star_integral_match_reference_bit_for_bit(case, lo, hi):
    f, V = case
    window = Window("Z-", lo, -1) if f.domain == "unit" else Window("Z", lo, hi)
    for v in V:
        g = f.with_values(v)
        env, ref = dyadic_envelope(g, window), reference_dyadic_envelope(g, window)
        assert np.array_equal(env.values, ref.values) and env.meta == ref.meta
        for t in (2.0 ** lo, 0.3, f.breakpoints[-1], 7.5):
            assert star_integral(g, t) == reference_star_integral(g, t)


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_rearrange_idempotent(f):
    fs = rearrange(f)
    fss = rearrange(fs)
    assert fss.breakpoints == fs.breakpoints
    assert fss.values == fs.values


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_rearrange_equimeasurable(f):
    fs = rearrange(f)
    grid = sorted({abs(v) for v in f.values if v != 0.0})
    levels = [0.5 * g for g in grid] + list(grid)
    for lam in levels:
        if lam <= 0:
            continue
        m_f = float(np.sum(f.lengths[np.abs(f.vals) > lam]))
        m_fs = float(np.sum(fs.lengths[fs.vals > lam]))
        assert m_fs == pytest.approx(m_f, abs=1e-12)


# ---------------------------------------------------------------------------
# maximal function f**(t) = (1/t) int_0^t f*, read off star_integral
# ---------------------------------------------------------------------------


def test_double_star_char_examples():
    f = char_fn(0, 1)
    assert star_integral(f, 2.0) / 2.0 == pytest.approx(0.5)
    assert star_integral(f, 0.5) / 0.5 == pytest.approx(1.0)


def _integral_oracle(f: StepFunction, t: float) -> float:
    # independent exact piecewise integral of f*: sort (value, length) pairs
    # and accumulate without going through the StepFunction machinery
    pairs = sorted(
        ((abs(v), b - a) for v, a, b in
         zip(f.values, f.breakpoints[:-1], f.breakpoints[1:]) if v != 0.0),
        reverse=True)
    acc, used = 0.0, 0.0
    for v, ln in pairs:
        take = min(ln, t - used)
        if take <= 0:
            break
        acc += v * take
        used += take
    return acc


def test_double_star_matches_integral_oracle(rng):
    # t f**(t) = int_0^t f*, and the (L1, Linf) oracle is that helper, bit for bit
    for _ in range(25):
        f = random_step(rng)
        for t in (0.05, 0.3, 1.0, 2.5):
            integral = star_integral(f, t)
            assert integral == pytest.approx(_integral_oracle(f, t), rel=1e-12, abs=1e-12)
            assert k_l1_linf_oracle(t, f) == integral


def test_double_star_dominates_f_star(rng):
    for _ in range(10):
        f = random_step(rng)
        fs = rearrange(f)
        ts = np.linspace(0.01, 1.5, 23)
        d2 = np.array([star_integral(f, t) / t for t in ts])
        assert np.all(d2 >= fs(ts) - 1e-12)
        assert np.all(np.diff(d2) <= 1e-12)  # f** nonincreasing


# ---------------------------------------------------------------------------
# windows, vectors, dyadic envelope
# ---------------------------------------------------------------------------


def test_window_invariants():
    with pytest.raises(ValueError):
        Window("Z-", -4, 0)      # Z_- means indices < 0
    with pytest.raises(ValueError):
        Window("Z+", -1, 4)
    with pytest.raises(ValueError):
        Window("Z", 3, 2)
    w = Window("Z-", -8, -1)
    assert w.reversed() == Window("Z+", 0, 7)
    assert w.reversed().reversed() == w


def test_seqvec_ops():
    w = Window("Z", -3, 3)
    x = SeqVec.from_entries(w, {-2: 1.5, 0: -2.0, 3: 0.5})
    assert x.entries() == {-2: 1.5, 0: -2.0, 3: 0.5}
    assert x.prefix(0).entries() == {-2: 1.5, 0: -2.0}
    assert x.suffix(0).entries() == {0: -2.0, 3: 0.5}
    assert x.restrict([0, 3]).entries() == {0: -2.0, 3: 0.5}
    xr = x.reversed()
    assert xr.window == Window("Z", -4, 2)
    assert xr.entries() == {1: 1.5, -1: -2.0, -4: 0.5}
    rt = SeqVec.from_json_dict(x.to_json_dict())
    assert rt.entries() == x.entries()
    with pytest.raises(ValueError):
        SeqVec.from_entries(w, {9: 1.0})


def test_to_step_round_trip():
    w = Window("Z-", -4, -1)
    x = SeqVec.from_entries(w, {-3: 2.0, -1: 1.0})
    f = x.to_step()
    assert f(np.array([2.0 ** -3]))[0] == 2.0
    assert f(np.array([0.6]))[0] == 1.0
    assert f(np.array([2.0 ** -4]))[0] == 0.0


def test_envelope_char():
    v = dyadic_envelope(char_fn(0, 1), Window("Z-", -10, -1))
    assert np.all(v.values == 1.0)
    assert v.meta["truncated"] is False


def test_envelope_zero():
    v = dyadic_envelope(zero_fn(), Window("Z-", -10, -1))
    assert not np.any(v.values)


def test_envelope_power_decay_and_sandwich():
    # f*(t) ~ t^{-1/2} sampled as steps
    ts = 2.0 ** np.arange(-12, 0)
    bp = np.concatenate([[0.0], ts])
    vals = bp[1:] ** -0.5
    f = StepFunction("unit", tuple(bp), tuple(sorted(vals, reverse=True)))
    win = Window("Z-", -11, -2)
    v = dyadic_envelope(f, win)
    ns = win.indices()
    assert np.allclose(v.values, [f(np.array([2.0 ** n]))[0] for n in ns])
    # sandwich f* <= G <= D_2 f* on [2^lo, 2^(hi+1))
    fs = rearrange(f)
    G = v.to_step()
    grid = np.linspace(2.0 ** win.lo, 2.0 ** (win.hi + 1) - 1e-9, 301)
    assert np.all(fs(grid) <= G(grid) + 1e-12)
    assert np.all(G(grid) <= fs(grid / 2.0) + 1e-12)  # D_2 f*(t) = f*(t/2)


def test_envelope_truncation_flag():
    f = char_fn(0, 3, "halfline", height=2.0)
    small = dyadic_envelope(f, Window("Z", -2, 0))
    assert small.meta["truncated"] is True  # support reaches past 2^1
    ok = dyadic_envelope(f, Window("Z", -40, 4))
    assert ok.meta["truncated"] is False
    # variation hidden below 2^lo also flags
    g = StepFunction("halfline", (0.0, 0.25, 1.0), (4.0, 1.0))
    assert dyadic_envelope(g, Window("Z", -1, 3)).meta["truncated"] is True


def test_step_json_round_trip(rng):
    f = random_step(rng)
    g = StepFunction.from_json_dict(f.to_json_dict())
    assert g.breakpoints == f.breakpoints and g.values == f.values
    assert g.domain == f.domain


def test_default_windows():
    assert default_unit_window().hi == -1
    assert default_unit_window(17).lo == -17
