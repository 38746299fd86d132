import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplekit.transfer as transfer
from couplekit import (GeometricWeighted, HypothesisError, InterlacedFamily, LinftySeq,
                       OrderReversed, OrliczModular, PositiveMatrix, SeqVec, ShiftWitness,
                       UsageError, WeightedLp, Window, dyadic_lp, example1,
                       fit_separation, gen_interlaced, k_block_estimate, k_numeric, k_transfer,
                       majorization_transfer, norming_functional, op_norm, power, pwpower,
                       rank_one_shift, replay_witness, rho_profile)
from couplekit.spaces import SeqSpaceSpec, shift_values
from conftest import SEARCH_SPACE_KINDS, random_seqvec, search_space

WIN = Window("Z", -12, 12)
E1 = dyadic_lp(1, WIN)
EINF = LinftySeq(WIN)
FIT = fit_separation(rho_profile(E1, EINF, WIN))


# ---------------------------------------------------------------------------
# rank-one sums
# ---------------------------------------------------------------------------


def test_rank_one_single_pair():
    x = SeqVec.basis(WIN, 0)          # ||e_0||_{E_L1} = 1
    y = SeqVec.basis(WIN, 1, 0.5)     # ||e_1/2||_{E_L1} = 1
    T = rank_one_shift(InterlacedFamily(WIN, [x.values], [y.values]), E1)
    assert np.allclose(T.apply(x).values, y.values)
    assert op_norm(T, E1, "upper") == pytest.approx(1.0)


def test_rank_one_reproduces_family(rng):
    for seed in range(6):
        fam = gen_interlaced(E1, WIN, 3, (1, 3), seed=seed)
        T = rank_one_shift(fam, E1)
        for x, y in zip(fam.X, fam.Y):
            out = T.apply(SeqVec(WIN, x))
            assert np.max(np.abs(out.values - y)) <= 1e-9


def test_rank_one_shifted_mode(rng):
    fam = gen_interlaced(E1, WIN, 3, (1, 2), seed=1)
    T = rank_one_shift(fam, E1, shifted=True)
    for n, x in enumerate(fam.X):
        out = T.apply(SeqVec(WIN, x))
        target = fam.Y[n + 1] if n + 1 < 3 else np.zeros(WIN.size)
        assert np.max(np.abs(out.values - target)) <= 1e-9


def test_rank_one_kills_off_support(rng):
    fam = gen_interlaced(E1, WIN, 2, (1, 2), seed=2)
    T = rank_one_shift(fam, E1)
    used = set()
    for x in fam.X:
        used |= set(np.flatnonzero(x) + WIN.lo)
    free = [n for n in WIN.indices() if n not in used]
    z = SeqVec.from_entries(WIN, {int(n): 1.0 for n in free[:5]})
    assert not np.any(T.apply(z).values)


@pytest.mark.parametrize("E", [E1, dyadic_lp(2, WIN), OrliczModular(example1(), WIN)],
                         ids=["l1", "l2", "example1"])
@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_family_is_a_usage_error(E, entry):
    # a NaN entry once gave rank_one_shift an operator of NaNs: the family
    # names the pair instead
    fam = gen_interlaced(E, WIN, 3, (1, 2), seed=4)
    X = fam.X.copy()
    X[1, np.flatnonzero(X[1])[0]] = entry
    with pytest.raises(UsageError, match="pair 1 of the family has a non-finite entry"):
        rank_one_shift(InterlacedFamily(WIN, X, fam.Y), E)


def test_block_sum_rejects_a_nan_functional(monkeypatch):
    # the tolerance test fails a NaN pairing, where a > test would pass it
    norm_rows = SeqSpaceSpec.norm_rows

    def nan_functionals(self, V, grad=False):
        norms = norm_rows(self, V)
        return (norms, np.full(V.shape, math.nan)) if grad else norms

    monkeypatch.setattr(SeqSpaceSpec, "norm_rows", nan_functionals)
    fam = gen_interlaced(E1, WIN, 2, (1, 2), seed=2)
    with pytest.raises(HypothesisError, match="norming functional failed tolerance"):
        rank_one_shift(fam, E1)


# ---------------------------------------------------------------------------
# majorization transfer
# ---------------------------------------------------------------------------


def test_majorization_identity():
    x = SeqVec.basis(WIN, 0)
    T = majorization_transfer(x, x, E1, EINF)
    assert np.allclose(T.apply(x).values, x.values)
    assert T.certified_bounds["E"] is not None


def test_majorization_shift_example():
    x = SeqVec.basis(WIN, 0)
    y = SeqVec.basis(WIN, 1, 0.5)  # norm balanced: ||y|| = ||x||
    T = majorization_transfer(x, y, E1, EINF)
    assert np.allclose(T.apply(x).values, y.values)
    lower = op_norm(T, E1, "lower", budget=100, seed=0)
    assert lower <= T.certified_bounds["E"] + 1e-9


def test_majorization_seeded_replay(rng):
    worst = 0.0
    for _ in range(30):
        x = random_seqvec(rng, WIN, k=7)
        y = random_seqvec(rng, WIN, k=7)
        # scale y down until prefix majorization holds
        px = [E1.norm(x.prefix(int(a))) for a in WIN.indices()]
        py = [E1.norm(y.prefix(int(a))) for a in WIN.indices()]
        c = min((a / b for a, b in zip(px, py) if b > 0), default=1.0)
        y = y.scale(0.99 * c)
        T = majorization_transfer(x, y, E1, EINF)
        err = np.max(np.abs(T.apply(x).values - y.values))
        worst = max(worst, err / max(np.max(np.abs(y.values)), 1e-300))
        assert all(v >= 0 for v in T.entries.values())
    assert worst <= 1e-9


def test_majorization_hypothesis_error_names_index():
    x = SeqVec.basis(WIN, 3)
    y = SeqVec.basis(WIN, -2, 0.01)  # y has mass before x does
    with pytest.raises(HypothesisError, match="a = -2"):
        majorization_transfer(x, y, E1, EINF)


def test_majorization_zero_x_error():
    z = SeqVec(WIN, np.zeros(WIN.size))
    y = SeqVec.basis(WIN, 0, 0.5)
    with pytest.raises(HypothesisError):
        majorization_transfer(z, y, E1, EINF)
    T = majorization_transfer(z, z, E1, EINF)
    assert not T.entries
    # bounds and methods keyed by space, as for every other construction
    assert T.certified_bounds == {"E": 0.0, "F": 0.0,
                                  "method": {"E": "direct", "F": "direct"}}
    T = majorization_transfer(z, z, OrliczModular(pwpower(2, 3), WIN), EINF)
    assert T.certified_bounds["method"] == {"E": "zero", "F": "direct"}
    # the modular space of x^3 is a weighted ell_p, with a closed form
    T = majorization_transfer(z, z, OrliczModular(power(3), WIN), EINF)
    assert T.certified_bounds["method"] == {"E": "direct", "F": "direct"}


def test_majorization_rejects_signed():
    x = SeqVec.basis(WIN, 0, -1.0)
    with pytest.raises(UsageError):
        majorization_transfer(x, x, E1, EINF)


def test_majorization_one_norming_functional_per_block(rng, monkeypatch):
    # a block sum takes the functionals of all its blocks in one
    # norm_rows(X, grad=True) call, one row per block
    calls = []
    inner = SeqSpaceSpec.norm_rows

    def counting(self, V, grad=False):
        if grad:
            calls.append(len(V))
        return inner(self, V, grad)

    monkeypatch.setattr(SeqSpaceSpec, "norm_rows", counting)
    blocks_seen = 0
    for E in (E1, dyadic_lp(2, WIN), OrliczModular(power(2), WIN)):
        for _ in range(6):
            x = random_seqvec(rng, WIN, k=7)
            y = SeqVec(WIN, 0.3 * shift_values(x.values, 2))
            calls.clear()
            try:
                T = majorization_transfer(x, y, E, EINF)
            except HypothesisError:
                continue
            blocks = [s for s in T.provenance if str(s.get("note", "")).startswith("partition block")]
            assert len(calls) <= 1 and sum(calls) == len(blocks)
            blocks_seen += len(blocks)
    assert blocks_seen >= 10


def test_majorization_one_modular_solve_per_block(monkeypatch):
    # the block norms and functionals come from one norm_rows call over all
    # blocks: no block is solved again alone
    solves = []
    norm_rows = OrliczModular.norm_rows

    def counted(self, V, grad=False):
        if len(V) == 1:
            solves.append(V)
        return norm_rows(self, V, grad)

    monkeypatch.setattr(OrliczModular, "norm_rows", counted)
    E, blocks = OrliczModular(power(2), WIN), 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = random_seqvec(rng, WIN, k=7)
        try:
            T = majorization_transfer(x, SeqVec(WIN, 0.3 * shift_values(x.values, 2)), E, EINF)
        except HypothesisError:
            continue
        blocks += sum(str(s.get("note", "")).startswith("partition block") for s in T.provenance)
    # a functional that re-solved its block for an unread duality gap made
    # 108 one-row solves for these 54 blocks, and one that solved it for its
    # norm made 54
    assert blocks == 54 and not solves


# ---------------------------------------------------------------------------
# K transfer
# ---------------------------------------------------------------------------


def test_k_transfer_identity():
    x = SeqVec.from_entries(WIN, {-4: 1.0, 0: 2.0, 5: 0.25})
    T = k_transfer(x, x, E1, EINF, FIT)
    assert np.max(np.abs(T.apply(x).values - x.values)) <= 1e-9 * 2.0


def test_k_transfer_half_multiplier():
    x = SeqVec.from_entries(WIN, {0: 1.0, 3: 0.5})
    y = x.scale(0.5)
    T = k_transfer(x, y, E1, EINF, FIT)
    assert all(j == k for (j, k) in T.entries)
    assert all(v == pytest.approx(0.5) for v in T.entries.values())


def test_k_transfer_seeded_damped_shifts(rng):
    for trial in range(8):
        vals = np.zeros(WIN.size)
        idx = rng.choice(np.arange(2, WIN.size - 2), size=6, replace=False)
        vals[idx] = rng.random(6) + 0.2
        x = SeqVec(WIN, vals)
        y = SeqVec(WIN, 0.45 * shift_values(vals, 1))
        T = k_transfer(x, y, E1, EINF, FIT)
        assert np.max(np.abs(T.apply(x).values - y.values)) <= 1e-9 * np.max(y.values)
        assert all(v >= 0 for v in T.entries.values())
        for label, space in (("E", E1), ("F", EINF)):
            lower = op_norm(T, space, "lower", budget=150, seed=trial)
            assert lower <= T.certified_bounds[label] + 1e-9


def _reversed_branch_transfer(F, method):
    """A damped left shift sends part of y through the J2 (order-reversed)
    branch; the bound on the modular space of F is certified by ``method``."""
    F = OrliczModular(F, WIN)
    fit = fit_separation(rho_profile(E1, F, WIN))
    rng = np.random.default_rng(0)
    vals = np.zeros(WIN.size)
    vals[rng.choice(np.arange(2, WIN.size - 2), size=6, replace=False)] = rng.random(6) + 0.2
    x = SeqVec(WIN, vals)
    y = SeqVec(WIN, 0.45 * shift_values(vals, -1))
    T = k_transfer(x, y, E1, F, fit, t_points=3)
    assert any(s.get("branch") == "J2 (order-reversed)" for s in T.provenance)
    bound = T.certified_bounds["F"]
    assert isinstance(bound, float)
    assert T.certified_bounds["method"]["F"] == method
    assert op_norm(T, F, "lower", budget=150, seed=0) <= bound + 1e-9


def test_k_transfer_order_reversed_branch_certified():
    # pwpower(2, 3) has no closed-form bound, so its bound is the sum of parts
    _reversed_branch_transfer(pwpower(2, 3), "sum-of-parts")


def test_k_transfer_order_reversed_branch_direct_on_a_power():
    # the modular space of x^2 is a weighted ell_2: its bound is direct
    _reversed_branch_transfer(power(2), "direct")


def test_power_modular_has_the_closed_form_upper_bound():
    # the modular space of x^2 answers the form of dyadic_lp(2), so op_norm
    # bounds T on it by the same closed form
    rng = np.random.default_rng(3)
    T = PositiveMatrix(WIN)
    T.add_diagonal({-3: 0.8, 2: 1.7})
    for _ in range(3):
        T.add_rank_one(random_seqvec(rng, WIN), random_seqvec(rng, WIN))
    lower, upper = op_norm(T, OrliczModular(power(2), WIN), "interval", budget=150)
    assert upper is not None and upper == op_norm(T, dyadic_lp(2, WIN), "interval", budget=150)[1]
    assert lower <= upper * (1 + 1e-12)


def test_k_transfer_rejects_undominated():
    x = SeqVec.basis(WIN, -5, 0.01)
    y = SeqVec.basis(WIN, 5, 50.0)
    with pytest.raises(HypothesisError, match="K-domination"):
        k_transfer(x, y, E1, EINF, FIT)


def _diagonal():
    T = PositiveMatrix(WIN)
    T.add_diagonal({0: 1.0})
    return T


@pytest.mark.parametrize("call, match", [
    (lambda: op_norm(_diagonal(), E1, "lower", budget=0), "budget must be at least 1; got 0"),
    (lambda: op_norm(_diagonal(), E1, "lower", budget=-3), "budget must be at least 1; got -3"),
    (lambda: op_norm(_diagonal(), E1, "interval", budget=0), "budget must be at least 1; got 0"),
    (lambda: k_transfer(SeqVec.basis(WIN, 0), SeqVec.basis(WIN, 0), E1, EINF, FIT, t_points=0),
     "t_points must be at least 1; got 0"),
    (lambda: k_transfer(SeqVec.basis(WIN, 0), SeqVec.basis(WIN, 0), E1, EINF, FIT, t_points=-1),
     "t_points must be at least 1; got -1"),
], ids=["lower-budget-0", "lower-budget-neg", "interval-budget-0", "t-points-0", "t-points-neg"])
def test_counts_below_one_are_usage_errors(call, match):
    with pytest.raises(UsageError, match=match):
        call()


def test_k_transfer_requires_separation():
    flat = fit_separation({int(n): 1.0 for n in WIN.indices()})
    x = SeqVec.basis(WIN, 0)
    with pytest.raises(HypothesisError):
        k_transfer(x, x, E1, E1, flat)


def _reference_split(x, y, E, F, s):
    """Per-index split: J1 where the prefix E-norms compare at s, else J2 where
    the suffix F-norms do; the first index where neither holds, with the
    constant it needs, ends the scan."""
    J1, J2 = [], []
    for a in (int(a) for a in x.window.indices()):
        if E.norm(y.prefix(a)) <= s * E.norm(x.prefix(a)) + 1e-300:
            J1.append(a)
        elif F.norm(y.suffix(a)) <= s * F.norm(x.suffix(a)) + 1e-300:
            J2.append(a)
        else:
            need_e = E.norm(y.prefix(a)) / max(E.norm(x.prefix(a)), 1e-300)
            need_f = F.norm(y.suffix(a)) / max(F.norm(x.suffix(a)), 1e-300)
            return J1, J2, (a, min(need_e, need_f) / 2.0)
    return J1, J2, None


def _damped_shift(seed, shift, damp):
    rng = np.random.default_rng(seed)
    vals = np.zeros(WIN.size)
    vals[rng.choice(np.arange(3, WIN.size - 3), size=6, replace=False)] = rng.random(6) + 0.2
    return SeqVec(WIN, vals), SeqVec(WIN, damp * shift_values(vals, shift))


@pytest.mark.parametrize("F", [EINF, OrliczModular(power(2), WIN)], ids=["linf", "orlicz"])
def test_k_transfer_split_matches_per_index_reference(F):
    fit = fit_separation(rho_profile(E1, F, WIN))
    reached_j2 = False
    for seed in range(3):
        for shift in (1, -1, -2):
            x, y = _damped_shift(seed, shift, 0.45)
            T = k_transfer(x, y, E1, F, fit, t_points=3)
            s = 2.0 * T.certified_bounds["C2_measured"] * (1 + 1e-9)
            J1, J2, fail = _reference_split(x, y, E1, F, s)
            assert fail is None
            notes = {st["branch"]: st["indices"] for st in T.provenance if "branch" in st}
            assert notes.get("J1", []) == J1
            assert notes.get("J2 (order-reversed)", []) == J2
            reached_j2 |= bool(J2)
    assert reached_j2


@pytest.mark.parametrize("F", [EINF, OrliczModular(power(2), WIN)], ids=["linf", "orlicz"])
def test_k_transfer_neither_error_matches_reference(F, monkeypatch):
    # K-domination and C2 = 1 are forced (K = inf at every t: every block
    # ratio is 0), so y's excess reaches the split
    monkeypatch.setattr(transfer, "_k_grid",
                        lambda ts, v, E, F: [SimpleNamespace(value=math.inf)] * len(ts))
    fit = fit_separation(rho_profile(E1, F, WIN))
    for seed in range(3):
        for shift, damp in ((1, 3.0), (-1, 5.0), (2, 2.5)):
            x, y = _damped_shift(seed, shift, damp)
            _, _, fail = _reference_split(x, y, E1, F, 2.0 * (1 + 1e-9))
            assert fail is not None
            a, need = fail
            with pytest.raises(HypothesisError) as err:
                k_transfer(x, y, E1, F, fit, t_points=3)
            assert str(err.value) == (
                f"neither prefix nor suffix comparison holds at a = {a}; "
                f"needed constant {need:.6g} > C2 = {1.0:.6g}")


@pytest.mark.parametrize("build", ["majorization", "k", "rank-one", "op-norm", "k-numeric",
                                   "k-block", "replay", "norm", "norming", "rho"])
@pytest.mark.parametrize("side", ["E", "F"])
def test_space_on_another_window_is_usage_error(build, side):
    # a window of the same size would put the space's weights on the wrong
    # indices, so every pairing of data with a space refuses it through the
    # one window check, naming both windows
    x, y = _damped_shift(0, 1, 0.45)
    other = Window("Z", 0, 24)
    E, F = (dyadic_lp(1, other), EINF) if side == "E" else (E1, LinftySeq(other))
    fam = gen_interlaced(E1, WIN, 2, (1, 2), seed=0)
    one = E if side == "E" else F
    call = {
        "majorization": lambda: majorization_transfer(x, y, E, F),
        "k": lambda: k_transfer(x, y, E, F, FIT, t_points=3),
        "rank-one": lambda: rank_one_shift(fam, one),
        "op-norm": lambda: op_norm(_diagonal(), one, "interval", 10),
        "k-numeric": lambda: k_numeric(1.0, x, E, F),
        "k-block": lambda: k_block_estimate(1.0, x, E, F, FIT),
        "replay": lambda: replay_witness(one, ShiftWitness(
            one.spec_string(), "rsp", WIN, fam, [1.0, 1.0], 1.0, 0)),
        "norm": lambda: one.norm(x),
        "norming": lambda: norming_functional(one, x),
        "rho": lambda: rho_profile(E, F, WIN),
    }[build]
    with pytest.raises(UsageError, match=r"^window mismatch: .* is on Z\[0,24\], the "
                                         r"(vectors?|family|matrix|window) on Z\[-12,12\]$"):
        call()


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def test_op_norm_diagonal_exact():
    T = PositiveMatrix(WIN)
    T.add_diagonal({-3: 0.5, 0: 2.0, 4: 1.5})
    assert op_norm(T, E1, "upper") == pytest.approx(2.0)
    assert op_norm(T, EINF, "upper") == pytest.approx(2.0)


def test_op_norm_single_entry_weight_ratio():
    T = PositiveMatrix(WIN)
    f = SeqVec.basis(WIN, -2)
    t = SeqVec.basis(WIN, 3)
    T.add_rank_one(f, t)  # T[3, -2] = 1
    assert op_norm(T, E1, "upper") == pytest.approx(2.0 ** (3 - (-2)))


def test_op_norm_lower_below_schur(rng):
    E2 = dyadic_lp(2, WIN)
    for seed in range(4):
        T = PositiveMatrix(WIN)
        g = np.random.default_rng(seed)
        for _ in range(8):
            j, k = int(g.integers(WIN.lo, WIN.hi + 1)), int(g.integers(WIN.lo, WIN.hi + 1))
            T.add_rank_one(SeqVec.basis(WIN, k, float(g.random())),
                           SeqVec.basis(WIN, j, 1.0))
        lower, upper = op_norm(T, E2, "interval", budget=200, seed=seed)
        assert lower <= upper + 1e-9


def test_op_norm_exact_unsupported():
    win = Window("Z-", -6, -1)
    from couplekit import OrliczModular, example1
    E = OrliczModular(example1(), win)
    T = PositiveMatrix(win)
    T.add_diagonal({-3: 1.0})
    with pytest.raises(UsageError):
        op_norm(T, E, "upper")
    assert op_norm(T, E, "lower", budget=50, seed=0) > 0


def test_op_norm_order_reversed_consistency():
    from couplekit import OrderReversed
    T = PositiveMatrix(WIN)
    T.add_rank_one(SeqVec.basis(WIN, -2), SeqVec.basis(WIN, 3, 0.7))
    R = OrderReversed(E1)  # on WIN.reversed(), where T.reversed() is
    direct = op_norm(T, E1, "upper")
    via = op_norm(T.reversed(), R, "upper")
    assert via == pytest.approx(direct)



def _dense_colrow(T, w):
    """Max column and row sums of w_j T_jk / w_k, from the entries."""
    M = np.zeros((WIN.size, WIN.size))
    for (j, k), v in T.entries.items():
        M[j - WIN.lo, k - WIN.lo] = v
    C = w[:, None] * M / w[None, :]
    return float(np.max(C.sum(axis=0))), float(np.max(C.sum(axis=1)))


@pytest.mark.parametrize("make", [
    lambda p: WeightedLp(p, WIN, wexp=0.3),
    lambda p: GeometricWeighted(dyadic_lp(p, WIN), 2.0 ** 0.5),
    lambda p: OrderReversed(dyadic_lp(p, WIN.reversed())),
    # a reversal answers weighted_lp_form, so a wrapper around it has a bound
    lambda p: GeometricWeighted(OrderReversed(dyadic_lp(p, WIN.reversed())), 2.0 ** 0.5),
], ids=["weighted", "geometric", "reversed", "geometric-reversed"])
def test_op_norm_schur_is_the_closed_form(make):
    g = np.random.default_rng(17)
    T = PositiveMatrix(WIN)
    for _ in range(6):
        T.add_rank_one(random_seqvec(g, WIN, k=3), random_seqvec(g, WIN, k=2))
    T.add_diagonal({int(n): float(g.random()) for n in g.choice(WIN.indices(), 4)})
    for p, pick in ((1.0, 0), (math.inf, 1)):
        S = make(p)
        assert op_norm(T, S, "upper") == pytest.approx(
            _dense_colrow(T, S.unit_norms())[pick], rel=1e-12)
    S = make(2.0)
    col, row = _dense_colrow(T, S.unit_norms())
    assert op_norm(T, S, "upper") == pytest.approx(col ** 0.5 * row ** 0.5, rel=1e-12)
    assert op_norm(T, S, "interval", budget=40)[1] == op_norm(T, S, "upper")


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_localized_norm_sandwich(rng):
    # C1 = C0/(1 - 2^{-beta}); supp x in [a, b] localizes the norm ratio
    C1 = FIT.C0 / (1.0 - 2.0 ** -FIT.beta)
    for _ in range(12):
        a = int(rng.integers(WIN.lo, WIN.hi - 3))
        b = int(rng.integers(a, min(a + 6, WIN.hi)))
        x = random_seqvec(rng, WIN, k=3)
        x = x.restrict(range(a, b + 1))
        if not np.any(x.values):
            continue
        ratio = E1.norm(x) / EINF.norm(x)
        assert FIT.rho[a] / C1 - 1e-12 <= ratio <= C1 * FIT.rho[b] + 1e-12


def test_provenance_replay_bit_identical(rng):
    x = random_seqvec(rng, WIN, k=6)
    y = x.scale(0.5)
    T = majorization_transfer(x, y, E1, EINF)
    R = PositiveMatrix.replay(T.window, T.provenance)
    assert R.entries == T.entries


def test_matrix_json_round_trip(rng):
    x = random_seqvec(rng, WIN, k=5)
    T = majorization_transfer(x, x.scale(0.3), E1, EINF)
    blob = json.dumps(T.to_json_dict(), sort_keys=True)
    back = PositiveMatrix.from_json_dict(json.loads(blob))
    assert back.entries == T.entries
    assert back.certified_bounds == T.certified_bounds
    R = PositiveMatrix.replay(back.window, back.provenance)
    assert R.entries == T.entries


def test_positivity_enforced():
    T = PositiveMatrix(WIN)
    with pytest.raises(ValueError, match="must be >= 0"):
        T.add_diagonal({0: -1.0})
    for g, y in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="must be >= 0"):
            T.add_rank_one(SeqVec.basis(WIN, 0, g), SeqVec.basis(WIN, 1, y))
    # like ``apply``, a rank-one step needs T's window
    with pytest.raises(ValueError, match="window mismatch"):
        T.add_rank_one(SeqVec.basis(WIN, 0), SeqVec.basis(Window("Z", -12, 13), 1))
    assert not T.steps


def test_positivity_rejects_nan():
    # a NaN is not >= 0: each entry point refuses it
    T = PositiveMatrix(WIN)
    with pytest.raises(ValueError, match="must be >= 0"):
        T.add_diagonal({-1: math.nan})
    for g, y in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be >= 0"):
            T.add_rank_one(SeqVec.basis(WIN, 0, g), SeqVec.basis(WIN, 1, y))
    with pytest.raises(ValueError, match="must be >= 0"):
        T.scaled(math.nan)
    assert not T.steps


def test_factor_stack_is_the_entries():
    # seeded majorization and K transfers: every entry comes from exactly one
    # step, so the stack Y.T @ G + diag(d) equals the step-by-step entries
    # bit for bit
    built, n = 0, WIN.size
    for F in (EINF, dyadic_lp(2, WIN)):
        fit = fit_separation(rho_profile(E1, F, WIN))
        for seed in range(8):
            for shift in (1, -1):
                x, y = _damped_shift(seed, shift, 0.45)
                builds = [k_transfer(x, y, E1, F, fit, t_points=3)]
                if shift == 1:  # y's prefix norms stay below x's
                    builds.append(majorization_transfer(x, y, E1, F))
                for T in builds:
                    steps = [np.outer(yr != 0, g != 0) for g, yr in zip(T.G, T.Y)]
                    steps += [np.diag(v != 0) for op, v, _ in T.steps if op == "diagonal"]
                    M = np.zeros((n, n))
                    for (j, k), v in T.entries.items():
                        M[j - WIN.lo, k - WIN.lo] = v
                    assert np.array_equal(np.sum(steps, axis=0), M != 0)
                    assert np.array_equal(T.Y.T @ T.G + np.diag(T.d), M)
                    built += 1
    assert built == 48


def test_from_json_rejects_tampered_triplet(rng):
    x = random_seqvec(rng, WIN, k=5)
    d = majorization_transfer(x, x.scale(0.3), E1, EINF).to_json_dict()
    d["triplets"][0][2] *= 1.5
    with pytest.raises(UsageError, match="triplets"):
        PositiveMatrix.from_json_dict(json.loads(json.dumps(d)))


# ---------------------------------------------------------------------------
# operator algebra (properties)
# ---------------------------------------------------------------------------

_VALUES = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3))


@st.composite
def windows(draw):
    lo = draw(st.integers(min_value=-10, max_value=5))
    return Window("Z", lo, lo + draw(st.integers(min_value=0, max_value=9)))


@st.composite
def matrices(draw, win):
    def entries():
        return draw(st.dictionaries(st.integers(win.lo, win.hi), _VALUES, max_size=4))

    T = PositiveMatrix(win)
    for op in draw(st.lists(st.sampled_from(["rank_one", "diagonal", "note"]), max_size=6)):
        if op == "rank_one":
            T.add_rank_one(SeqVec.from_entries(win, entries()),
                           SeqVec.from_entries(win, entries()), note="step")
        elif op == "diagonal":
            T.add_diagonal(entries())
        else:
            T.note(tag=draw(st.integers(0, 9)))
    return T


def vectors(win):
    return st.lists(_VALUES, min_size=win.size, max_size=win.size).map(
        lambda v: SeqVec(win, np.array(v)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_and_json_round_trip_property(data):
    T = data.draw(matrices(data.draw(windows())))
    assert PositiveMatrix.replay(T.window, T.provenance).entries == T.entries
    back = PositiveMatrix.from_json_dict(json.loads(json.dumps(T.to_json_dict())))
    assert back.entries == T.entries
    assert back.provenance == T.provenance


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reversed_twice_property(data):
    T = data.draw(matrices(data.draw(windows())))
    R = T.reversed()
    assert R.entries == {(-(j + 1), -(k + 1)): v for (j, k), v in T.entries.items()}
    assert R.reversed().entries == T.entries


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_linear_property(data):
    win = data.draw(windows())
    A, B = data.draw(matrices(win)), data.draw(matrices(win))
    x = data.draw(vectors(win))
    c = data.draw(_VALUES)
    ax = A.apply(x).values
    M = np.zeros((win.size, win.size))
    for (j, k), v in A.entries.items():
        M[j - win.lo, k - win.lo] = v
    assert np.allclose(ax, M @ x.values, rtol=1e-12, atol=0.0)
    assert np.allclose(A.scaled(c).apply(x).values, c * ax, rtol=1e-12, atol=0.0)
    assert np.allclose((A + B).apply(x).values, ax + B.apply(x).values,
                       rtol=1e-12, atol=0.0)


def _reference_op_norm_lower(T, space, budget, seed):
    """The step-by-step lower-bound ascent: ``norm`` and ``apply`` per trial;
    it stops once best >= upper / (1 + 1e-12), upper the closed form, tested
    after the column rays, after each evaluation of x and after each pass."""
    rng = np.random.default_rng(seed)
    win = T.window
    upper = transfer._upper_bound(T, space)
    level = math.inf if upper is None else upper / (1 + 1e-12)
    cols = sorted({k for (_, k) in T.entries})
    if not cols:
        return 0.0
    best = 0.0
    for k in cols:
        x = SeqVec.basis(win, k)
        nx = space.norm(x)
        if nx > 0:
            best = max(best, space.norm(T.apply(x)) / nx)
    evals = len(cols)
    x = np.zeros(win.size)
    for k in cols:
        x[k - win.lo] = 1.0
    while evals < budget and best < level:
        vec = SeqVec(win, x)
        nx = space.norm(vec)
        r = space.norm(T.apply(vec)) / nx if nx > 0 else 0.0
        evals += 1
        best = max(best, r)
        if best >= level:
            break
        improved = False
        for k in rng.permutation(cols):
            for factor in (2.0, 0.5):
                trial = x.copy()
                trial[k - win.lo] *= factor
                tv = SeqVec(win, trial)
                nt = space.norm(tv)
                r2 = space.norm(T.apply(tv)) / nt if nt > 0 else 0.0
                evals += 1
                if r2 > best * (1 + 1e-12):
                    best, x = r2, trial
                    improved = True
                if evals >= budget:
                    break
            if evals >= budget:
                break
        if not improved:
            x = np.zeros(win.size)
            pick = rng.choice(cols, size=max(1, len(cols) // 2), replace=False)
            for k in pick:
                x[k - win.lo] = rng.random() + 0.1
    return best


_SPARSE = st.lists(st.one_of(st.just(0.0), st.floats(0.05, 4.0)), min_size=8, max_size=8)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(SEARCH_SPACE_KINDS), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       base=st.floats(0.5, 2.0), steps=st.lists(st.tuples(_SPARSE, _SPARSE), min_size=1,
                                                max_size=3),
       diag=st.one_of(st.none(), _SPARSE),
       budget=st.sampled_from(["1", "cols+1", "cols+2", 7, 60]), seed=st.integers(0, 2 ** 16))
def test_op_norm_lower_equals_step_by_step_ascent(kind, p, base, steps, diag, budget, seed):
    win = Window("Z-", -8, -1)
    T = PositiveMatrix(win)
    for g, y in steps:
        T.add_rank_one(SeqVec(win, g), SeqVec(win, y))
    if diag is not None:
        T.add_diagonal({int(n): v for n, v in zip(win.indices(), diag)})
    n_cols = len({k for (_, k) in T.entries})
    budget = {"1": 1, "cols+1": n_cols + 1, "cols+2": n_cols + 2}.get(budget, budget)
    space = search_space(kind, win, p, base)
    assert op_norm(T, space, "lower", budget, seed) == _reference_op_norm_lower(
        T, space, budget, seed)


def test_op_norm_lower_tries_one_step_on_a_spent_budget():
    # budget = columns + 1: the rays and the all-ones x spend it, yet one step
    # still runs, and x_-2 * 2 lifts 3/sqrt(2) to 5/sqrt(5)
    win = Window("Z-", -2, -1)
    T = PositiveMatrix(win)
    T.add_rank_one(SeqVec(win, [2.0, 1.0]), SeqVec(win, [1.0, 0.0]))
    E2 = WeightedLp(2.0, win)
    lowers = [op_norm(T, E2, "lower", budget=3, seed=s) for s in range(4)]
    assert lowers == [_reference_op_norm_lower(T, E2, 3, s) for s in range(4)]
    assert max(lowers) == pytest.approx(5 ** 0.5)


@st.composite
def positive_matrices(draw):
    """A window of 2-8 indices and a positive matrix on it: rank-one steps with
    strictly positive factors and, maybe, a positive diagonal."""
    n = draw(st.integers(2, 8))
    win = Window("Z", -(n // 2), n - n // 2 - 1)
    positive = st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n)
    T = PositiveMatrix(win)
    for _ in range(draw(st.integers(1, 3))):
        T.add_rank_one(SeqVec(win, draw(positive)), SeqVec(win, draw(positive)))
    if draw(st.booleans()):
        T.add_diagonal(dict(zip(win.indices().tolist(), draw(positive))))
    return T


@settings(max_examples=60, deadline=None)
@given(T=positive_matrices(), weighted=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_op_norm_lower_stops_at_the_exact_norm(T, weighted, seed):
    # on a weighted ell_1 a column ray attains the closed form, on ell_inf the
    # all-ones x does: the search ends there instead of spending its budget
    win = T.window
    spaces = [WeightedLp(1.0, win, wexp=0.4 if weighted else 0.0), LinftySeq(win)]
    n_cols = len({k for (_, k) in T.entries})
    for space in spaces:
        search = transfer._op_norm_lower(T, space, 60, seed)
        exact = op_norm(T, space, "upper")
        assert search.stop == "upper" and search.upper == exact
        assert search.evals <= n_cols + 1
        assert search.lower >= exact / (1 + 1e-12)
        assert op_norm(T, space, "lower", 60, seed) == search.lower


def test_op_norm_lower_without_closed_form_spends_its_budget():
    win = Window("Z-", -4, -1)
    T = PositiveMatrix(win)
    T.add_rank_one(SeqVec(win, [1.0, 2.0, 0.5, 1.0]), SeqVec(win, [0.5, 1.0, 1.0, 2.0]))
    for budget in (1, 5, 40):
        search = transfer._op_norm_lower(T, search_space("modular", win), budget, 3)
        assert (search.upper, search.stop) == (None, "budget")
        assert search.evals >= budget
    # on ell_2 the Schur bound 9 lies above the norm 6.25 of this rank-one T
    search = transfer._op_norm_lower(T, WeightedLp(2.0, win), 40, 3)
    assert (search.upper, search.stop) == (pytest.approx(9.0), "budget")
    assert search.lower == pytest.approx(6.25)


def test_op_norm_lower_stops_once_its_ratio_overflows():
    # the rank-one step's weight 1e300 * 1e300 overflows on its column ray, and
    # no step can beat inf: the search ends there instead of spending its
    # budget (it used to run all 400 evals and report "budget")
    win = Window("Z", -6, 6)
    T = PositiveMatrix(win)
    T.add_diagonal({0: 1e300})
    g, y = np.zeros(win.size), np.zeros(win.size)
    g[2], y[8] = 1e300, 1e300
    T.add_rank_one(SeqVec(win, g), SeqVec(win, y))
    search = transfer._op_norm_lower(T, OrliczModular(example1(), win), 400, 0)
    assert math.isinf(search.lower) and search.stop == "overflow"
    assert search.evals <= 2 + 1  # the nonzero columns, n = -4 and n = 0, and x


@pytest.mark.parametrize("build", ["majorization", "k"])
@pytest.mark.parametrize("which", ["x", "y"])
def test_transfers_reject_non_finite_vectors(build, which):
    vecs = dict(zip("xy", _damped_shift(0, 1, 0.45)))
    vals = vecs[which].values.copy()
    vals[5] = math.nan
    vecs[which] = SeqVec(WIN, vals)
    with pytest.raises(UsageError, match=f"^{which} has a non-finite value nan at index -7$"):
        if build == "majorization":
            majorization_transfer(vecs["x"], vecs["y"], E1, EINF)
        else:
            k_transfer(vecs["x"], vecs["y"], E1, EINF, FIT, t_points=3)
