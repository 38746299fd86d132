"""Constructive synthesis of positive admissible operators.

Three constructions, each returning a nonnegative matrix T stored as its
rank-one and diagonal factors, with replayable provenance and certified norm
bounds:

* ``rank_one_shift`` -- T = sum_n <., g_n> y_n over the rows (x_n, y_n) of
  an ``InterlacedFamily``'s X and Y, with g_n a norming functional of x_n.
  Exact: T x_n = y_n by the disjoint supports.
* ``majorization_transfer`` -- the prefix-majorization construction: if
  ||y_(-inf,a]||_E <= ||x_(-inf,a]||_E for all a then T x = y with T a
  bounded positive matrix.  The partition constants are kept verbatim:
  sigma(k) is the greatest j with ||x_(-inf,k]||_E >= 4^j, I_0 the set of
  sigma-increase points, I the subset whose prefix norms at least double
  past every earlier I_0 point, the mixed-support case splits off
  I = {n : y_n > 2 x_n} and handles the rest by a multiplication operator
  of norm <= 2.  Certified bound: 128 C_0 + 2, with C_0 the measured
  rank-one-sum constant for the couple.
* ``k_transfer`` -- K-domination to operator: J_1 collects the indices
  where the prefix E-norms compare at 2 C_2, J_2 the rest (suffix F-norms
  compare there); each half is a majorization transfer, the second through
  order reversal, and T = T_1 + T_2.

All three add their rank-one steps through one builder, ``_add_block_sum``,
which takes the block pairs as the rows of two arrays, as ``InterlacedFamily``
holds them, and checks every norming functional against ||x_n|| to
FUNCTIONAL_TOL; prefix and suffix norms come from the tables of
``kfunc``, ``_prefix_norms`` and ``_suffix_norms``, and the weighted-ell_p
operator bound from one closed form, ``_upper_bound``.  The ``op_norm``
lower bound is a one-lane multiplicative ascent of ``spaces._ascend_steps``
over batches of rows, which stops once it meets that closed form.

Window truncation realizes the two-ended proofs: indices below window.lo
carry no mass, so the lower-tail extension set B is always empty here and
the initial element takes the x_(-inf, a_0] block; the prefix hypothesis is
checked down to a = window.lo - 1 explicitly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import HypothesisError, UsageError, check_budget
from .kfunc import _block_points, _check_finite, _k_grid, _prefix_norms, _suffix_norms
from .measure import SeqVec, Window, _sparse
from .shift import STOP_BUDGET, STOP_UPPER, InterlacedFamily
from .spaces import SeparationFit, SeqSpaceSpec, _ascend_steps, norming_functional

EXACTNESS_TOL = 1e-9
# <x, g> = ||x|| tolerance for every norming functional of a block sum
FUNCTIONAL_TOL = 1e-8
# relative slack in the K-domination check K(t, y) <= K(t, x)
K_TOL = 1e-7
# evaluations of an ``op_norm`` lower-bound search unless told otherwise
OP_NORM_BUDGET = 400
# relative margin of an ``op_norm`` ascent's accepts and of its stop at the
# closed-form upper bound
_OP_REL = 1e-12


class _Step(NamedTuple):
    """One step: rank-one <., g> y, a diagonal (its values in y), or a note.

    ``g`` and ``y`` are dense nonnegative arrays over the window; ``info`` is
    the step's note string, or for a note step its whole provenance record.
    """

    op: str
    g: np.ndarray | None
    y: np.ndarray | None
    info: object


class PositiveMatrix:
    """Nonnegative matrix on a window, stored as its ordered factor steps.

    A step is a rank-one map <., g> y ("rank_one"), a diagonal multiplier
    ("diagonal") or a non-operative "note" recording partition data and
    measured constants.  The steps are the only state: ``entries``, ``apply``,
    the JSON triplets and the weighted row and column sums are computed from
    them, and ``provenance`` lists them, so ``replay`` rebuilds the matrix
    bit-identically.  Every factor must be nonnegative.
    """

    def __init__(self, window: Window, certified_bounds: dict | None = None):
        self.window = window
        self.steps: list[_Step] = []
        self.certified_bounds = certified_bounds

    def _values(self, entries: dict) -> np.ndarray:
        return SeqVec.from_entries(self.window, entries).values

    def _push(self, op: str, g: np.ndarray | None, y: np.ndarray, note):
        if np.any(y < 0) or (g is not None and np.any(g < 0)):
            raise ValueError("positive matrix entries must be >= 0")
        self.steps.append(_Step(op, g, y, note))

    # -- construction steps --------------------------------------------------

    def add_rank_one(self, functional: SeqVec, target: SeqVec, note: str | None = None):
        if functional.window != self.window or target.window != self.window:
            raise ValueError("window mismatch")
        self._push("rank_one", functional.values, target.values, note)

    def add_diagonal(self, diag: dict[int, float], note: str | None = None):
        self._push("diagonal", None, self._values(diag), note)

    def note(self, **kwargs):
        self.steps.append(_Step("note", None, None, {"op": "note", **kwargs}))

    @property
    def provenance(self) -> list[dict]:
        out = []
        for s in self.steps:
            if s.op == "rank_one":
                rec = {"op": "rank_one", "functional": _sparse(self.window, s.g),
                       "target": _sparse(self.window, s.y)}
            elif s.op == "diagonal":
                rec = {"op": "diagonal", "diag": _sparse(self.window, s.y)}
            else:
                out.append(dict(s.info))
                continue
            if s.info:
                rec["note"] = s.info
            out.append(rec)
        return out

    @staticmethod
    def replay(window: Window, provenance: list) -> "PositiveMatrix":
        out = PositiveMatrix(window)
        for step in provenance:
            if step["op"] == "rank_one":
                out._push("rank_one", out._values(step["functional"]),
                          out._values(step["target"]), step.get("note"))
            elif step["op"] == "diagonal":
                out.add_diagonal(step["diag"], note=step.get("note"))
            else:
                out.steps.append(_Step("note", None, None, dict(step)))
        return out

    # -- views computed from the steps ----------------------------------------

    def _factors(self):
        """(G, Y, d): stacked rank-one factors (rank x n) and the summed diagonal."""
        n = self.window.size
        ones = [s for s in self.steps if s.op == "rank_one"]
        d = np.zeros(n)
        for s in self.steps:
            if s.op == "diagonal":
                d += s.y
        return (np.array([s.g for s in ones]).reshape(len(ones), n),
                np.array([s.y for s in ones]).reshape(len(ones), n), d)

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        """Nonzero entries {(j, k): value}, each summed over the steps in order."""
        n, lo = self.window.size, self.window.lo
        M = np.zeros((n, n))
        for s in self.steps:
            if s.op == "rank_one":
                M += np.outer(s.y, s.g)
            elif s.op == "diagonal":
                M.flat[::n + 1] += s.y
        return {(int(j) + lo, int(k) + lo): float(M[j, k]) for j, k in zip(*np.nonzero(M))}

    def apply(self, x: SeqVec) -> SeqVec:
        if x.window != self.window:
            raise ValueError("window mismatch")
        G, Y, d = self._factors()
        return SeqVec(self.window, Y.T @ (G @ x.values) + d * x.values)

    # -- algebra ---------------------------------------------------------------

    def scaled(self, c: float) -> "PositiveMatrix":
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        out = PositiveMatrix(self.window)
        out.steps = [s if s.op == "note" else s._replace(y=s.y * c) for s in self.steps]
        if self.certified_bounds is not None:
            out.certified_bounds = {
                k: (v * c if isinstance(v, (int, float)) and k in ("E", "F") else v)
                for k, v in self.certified_bounds.items()
            }
        return out

    def __add__(self, other: "PositiveMatrix") -> "PositiveMatrix":
        if other.window != self.window:
            raise ValueError("window mismatch")
        out = PositiveMatrix(self.window)
        out.steps = self.steps + other.steps
        return out

    def reversed(self) -> "PositiveMatrix":
        """Conjugation by the order reversal: entries (j,k) -> (-(j+1), -(k+1)).

        The certified bounds carry over unchanged: they now bound the matrix
        on the order-reversed spaces.
        """
        out = PositiveMatrix(self.window.reversed(), self.certified_bounds)
        out.steps = [s._replace(g=None if s.g is None else s.g[::-1],
                                y=None if s.y is None else s.y[::-1])
                     for s in self.steps]
        return out

    def to_json_dict(self) -> dict:
        return {
            "window": self.window.to_json_dict(),
            "triplets": [[j, k, v] for (j, k), v in sorted(self.entries.items())],
            "provenance": self.provenance,
            "certified_bounds": self.certified_bounds,
        }

    @staticmethod
    def from_json_dict(d) -> "PositiveMatrix":
        """Replay the stored provenance; the stored triplets must agree with it."""
        out = PositiveMatrix.replay(Window.from_json_dict(d["window"]),
                                    d.get("provenance", []))
        out.certified_bounds = d.get("certified_bounds")
        if {(int(j), int(k)): float(v) for j, k, v in d["triplets"]} != out.entries:
            raise UsageError("stored triplets disagree with the replayed provenance")
        return out

    def __repr__(self):
        return f"<PositiveMatrix {len(self.entries)} entries on [{self.window.lo},{self.window.hi}]>"


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def op_norm(T: PositiveMatrix, space: SeqSpaceSpec, mode: str = "interval",
            budget: int = OP_NORM_BUDGET, seed: int = 0):
    """Operator norm of T on a sequence space, asked through its protocol.

    ``exact``: the closed form of ``_upper_bound`` for a weighted ell_1 or
    ell_infty form.  ``schur``: the same closed form, the Schur interpolation
    bound for 1 < p < inf.  ``lower``: certified lower bound by adversarial
    ascent over ``norm_rows`` (``_op_norm_lower``), which stops early once it
    reaches the closed-form upper bound to 1e-12 relative.  ``interval``
    returns (lower, upper), upper from ``_upper_bound`` (None when the space
    has no weighted-lp form).
    """
    if mode in ("exact", "schur"):
        wp = space.weighted_lp_form()
        if wp is None:
            raise UsageError(f"mode {mode!r} unsupported for {space.spec_string()}")
        if mode == "exact" and 1.0 < wp[1] < math.inf:
            raise UsageError("exact mode needs p = 1 or p = inf")
        return _upper_bound(T, space)
    if mode == "lower":
        return _op_norm_lower(T, space, budget, seed).lower
    if mode == "interval":
        search = _op_norm_lower(T, space, budget, seed)
        return search.lower, search.upper
    raise UsageError(f"unknown op_norm mode {mode!r}")


class _LowerSearch(NamedTuple):
    """An ``op_norm`` lower-bound search: the bound, the closed-form upper
    bound (None without one), the evaluations spent and why it stopped."""

    lower: float
    upper: float | None
    evals: int
    stop: str  # STOP_UPPER once lower reached upper / (1 + 1e-12), else STOP_BUDGET


def _op_norm_lower(T: PositiveMatrix, space: SeqSpaceSpec, budget: int,
                   seed: int) -> _LowerSearch:
    """Best ||T x|| / ||x|| over the column rays, then rounds of one
    ``_ascend_steps`` pass (x_k * 2, x_k / 2 over shuffled columns) against the
    best so far, each of at least one step; a round without an accept restarts.

    The search stops on ``upper`` once best >= upper / (1 + 1e-12), upper the
    closed form ``_upper_bound``: tested after the column rays, after each
    evaluation of x and after each pass.  That bound is exact on a weighted
    ell_1 (a column ray attains it) and on ell_infty (the all-ones x does), so
    there the search ends within one evaluation past the rays.  Without a
    closed form it spends the budget."""
    check_budget(budget)
    upper = _upper_bound(T, space)
    level = math.inf if upper is None else upper / (1 + _OP_REL)
    rng = np.random.default_rng(seed)
    win = T.window
    cols = sorted({k for (_, k) in T.entries})

    def result(best: float, evals: int) -> _LowerSearch:
        return _LowerSearch(best, upper, evals, STOP_UPPER if best >= level else STOP_BUDGET)

    if not cols:
        return result(0.0, 0)
    G, Y, d = T._factors()

    def ratios(V):
        # T row by row, as ``apply`` computes it: a matrix product may round otherwise
        TV = np.array([Y.T @ (G @ v) + d * v for v in V])
        nx, ntx = space.norm_rows(np.concatenate([V, TV])).reshape(2, -1)
        return np.divide(ntx, nx, out=np.zeros(nx.size), where=nx > 0)

    # columns as starting rays
    best = max([0.0] + ratios(np.eye(win.size)[np.array(cols) - win.lo]).tolist())
    evals = len(cols)
    x = np.zeros(win.size)
    x[np.array(cols) - win.lo] = 1.0
    while evals < budget and best < level:
        best = max(best, float(ratios(x[None])[0]))
        evals += 1
        if best >= level:
            break
        perm = rng.permutation(cols) - win.lo
        (best, x, used, log), = _ascend_steps(
            ratios, [[x, best, np.repeat(perm, 2), np.tile([2.0, 0.5], perm.size),
                      max(1, budget - evals)]], _OP_REL)
        evals += used
        if len(log) == 1:  # no accept
            x = np.zeros(win.size)
            pick = rng.choice(cols, size=max(1, len(cols) // 2), replace=False)
            for k in pick:
                x[k - win.lo] = rng.random() + 0.1
    return result(best, evals)


def _upper_bound(T: PositiveMatrix, space: SeqSpaceSpec) -> float | None:
    """Closed-form upper bound over ``weighted_lp_form()`` = (w, p), else None.

    With C = w_j T_jk / w_k the weight-conjugated matrix: its max column sum
    (exact for p = 1), its max row sum (exact for p = inf), and otherwise the
    Schur interpolation col^(1/p) row^(1 - 1/p).
    """
    wp = space.weighted_lp_form()
    if wp is None:
        return None
    w, p = wp
    G, Y, d = T._factors()
    col = float(np.max((G.T @ (Y @ w)) / w + d))
    row = float(np.max(w * (Y.T @ (G @ (1.0 / w))) + d))
    if p == 1.0:
        return col
    if math.isinf(p):
        return row
    return col ** (1.0 / p) * row ** (1.0 - 1.0 / p)


# ---------------------------------------------------------------------------
# rank-one-sum operators
# ---------------------------------------------------------------------------


def _add_block_sum(T: PositiveMatrix, X, Y, E: SeqSpaceSpec, note: str) -> tuple:
    """Add sum_n <., g_n> y_n to T over the block pairs (x_n, y_n), the rows
    of X and Y, with y_n != 0.

    g_n is the norming functional of x_n scaled so <x_n, g_n> = 1, after
    checking <x_n, g> = ||x_n||_E to FUNCTIONAL_TOL, the norms from one
    ``norm_rows`` call; supp g_n stays inside supp x_n.  ``note`` is the step
    note, with ``{n}`` the pair's row.  Returns the rows (X, Y, G) it added.
    """
    rows = np.flatnonzero(Y.any(axis=1))
    X, Y = X[rows], Y[rows]
    G = np.empty_like(X)
    for k, (n, nx) in enumerate(zip(rows.tolist(), E.norm_rows(X).tolist())):
        g = norming_functional(E, SeqVec(T.window, X[k])).values
        pairing = float(np.dot(X[k], g))
        if abs(pairing / nx - 1.0) > FUNCTIONAL_TOL:
            raise HypothesisError(
                f"norming functional failed tolerance: <x, g> = {pairing:.12g} "
                f"against ||x|| = {nx:.12g}")
        G[k] = (1.0 / pairing) * g
        T._push("rank_one", G[k], Y[k], note.format(n=n))
    return X, Y, G


def rank_one_shift(family: InterlacedFamily, E: SeqSpaceSpec,
                   shifted: bool = False) -> PositiveMatrix:
    """T = sum_n <., g_n> y_n (or y_{n+1} in shifted mode) over the block
    pairs of an interlaced family, the rows of its X and Y.

    Each g_n is the norming functional of x_n scaled so <x_n, g_n> = 1,
    supported in supp x_n, so T x_n = y_n exactly.  Shifted mode pairs
    X[:-1] with Y[1:].
    """
    if not len(family.X):
        raise UsageError("empty family")
    X, Y = (family.X[:-1], family.Y[1:]) if shifted else (family.X, family.Y)
    T = PositiveMatrix(family.window)
    _add_block_sum(T, X, Y, E, "block {n} shifted" if shifted else "block {n}")
    return T


# ---------------------------------------------------------------------------
# majorization transfer  (prefix-norm domination to operator)
# ---------------------------------------------------------------------------


def _sigma_of_prefix(P: float) -> float:
    """Greatest j with P >= 4^j (single prefix norm), -inf when P = 0."""
    if P <= 0.0:
        return -math.inf
    j = math.floor(math.log(P) / math.log(4.0) + 1e-12)
    while 4.0 ** (j + 1) <= P * (1 + 1e-12):
        j += 1
    while 4.0 ** j > P * (1 + 1e-12):
        j -= 1
    return float(j)


def _disjoint_transfer(x: np.ndarray, y: np.ndarray, E: SeqSpaceSpec, win: Window,
                       tol: float = 1e-12) -> tuple[PositiveMatrix, tuple]:
    """Core of the majorization construction for disjointly supported values x, y.

    Requires ||y_(-inf,a]|| <= ||x_(-inf,a]|| for every a.  Partitions the
    window at the doubling points of the prefix norm (base-4 sigma levels),
    pairs each x block with the following y block, and sums the rank-one
    operators; the paired blocks satisfy ||y_{n+1}|| <= 4^3 ||x_n|| which is
    what the rank-one-sum constant quantifies.  One ``searchsorted`` over the
    partition points cuts the blocks.  Returns T and the ``_add_block_sum`` rows.
    """
    P = _prefix_norms(x, E)
    sigma = [_sigma_of_prefix(p) for p in P]  # sigma[i] is at index lo-1+i
    i0 = [i for i in range(1, len(sigma)) if sigma[i] > sigma[i - 1]]
    # each I_0 point whose prefix norm at least doubles the previous one's
    chosen = [i for h, i in zip([None] + i0, i0) if h is None or P[h] <= 0.5 * P[i] * (1 + tol)]
    # x block n is the positions [chosen[n-1], chosen[n]), y block n the
    # positions [chosen[n], chosen[n+1]); y before chosen[0] must be empty
    part = np.searchsorted(chosen, np.arange(win.size), side="right")
    blocks = part == np.arange(len(chosen) + 1)[:, None]
    if float(np.max(np.abs(y[blocks[0]]))) > tol * max(1.0, float(np.max(y))):
        raise HypothesisError("y carries mass before the first x block")

    T = PositiveMatrix(win)
    used = _add_block_sum(T, np.where(blocks[:-1], x, 0.0), np.where(blocks[1:], y, 0.0),
                          E, "partition block {n}")
    T.note(partition=[win.lo + i - 1 for i in chosen])
    return T, used


def _rank_one_constant(X, Y, G, E: SeqSpaceSpec, F: SeqSpaceSpec) -> float | None:
    """Measured rank-one-sum constant C_0: norm of the normalized block shift.

    X, Y and G are the rows the block sum added.  Targets are scaled to
    the source norms (the normalization under which the block-shift constant
    quantifies), the norms from one ``norm_rows`` call per side, and the
    operator norm is bounded on both spaces; None when neither space admits a
    computable upper bound.
    """
    S = PositiveMatrix(E.window)
    for g, y, nx, ny in zip(G, Y, E.norm_rows(X).tolist(), E.norm_rows(Y).tolist()):
        if ny != 0.0:
            S._push("rank_one", g, (nx / ny) * y, None)
    bounds = [b for b in (_upper_bound(S, E), _upper_bound(S, F)) if b is not None]
    if not bounds:
        return None
    return max(max(bounds), 1.0)


def majorization_transfer(x: SeqVec, y: SeqVec, E: SeqSpaceSpec,
                          F: SeqSpaceSpec) -> PositiveMatrix:
    """Positive T with Tx = y from prefix-norm majorization.

    Hypothesis (checked for every a from window.lo - 1 up): the prefix
    norms of y never exceed those of x in E.  The mixed-support reduction
    splits off I = {n : y_n > 2 x_n}; the disjoint construction moves x_J
    mass onto y_I (through the doubled vector 2 x_J, whose prefix norms
    dominate those of y_I), and the multiplication operator V = diag(y_J/x)
    with entries <= 2 supplies the rest.  Certified bound 128 C_0 + 2.
    """
    win = x.window
    if y.window != win:
        raise UsageError("x and y must share a window")
    _check_finite("x", x)
    _check_finite("y", y)
    if np.any(x.values < 0) or np.any(y.values < 0):
        raise UsageError("majorization transfer needs nonnegative vectors")
    if not np.any(x.values):
        if np.any(y.values):
            raise HypothesisError("x = 0 with y != 0")
        T = PositiveMatrix(win)
        T.certified_bounds = _certified_bounds(T, E, F, "zero", {"E": 0.0, "F": 0.0})
        return T
    Px, Py = _prefix_norms(x.values, E), _prefix_norms(y.values, E)
    bad = np.nonzero(Py > Px * (1 + 1e-12))[0]
    if bad.size:
        a = int(win.indices()[bad[0] - 1])
        raise HypothesisError(
            f"prefix majorization fails at a = {a}: "
            f"||y<=a|| = {Py[bad[0]]:.12g} > ||x<=a|| = {Px[bad[0]]:.12g}")

    big = y.values > 2.0 * x.values
    I = win.indices()[big].tolist()
    u, v = np.where(big, 0.0, x.values), np.where(big, y.values, 0.0)

    T, c0 = PositiveMatrix(win), 1.0
    if np.any(v):
        S2, used = _disjoint_transfer(2.0 * u, v, E, win)
        T = S2.scaled(2.0)  # S2(2u) = v, so T = 2 S2 satisfies T u = v
        if len(used[0]):
            c0 = _rank_one_constant(*used, E, F)
    on = ~big & (x.values > 0) & (y.values != 0.0)
    if np.any(on):
        diag = dict(zip(win.indices()[on].tolist(), (y.values[on] / x.values[on]).tolist()))
        T.add_diagonal(diag, note="multiplier branch |y_J| <= 2 x")
    T.note(split_I=I[:64], split_len=(len(I), win.size - len(I)))

    formula = (128.0 * c0 + 2.0) if c0 is not None else None
    T.certified_bounds = _certified_bounds(T, E, F, "128*C0+2", {"E": formula, "F": formula})
    T.certified_bounds["C0_measured"] = c0
    _verify_action(T, x, y)
    return T


def _certified_bounds(T: PositiveMatrix, E: SeqSpaceSpec, F: SeqSpaceSpec,
                      method: str, other: dict) -> dict:
    """Per space the smaller of the direct bound and ``other``; the method
    names the one taken and is left out where neither exists."""
    bounds = {"method": {}}
    for label, space in (("E", E), ("F", F)):
        cands = {"direct": _upper_bound(T, space), method: other[label]}
        cands = {m: b for m, b in cands.items() if b is not None}
        bounds[label] = min(cands.values()) if cands else None
        if cands:
            bounds["method"][label] = min(cands, key=cands.get)
    return bounds


def _verify_action(T: PositiveMatrix, x: SeqVec, y: SeqVec):
    err = float(np.max(np.abs(T.apply(x).values - y.values)))
    scale = float(np.max(np.abs(y.values))) or 1.0
    if err > EXACTNESS_TOL * scale:
        raise HypothesisError(f"construction failed exactness: |Tx - y| = {err:.3g}")


# ---------------------------------------------------------------------------
# K-domination transfer
# ---------------------------------------------------------------------------


def k_transfer(x: SeqVec, y: SeqVec, E: SeqSpaceSpec, F: SeqSpaceSpec,
               fit: SeparationFit, t_points: int = 9) -> PositiveMatrix:
    """Positive T with Tx = y from K-functional domination.

    Verifies K(t, y) <= K(t, x) on a geometric t-grid spanning the rho
    range, measures the block-estimate constant C_2 for the couple on the
    same grid, splits the window into J_1 (prefix E-norms compare at 2 C_2)
    and J_2 (suffix F-norms compare), and combines two majorization
    transfers, the J_2 one through order reversal.  K comes from one
    ``_k_grid`` call per vector, so each vector's level scan serves the whole
    grid, and the block estimates and the split read one prefix E-norm and
    one suffix F-norm table per vector.  A non-finite value of x or y is a
    ``UsageError``.
    """
    if not fit.separated:
        raise HypothesisError("couple is not exponentially separated")
    _check_finite("x", x)
    _check_finite("y", y)
    if np.any(x.values < 0) or np.any(y.values < 0):
        raise UsageError("k_transfer needs nonnegative vectors")
    if t_points < 1:
        raise UsageError(f"t_points must be at least 1; got {t_points}")
    win = x.window
    rho_lo = min(fit.rho.values())
    rho_hi = max(fit.rho.values())
    ts = np.geomspace(rho_lo, rho_hi, t_points)

    kxs, kys = _k_grid(ts, x, E, F), _k_grid(ts, y, E, F)
    # prefix E-norms and suffix F-norms of x and y, for the block estimates
    # and the split
    Px, Py = _prefix_norms(x.values, E), _prefix_norms(y.values, E)
    Sx, Sy = _suffix_norms(x.values, F), _suffix_norms(y.values, F)
    c2 = 1.0
    for t, kx, ky in zip(ts, kxs, kys):
        if ky.value > kx.value * (1 + K_TOL) + 1e-300:
            raise HypothesisError(
                f"K-domination fails at t = {t:.6g}: K(t,y) = {ky.value:.9g} "
                f"> K(t,x) = {kx.value:.9g}")
        js = _block_points(t, fit, win.lo, win.size)
        for r, P, S in ((kx, Px, Sx), (ky, Py, Sy)):
            if r.value > 0:  # k_block_estimate, read from the tables
                c2 = max(c2, min(float(P[j]) + t * float(S[j]) for j in js) / r.value)

    s = 2.0 * c2 * (1 + 1e-9)
    # at index i = a - win.lo: ||v_(-inf,a]||_E and ||v_[a,inf)||_F
    xE, yE, xF, yF = Px[1:], Py[1:], Sx[:-1], Sy[:-1]
    okE = yE <= s * xE + 1e-300
    okF = yF <= s * xF + 1e-300
    bad = np.flatnonzero(~(okE | okF))
    if bad.size:
        i = int(bad[0])
        need = min(yE[i] / max(xE[i], 1e-300), yF[i] / max(xF[i], 1e-300))
        raise HypothesisError(
            f"neither prefix nor suffix comparison holds at a = {win.lo + i}; "
            f"needed constant {need / 2.0:.6g} > C2 = {c2:.6g}")
    J1, J2 = win.indices()[okE].tolist(), win.indices()[~okE].tolist()

    parts, part_bounds = [], []
    if J1:
        T1 = majorization_transfer(x, y.restrict(J1).scale(1.0 / s), E, F).scaled(s)
        T1.note(branch="J1", indices=J1[:64], C2=c2)
        parts.append(T1)
        part_bounds.append(T1.certified_bounds)
    if J2:
        T2 = majorization_transfer(x.reversed(), y.restrict(J2).reversed().scale(1.0 / s),
                                   F.reversed_space(), E.reversed_space()).scaled(s).reversed()
        T2.note(branch="J2 (order-reversed)", indices=J2[:64], C2=c2)
        parts.append(T2)
        # built on (rev F, rev E): its "E" bound is on F and its "F" bound on E
        part_bounds.append({"E": T2.certified_bounds["F"], "F": T2.certified_bounds["E"]})
    T = sum(parts[1:], parts[0])  # J1 and J2 cover the window, so parts is not empty

    summed = {}
    for label in ("E", "F"):
        vals = [pb[label] for pb in part_bounds]
        summed[label] = float(sum(vals)) if None not in vals else None
    T.certified_bounds = _certified_bounds(T, E, F, "sum-of-parts", summed)
    T.certified_bounds["C2_measured"] = c2
    _verify_action(T, x, y)
    return T
