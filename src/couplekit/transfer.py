"""Constructive synthesis of positive admissible operators.

Three constructions, each returning a nonnegative matrix held as one factor
stack, with replayable provenance and certified norm bounds (which the
algebra ``scaled``, ``reversed``, ``+`` does not carry):

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

All three push their rank-one rows in one call of one builder,
``_add_block_sum``, which takes the block pairs as the rows of two arrays, as
``InterlacedFamily`` holds them, their norms and functionals from one
``norm_rows(X, grad=True)`` call, each checked against ||x_n|| to
FUNCTIONAL_TOL; prefix
and suffix norms come from the tables of ``kfunc``, ``_prefix_norms`` and
``_suffix_norms``, and the weighted-ell_p operator bound from one closed form
over the stack, ``_upper_bound``.  The ``op_norm`` lower bound is a one-lane
ascent of ``ascent._ascend_steps`` over batches of rows, their ratios
||T x|| / ||x|| from one ``spaces._row_ratios`` call each, which stops by the
ascent's stop rule once it meets that closed form within
``ascent.ACCEPT_REL``.  Every space must be on the window of the data, by
the one check of ``spaces._check_windows``, else a ``UsageError``.

Window truncation realizes the two-ended proofs: indices below window.lo
carry no mass, so the lower-tail extension set B is always empty here and
the initial element takes the x_(-inf, a_0] block; the prefix hypothesis is
checked down to a = window.lo - 1 explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from .ascent import ACCEPT_REL, STOP_BUDGET, _ascend_steps, stop_level, stop_reason
from .errors import HypothesisError, UsageError, check_budget
from .kfunc import (SeparationFit, _block_points, _check_finite, _k_grid, _prefix_norms,
                    _suffix_norms)
from .measure import SeqVec, Window, _Record, _sparse
from .shift import InterlacedFamily
from .spaces import SeqSpaceSpec, _check_windows, _row_ratios

EXACTNESS_TOL = 1e-9
# <x, g> = ||x|| tolerance for every norming functional of a block sum
FUNCTIONAL_TOL = 1e-8
# relative slack in the K-domination check K(t, y) <= K(t, x)
K_TOL = 1e-7
# evaluations of an ``op_norm`` lower-bound search unless told otherwise
OP_NORM_BUDGET = 400


class PositiveMatrix:
    """Nonnegative matrix T = Y.T @ G + diag(d) on a window, held as its factor stack.

    Row i of ``G`` and ``Y`` is the i-th rank-one step <., G[i]> Y[i] and
    ``d`` the diagonal steps summed, both in step order and both grown as
    steps are pushed; ``apply`` and the norm bounds read them.  ``steps``
    keeps the order as (op, values, note): "rank_one" (the next stack row),
    "diagonal" (its own values) or "note" (its whole provenance record, with
    partition data and measured constants), so ``entries`` (summed step by
    step), ``provenance`` and ``replay`` follow it bit for bit.  Every factor
    must be nonnegative.  Only the constructions set ``certified_bounds``:
    ``scaled``, ``reversed`` and ``+`` return matrices without it.
    """

    def __init__(self, window: Window):
        self.window = window
        self.G = self.Y = np.zeros((0, window.size))  # replaced, never written
        self.d = np.zeros(window.size)
        self.steps: list[tuple] = []
        self.certified_bounds = None

    def _values(self, entries: dict) -> np.ndarray:
        return SeqVec.from_entries(self.window, entries).values

    def _push_rank_one(self, G: np.ndarray, Y: np.ndarray, notes: list):
        """Push the steps <., G[i]> Y[i], one per row, with their notes."""
        if not (np.all(G >= 0) and np.all(Y >= 0)):  # a NaN fails too
            raise ValueError("positive matrix entries must be >= 0")
        self.G = np.concatenate([self.G, G])
        self.Y = np.concatenate([self.Y, Y])
        self.steps += [("rank_one", None, note) for note in notes]

    @staticmethod
    def _stacked(window: Window, G, Y, steps: list) -> "PositiveMatrix":
        """A bare matrix over a given stack; d sums its diagonal steps in order."""
        out = PositiveMatrix(window)
        out.G, out.Y, out.steps = G, Y, steps
        out.d = sum((diag for op, diag, _ in steps if op == "diagonal"), out.d)
        return out

    # -- construction steps --------------------------------------------------

    def add_rank_one(self, functional: SeqVec, target: SeqVec, note: str | None = None):
        if functional.window != self.window or target.window != self.window:
            raise ValueError("window mismatch")
        self._push_rank_one(functional.values[None], target.values[None], [note])

    def add_diagonal(self, diag: dict[int, float], note: str | None = None):
        values = self._values(diag)
        if not np.all(values >= 0):
            raise ValueError("positive matrix entries must be >= 0")
        self.d = self.d + values
        self.steps.append(("diagonal", values, note))

    def note(self, **kwargs):
        self.steps.append(("note", None, {"op": "note", **kwargs}))

    @property
    def provenance(self) -> list[dict]:
        out, rows = [], zip(self.G, self.Y)
        for op, diag, note in self.steps:
            if op == "rank_one":
                g, y = next(rows)
                rec = {"op": "rank_one", "functional": _sparse(self.window, g),
                       "target": _sparse(self.window, y)}
            elif op == "diagonal":
                rec = {"op": "diagonal", "diag": _sparse(self.window, diag)}
            else:
                out.append(dict(note))
                continue
            if note:
                rec["note"] = note
            out.append(rec)
        return out

    @staticmethod
    def replay(window: Window, provenance: list) -> "PositiveMatrix":
        out = PositiveMatrix(window)
        for step in provenance:
            if step["op"] == "rank_one":
                out._push_rank_one(out._values(step["functional"])[None],
                                   out._values(step["target"])[None], [step.get("note")])
            elif step["op"] == "diagonal":
                out.add_diagonal(step["diag"], note=step.get("note"))
            else:
                out.steps.append(("note", None, dict(step)))
        return out

    # -- views of the stack ----------------------------------------------------

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        """Nonzero entries {(j, k): value}, each summed over the steps in order."""
        n, lo = self.window.size, self.window.lo
        M, rows = np.zeros((n, n)), zip(self.G, self.Y)
        for op, diag, _ in self.steps:
            if op == "rank_one":
                g, y = next(rows)
                M += np.outer(y, g)
            elif op == "diagonal":
                M.flat[::n + 1] += diag
        return {(int(j) + lo, int(k) + lo): float(M[j, k]) for j, k in zip(*np.nonzero(M))}

    def apply(self, x: SeqVec) -> SeqVec:
        if x.window != self.window:
            raise ValueError("window mismatch")
        return SeqVec(self.window, self.Y.T @ (self.G @ x.values) + self.d * x.values)

    # -- algebra ---------------------------------------------------------------

    def scaled(self, c: float) -> "PositiveMatrix":
        if not c >= 0:
            raise ValueError("scale factor must be >= 0")
        return PositiveMatrix._stacked(
            self.window, self.G, self.Y * c,
            [(op, None if diag is None else diag * c, note) for op, diag, note in self.steps])

    def __add__(self, other: "PositiveMatrix") -> "PositiveMatrix":
        if other.window != self.window:
            raise ValueError("window mismatch")
        return PositiveMatrix._stacked(self.window, np.concatenate([self.G, other.G]),
                                       np.concatenate([self.Y, other.Y]),
                                       self.steps + other.steps)

    def reversed(self) -> "PositiveMatrix":
        """Conjugation by the order reversal: entries (j,k) -> (-(j+1), -(k+1))."""
        return PositiveMatrix._stacked(
            self.window.reversed(), self.G[:, ::-1].copy(), self.Y[:, ::-1].copy(),
            [(op, None if diag is None else diag[::-1], note) for op, diag, note in self.steps])

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
    """Operator norm of T on a sequence space on T's window.

    ``upper``: the closed form ``_upper_bound``, exact for p = 1 and p = inf
    and the Schur bound otherwise; a ``UsageError`` without a weighted-lp
    form.  ``lower``: certified lower bound by adversarial ascent over
    ``norm_rows`` (``_op_norm_lower``), which stops early once it reaches the
    closed form to ``ascent.ACCEPT_REL`` relative.  ``interval``: (lower,
    upper), upper None without a weighted-lp form.
    """
    _check_windows("matrix", T.window, space)
    if mode == "upper":
        upper = _upper_bound(T, space)
        if upper is None:
            raise UsageError(f"mode 'upper' unsupported for {space.spec_string()}")
        return upper
    if mode == "lower":
        return _op_norm_lower(T, space, budget, seed).lower
    if mode == "interval":
        search = _op_norm_lower(T, space, budget, seed)
        return search.lower, search.upper
    raise UsageError(f"unknown op_norm mode {mode!r}")


class _LowerSearch(_Record):
    """An ``op_norm`` lower-bound search: the bound, the closed-form upper
    bound (None without one), the evaluations spent and why it stopped
    (``ascent.stop_reason``: STOP_UPPER, STOP_OVERFLOW or STOP_BUDGET)."""

    _fields = ("lower", "upper", "evals", "stop")

    def __init__(self, lower: float, upper: float | None, evals: int, stop: str):
        self.lower, self.upper, self.evals, self.stop = lower, upper, evals, stop

    def to_json_dict(self):
        return self._field_dict()


def _op_norm_lower(T: PositiveMatrix, space: SeqSpaceSpec, budget: int,
                   seed: int) -> _LowerSearch:
    """Best ||T x|| / ||x|| over the column rays, then rounds of one
    ``_ascend_steps`` pass (x_k * 2, x_k / 2 over shuffled columns) against the
    best so far, each of at least one step; a round without an accept restarts.

    The search stops on ``upper`` at ``ascent.stop_level``, upper the closed
    form ``_upper_bound``: tested after the column rays, after each
    evaluation of x and after each pass.  That bound is exact on a weighted
    ell_1 (a column ray attains it) and on ell_infty (the all-ones x does), so
    there the search ends within one evaluation past the rays.  Without a
    closed form it spends the budget, unless its ratio overflows to inf,
    which ends it on ``overflow``."""
    check_budget(budget)
    upper = _upper_bound(T, space)
    level = stop_level(None, upper)
    rng = np.random.default_rng(seed)
    win = T.window
    # the nonzero columns: of the diagonal and of the steps with a nonzero target
    cols = np.flatnonzero((T.G[T.Y.any(axis=1)] != 0).any(axis=0) | (T.d != 0))
    if not cols.size:
        return _LowerSearch(0.0, upper, 0, stop_reason(0.0, level))

    def ratios(V):
        # T row by row, as ``apply`` computes it: a matrix product may round
        # otherwise; an overflow to inf ends the search on its own label
        with np.errstate(over="ignore"):
            return _row_ratios(space, V, np.array([T.Y.T @ (T.G @ v) + T.d * v for v in V]))

    # columns as starting rays
    best = max([0.0] + ratios(np.eye(win.size)[cols]).tolist())
    evals, stop = cols.size, stop_reason(best, level)
    x = np.zeros(win.size)
    x[cols] = 1.0
    while evals < budget and stop == STOP_BUDGET:
        best = max(best, float(ratios(x[None])[0]))
        evals += 1
        stop = stop_reason(best, level)
        if stop != STOP_BUDGET:
            break
        perm = rng.permutation(cols)
        (best, x, used, log), = _ascend_steps(
            ratios, [[x, best, np.repeat(perm, 2), np.tile([2.0, 0.5], perm.size),
                      max(1, budget - evals)]], ACCEPT_REL)
        evals, stop = evals + used, stop_reason(best, level)
        if len(log) == 1:  # no accept
            x = np.zeros(win.size)
            pick = rng.choice(cols, size=max(1, cols.size // 2), replace=False)
            x[pick] = rng.random(pick.size) + 0.1
    return _LowerSearch(best, upper, evals, stop)


def _upper_bound(T: PositiveMatrix, space: SeqSpaceSpec, Y=None) -> float | None:
    """Closed-form upper bound over ``weighted_lp_form()`` = (w, p), else None.

    With C = w_j T_jk / w_k the weight-conjugated matrix: its max column sum
    (exact for p = 1), its max row sum (exact for p = inf), and otherwise the
    Schur interpolation col^(1/p) row^(1 - 1/p).  Given ``Y``, the bound is
    of T with its rank-one targets T.Y replaced by the rows of Y.
    """
    wp = space.weighted_lp_form()
    if wp is None:
        return None
    w, p = wp
    Y = T.Y if Y is None else Y
    col = float(np.max((T.G.T @ (Y @ w)) / w + T.d))
    row = float(np.max(w * (Y.T @ (T.G @ (1.0 / w))) + T.d))
    if p == 1.0:
        return col
    if math.isinf(p):
        return row
    return col ** (1.0 / p) * row ** (1.0 - 1.0 / p)


# ---------------------------------------------------------------------------
# rank-one-sum operators
# ---------------------------------------------------------------------------


def _add_block_sum(T: PositiveMatrix, X, Y, E: SeqSpaceSpec, note: str) -> np.ndarray:
    """Push sum_n <., g_n> y_n onto T over the block pairs (x_n, y_n), the
    rows of X and Y, with y_n != 0.

    g_n is the norming functional of x_n scaled so <x_n, g_n> = 1, after
    checking <x_n, g> = ||x_n||_E to FUNCTIONAL_TOL: the norms and the
    functionals come from one ``norm_rows(X, grad=True)`` call; supp g_n
    stays inside supp x_n.  ``note`` is the step note, with ``{n}`` the pair's row.  Returns
    the norms ||x_n||_E of the pairs it pushed, in row order.
    """
    rows = np.flatnonzero(Y.any(axis=1))
    X, Y = X[rows], Y[rows]
    norms, G = E.norm_rows(X, grad=True)
    if not np.all(norms > 0.0):
        raise ValueError("cannot norm the zero vector")
    pairings = np.array([np.dot(x, g) for x, g in zip(X, G)])
    # not >, so that a NaN pairing fails too
    if (bad := np.flatnonzero(~(np.abs(pairings / norms - 1.0) <= FUNCTIONAL_TOL))).size:
        raise HypothesisError(f"norming functional failed tolerance: <x, g> = "
                              f"{pairings[bad[0]]:.12g} against ||x|| = {norms[bad[0]]:.12g}")
    T._push_rank_one((1.0 / pairings)[:, None] * G, Y, [note.format(n=n) for n in rows.tolist()])
    return norms


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
    _check_windows("family", family.window, E)
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
                       tol: float = 1e-12) -> tuple[PositiveMatrix, np.ndarray]:
    """Core of the majorization construction for disjointly supported values x, y.

    Requires ||y_(-inf,a]|| <= ||x_(-inf,a]|| for every a.  Partitions the
    window at the doubling points of the prefix norm (base-4 sigma levels),
    pairs each x block with the following y block, and sums the rank-one
    operators; the paired blocks satisfy ||y_{n+1}|| <= 4^3 ||x_n|| which is
    what the rank-one-sum constant quantifies.  One ``searchsorted`` over the
    partition points cuts the blocks.  Returns T and its x-block norms.
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
    norms = _add_block_sum(T, np.where(blocks[:-1], x, 0.0), np.where(blocks[1:], y, 0.0),
                           E, "partition block {n}")
    T.note(partition=[win.lo + i - 1 for i in chosen])
    return T, norms


def _rank_one_constant(S: PositiveMatrix, norms: np.ndarray, E: SeqSpaceSpec,
                       F: SeqSpaceSpec) -> float | None:
    """Measured rank-one-sum constant C_0: norm of the normalized block shift.

    S is a block sum and ``norms`` the E-norms of its x blocks.  Each target
    S.Y[n] is scaled to its source norm (the normalization under which the
    block-shift constant quantifies), and the operator norm is bounded on
    both spaces; None when neither space admits a closed-form bound.
    """
    ny = E.norm_rows(S.Y)  # a target of norm 0 drops out
    Y = np.divide(norms, ny, out=np.zeros(ny.size), where=ny != 0.0)[:, None] * S.Y
    bounds = [b for b in (_upper_bound(S, E, Y), _upper_bound(S, F, Y)) if b is not None]
    return max(max(bounds), 1.0) if bounds else None


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
    _check_vectors(x, y, E, F, "majorization transfer")
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
        S2, norms = _disjoint_transfer(2.0 * u, v, E, win)
        T = S2.scaled(2.0)  # S2(2u) = v, so T = 2 S2 satisfies T u = v
        if norms.size:
            c0 = _rank_one_constant(S2, norms, E, F)
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
        cands = {m: b for m, b in (("direct", _upper_bound(T, space)), (method, other[label]))
                 if b is not None}
        bounds[label] = min(cands.values()) if cands else None
        if cands:
            bounds["method"][label] = min(cands, key=cands.get)
    return bounds


def _check_vectors(x: SeqVec, y: SeqVec, E: SeqSpaceSpec, F: SeqSpaceSpec, name: str):
    """x and y of a transfer: on one window with E and F, finite, nonnegative."""
    if y.window != x.window:
        raise UsageError("x and y must share a window")
    _check_windows("vectors", x.window, E, F)
    _check_finite("x", x)
    _check_finite("y", y)
    if np.any(x.values < 0) or np.any(y.values < 0):
        raise UsageError(f"{name} needs nonnegative vectors")


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
    win = x.window
    _check_vectors(x, y, E, F, "k_transfer")
    if not fit.separated:
        raise HypothesisError("couple is not exponentially separated")
    if t_points < 1:
        raise UsageError(f"t_points must be at least 1; got {t_points}")
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

    # each part is s M, M a majorization transfer: its bounds are s times M's
    parts, part_bounds = [], []
    if J1:
        M = majorization_transfer(x, y.restrict(J1).scale(1.0 / s), E, F)
        T1 = M.scaled(s)
        T1.note(branch="J1", indices=J1[:64], C2=c2)
        parts.append(T1)
        part_bounds.append((M.certified_bounds["E"], M.certified_bounds["F"]))
    if J2:
        M = majorization_transfer(x.reversed(), y.restrict(J2).reversed().scale(1.0 / s),
                                  F.reversed_space(), E.reversed_space())
        T2 = M.scaled(s).reversed()
        T2.note(branch="J2 (order-reversed)", indices=J2[:64], C2=c2)
        parts.append(T2)
        # built on (rev F, rev E): its "E" bound is on F and its "F" bound on E
        part_bounds.append((M.certified_bounds["F"], M.certified_bounds["E"]))
    T = sum(parts[1:], parts[0])  # J1 and J2 cover the window, so parts is not empty

    summed = {label: float(sum(b * s for b in vals)) if None not in vals else None
              for label, vals in zip(("E", "F"), zip(*part_bounds))}
    T.certified_bounds = _certified_bounds(T, E, F, "sum-of-parts", summed)
    T.certified_bounds["C2_measured"] = c2
    _verify_action(T, x, y)
    return T
