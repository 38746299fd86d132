"""Step functions on [0,1] or [0,inf) and the dyadic reduction to sequences.

Everything downstream (norms, K-functionals, transfer operators) is built on
two carriers:

* ``StepFunction`` -- a finitely supported step function ``f`` with
  f = v_i on [t_{i-1}, t_i) and f = 0 past the last breakpoint.  The
  decreasing rearrangement of a step function is again a step function, so
  every integral in the package is a finite exact sum.
* ``SeqVec`` -- a finitely supported vector on an integer window J, one of
  Z, Z_- (indices < 0) or Z_+ (indices >= 0).

The bridge between the two is ``dyadic_envelope``: sampling f* at the dyadic
points 2^n produces the coefficient vector of G = sum f*(2^n) chi_[2^n,2^(n+1))
which satisfies the two-sided envelope f* <= G <= D_2 f* on the covered range.

``_Record`` is the base of the package's records, ``StepFunction`` and
``Window`` among them: plain classes with their constructors written out.
"""

from __future__ import annotations

import math

import numpy as np

UNIT = "unit"
HALFLINE = "halfline"

_DOMAINS = (UNIT, HALFLINE)

LOG2 = math.log(2.0)


def _spec_num(x: float) -> str:
    """A number for a spec string: ``:g`` when that reads back exactly, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class _Record:
    """Base of the package's records.  ``_fields`` names a record's
    constructor arguments in order: repr shows them (less ``_unshown``), ==
    compares them as one tuple between records of one class, and a subclass
    that takes ``_read_only`` and ``_hash`` is read-only and hashable on them.
    A record class that keeps this == is unhashable."""

    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _field_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields
                 if name not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _read_only(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    def _hash(self):
        return hash(self._values())


class StepFunction(_Record):
    """Right-continuous step function, zero past its last breakpoint.

    ``breakpoints`` is the strictly increasing grid t_0 = 0 < t_1 < ... < t_m
    and ``values`` the piece values v_1..v_m with f = v_i on [t_{i-1}, t_i).
    On the unit-interval domain t_m <= 1.  Values may be negative; operations
    that need |f| take the absolute value themselves.  ``lengths`` (the piece
    lengths) and ``vals`` are read-only arrays built once; they are not
    fields, so equality, hash and JSON see the tuples only.
    """

    _fields = ("domain", "breakpoints", "values")
    __setattr__ = __delattr__ = _Record._read_only
    __hash__ = _Record._hash

    def __init__(self, domain: str, breakpoints: tuple[float, ...], values: tuple[float, ...]):
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size == 0 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if bp.size != len(values) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        lengths = np.diff(bp)
        if np.any(lengths <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if domain == UNIT and bp[-1] > 1.0 + 1e-15:
            raise ValueError("unit-interval step function exceeds [0,1]")
        values = tuple(float(v) for v in values)
        vals = np.array(values)
        lengths.setflags(write=False)
        vals.setflags(write=False)
        vars(self).update(domain=domain, breakpoints=tuple(float(t) for t in bp),
                          values=values, lengths=lengths, vals=vals)

    # -- basic geometry ----------------------------------------------------

    def __call__(self, t) -> np.ndarray:
        """Evaluate f at t (scalar or array), right-continuous, 0 past t_m."""
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        idx = np.searchsorted(bp, t, side="right") - 1
        out = np.zeros_like(t, dtype=float)
        inside = (idx >= 0) & (idx < len(self.values))
        out[inside] = self.vals[idx[inside]]
        return out

    # -- algebra on a shared grid -------------------------------------------

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.domain, self.breakpoints, tuple(float(v) for v in values))

    def scale(self, c: float) -> "StepFunction":
        return self.with_values(c * self.vals)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain,
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "StepFunction":
        return StepFunction(d["domain"], tuple(d["breakpoints"]), tuple(d["values"]))


def char_fn(a: float, b: float, domain: str = UNIT, height: float = 1.0) -> StepFunction:
    """height * chi_[a,b) as a StepFunction."""
    if a > 0:
        return StepFunction(domain, (0.0, a, b), (0.0, height))
    return StepFunction(domain, (0.0, b), (height,))


def zero_fn(domain: str = UNIT) -> StepFunction:
    return StepFunction(domain, (0.0, 1.0), (0.0,))


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def _decreasing(V: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decreasing rearrangement of each row of V on pieces of the given
    lengths, as (S, T): S is |V| sorted decreasingly along each row (stably,
    so ties stay in piece order) and T the cumulative piece lengths in that
    order, so the row's f* is S[k] on [T[k-1], T[k]) with T[-1] = 0.  The
    lengths of a run of equal values are summed first and then added to the
    run's start, as ``rearrange`` merges them: T at the end of each run is a
    breakpoint of f* to the bit."""
    A = np.abs(V)
    order = np.argsort(-A, axis=1, kind="stable")
    S = np.take_along_axis(A, order, axis=1)
    run = lengths[order]  # becomes each piece's partial sum within its run
    tie = S[:, 1:] == S[:, :-1]
    for j in np.flatnonzero(tie.any(axis=0)) + 1:
        run[:, j] += np.where(tie[:, j - 1], run[:, j - 1], 0.0)
    end = np.ones(S.shape, dtype=bool)
    end[:, :-1] = ~tie
    # a running sum of the run totals (zeros elsewhere add exactly) is each
    # run's start, to which its pieces' partial sums are added
    starts = np.cumsum(np.where(end, run, 0.0), axis=1)
    T = run
    T[:, 1:] += starts[:, :-1]
    return S, T


def _sample_decreasing(S: np.ndarray, T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f*(points) for each row of ``_decreasing``'s (S, T): the S entry of the
    piece with T[k-1] <= point < T[k], 0 past the support."""
    k = np.add.reduce(T[:, :, None] <= points, axis=1)
    return np.take_along_axis(np.pad(S, ((0, 0), (0, 1))), k, axis=1)


def rearrange(f: StepFunction) -> StepFunction:
    """Decreasing rearrangement f* of |f|.

    f* is the nonincreasing right-continuous step function equimeasurable
    with |f|: for every level c > 0 the sets {|f| > c} and {f* > c} have the
    same measure.  It is the one row of ``_decreasing``, a run of equal values
    one piece; pieces of value 0 or of no length at float resolution are
    dropped, so the result is supported on [0, m(supp f)).
    """
    (S,), (T,) = _decreasing(f.vals[None], f.lengths)
    end = S > 0.0
    end[:-1] &= S[1:] != S[:-1]
    v, t = S[end], T[end]
    keep = np.diff(t, prepend=0.0) > 0.0
    if not keep.any():
        return zero_fn(f.domain)
    return StepFunction(f.domain, (0.0, *t[keep].tolist()), tuple(v[keep].tolist()))


def star_integral(f: StepFunction, t: float) -> float:
    """int_0^t f*(s) ds, exact from steps, for t > 0."""
    fs = rearrange(f)
    bp = np.asarray(fs.breakpoints)
    covered = np.clip(np.minimum(bp[1:], t) - bp[:-1], 0.0, None)
    return float(np.dot(fs.vals, covered))


# ---------------------------------------------------------------------------
# windows and sequence vectors
# ---------------------------------------------------------------------------

Z = "Z"
Z_MINUS = "Z-"
Z_PLUS = "Z+"

_KINDS = (Z, Z_MINUS, Z_PLUS)


class Window(_Record):
    """Retained finite index range [lo, hi] of one of Z, Z_- or Z_+.

    Z_- is the set of strictly negative indices (hi <= -1),
    matching dyadic blocks inside [0,1]; Z_+ means indices >= 0.
    """

    _fields = ("kind", "lo", "hi")
    __setattr__ = __delattr__ = _Record._read_only
    __hash__ = _Record._hash

    def __init__(self, kind: str, lo: int, hi: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown window kind {kind!r}")
        if lo > hi:
            raise ValueError("window needs lo <= hi")
        if kind == Z_MINUS and hi > -1:
            raise ValueError("Z- window must satisfy hi <= -1")
        if kind == Z_PLUS and lo < 0:
            raise ValueError("Z+ window must satisfy lo >= 0")
        vars(self).update(kind=kind, lo=lo, hi=hi)

    def __eq__(self, other):  # written out: each window check compares two windows
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.lo, self.hi) == (other.kind, other.lo, other.hi)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def domain(self) -> str:
        """Where the blocks [2^n, 2^(n+1)) lie: [0, 1] on Z_-, else [0, inf)."""
        return UNIT if self.kind == Z_MINUS else HALFLINE

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def reversed(self) -> "Window":
        """Order-reversal J~ = {-(n+1) : n in J}."""
        kind = {Z: Z, Z_MINUS: Z_PLUS, Z_PLUS: Z_MINUS}[self.kind]
        return Window(kind, -(self.hi + 1), -(self.lo + 1))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json_dict(d: dict) -> "Window":
        return Window(d["kind"], int(d["lo"]), int(d["hi"]))


def _sparse(window: Window, vals: np.ndarray) -> dict[str, float]:
    """The nonzero values as {"index": value}, the JSON form of a vector."""
    return {str(int(i) + window.lo): float(vals[i]) for i in np.flatnonzero(vals)}


def default_unit_window(width: int = 64) -> Window:
    """Default working window for unit-interval spaces (dyadic blocks in [0,1])."""
    return Window(Z_MINUS, -width, -1)


class SeqVec:
    """Finitely supported vector on a window, stored densely over [lo, hi].

    Treated as immutable: every operation returns a fresh vector.  ``meta``
    carries result flags (e.g. envelope truncation) and never affects algebra
    or equality.
    """

    __slots__ = ("window", "values", "meta")

    def __init__(self, window: Window, values, meta: dict | None = None):
        vals = np.array(values, dtype=float)
        if vals.shape != (window.size,):
            raise ValueError("values length must equal window size")
        vals.setflags(write=False)
        self.window = window
        self.values = vals
        self.meta = dict(meta or {})

    @staticmethod
    def from_entries(window: Window, entries: dict[int, float]) -> "SeqVec":
        vals = np.zeros(window.size)
        for n, v in entries.items():
            n = int(n)
            if not (window.lo <= n <= window.hi):
                raise ValueError(f"index {n} outside window [{window.lo},{window.hi}]")
            vals[n - window.lo] = float(v)
        return SeqVec(window, vals)

    @staticmethod
    def basis(window: Window, n: int, coeff: float = 1.0) -> "SeqVec":
        return SeqVec.from_entries(window, {n: coeff})

    def entries(self) -> dict[int, float]:
        nz = np.nonzero(self.values)[0]
        return {int(i + self.window.lo): float(self.values[i]) for i in nz}

    def scale(self, c: float) -> "SeqVec":
        return SeqVec(self.window, c * self.values)

    def restrict(self, indices) -> "SeqVec":
        """Coordinate restriction P_A x to the given index set."""
        mask = np.zeros(self.window.size, dtype=bool)
        for n in indices:
            if self.window.lo <= n <= self.window.hi:
                mask[n - self.window.lo] = True
        vals = np.where(mask, self.values, 0.0)
        return SeqVec(self.window, vals)

    def prefix(self, a: int) -> "SeqVec":
        """x_(-inf, a]: coordinates at indices <= a."""
        vals = self.values.copy()
        vals[self.window.indices() > a] = 0.0
        return SeqVec(self.window, vals)

    def suffix(self, a: int) -> "SeqVec":
        """x_[a, inf): coordinates at indices >= a."""
        vals = self.values.copy()
        vals[self.window.indices() < a] = 0.0
        return SeqVec(self.window, vals)

    def reversed(self) -> "SeqVec":
        """x~(n) = x(-(n+1)) on the reversed window."""
        return SeqVec(self.window.reversed(), self.values[::-1].copy())

    def to_step(self, domain: str | None = None) -> StepFunction:
        """Reconstruct sum x(n) chi_[2^n, 2^(n+1)) as a step function."""
        domain = domain or self.window.domain
        nz = np.nonzero(self.values)[0]
        if nz.size == 0:
            return zero_fn(domain)
        bp = [0.0]
        vals = []
        for i in range(nz[0], self.window.size):
            n = i + self.window.lo
            lo_t, hi_t = 2.0 ** n, 2.0 ** (n + 1)
            if bp[-1] < lo_t:
                bp.append(lo_t)
                vals.append(0.0)
            bp.append(hi_t)
            vals.append(float(self.values[i]))
        # drop trailing zero pieces
        while vals and vals[-1] == 0.0:
            vals.pop()
            bp.pop()
        if not vals:
            return zero_fn(domain)
        return StepFunction(domain, tuple(bp), tuple(vals))

    def to_json_dict(self) -> dict:
        d = self.window.to_json_dict()
        d["entries"] = _sparse(self.window, self.values)
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "SeqVec":
        win = Window.from_json_dict(d)
        vec = SeqVec.from_entries(win, {int(k): v for k, v in d.get("entries", {}).items()})
        vec.meta.update(d.get("meta", {}))
        return vec

    def __repr__(self):
        return f"SeqVec({self.window.kind}[{self.window.lo},{self.window.hi}], {self.entries()})"


def dyadic_envelope(f: StepFunction, window: Window) -> SeqVec:
    """Sample f* at the dyadic points: returns (f*(2^n))_{n in window}.

    The reconstructed step function G = sum f*(2^n) chi_[2^n,2^(n+1)) satisfies
    f* <= G <= D_2 f* on [2^lo, 2^(hi+1)).  If f* still carries mass outside
    that range the result is flagged with meta["truncated"] = True.
    """
    S, T = _decreasing(f.vals[None], f.lengths)
    points = np.append(np.power(2.0, window.indices().astype(float)), 2.0 ** (window.hi + 1))
    (samples,) = _sample_decreasing(S, T, points)
    vec = SeqVec(window, samples[:-1])
    vec.meta["truncated"] = bool(samples[-1] > 0.0 or np.max(S, initial=0.0) > samples[0])
    return vec
