"""Step functions on [0,1] or [0,inf) and the dyadic reduction to sequences.

Everything downstream (norms, K-functionals, transfer operators) is built on
two carriers:

* ``StepFunction`` -- a finitely supported step function ``f`` with
  f = v_i on [t_{i-1}, t_i) and f = 0 past the last breakpoint.  Decreasing
  rearrangements, maximal functions and dilations of step functions are again
  step functions, so every integral in the package is a finite exact sum.
* ``SeqVec`` -- a finitely supported vector on an integer window J, one of
  Z, Z_- (indices < 0) or Z_+ (indices >= 0).

The bridge between the two is ``dyadic_envelope``: sampling f* at the dyadic
points 2^n produces the coefficient vector of G = sum f*(2^n) chi_[2^n,2^(n+1))
which satisfies the two-sided envelope f* <= G <= D_2 f* on the covered range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT = "unit"
HALFLINE = "halfline"

_DOMAINS = (UNIT, HALFLINE)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function, zero past its last breakpoint.

    ``breakpoints`` is the strictly increasing grid t_0 = 0 < t_1 < ... < t_m
    and ``values`` the piece values v_1..v_m with f = v_i on [t_{i-1}, t_i).
    On the unit-interval domain t_m <= 1.  Values may be negative; operations
    that need |f| take the absolute value themselves.
    """

    domain: str
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size == 0 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if bp.size != len(self.values) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.domain == UNIT and bp[-1] > 1.0 + 1e-15:
            raise ValueError("unit-interval step function exceeds [0,1]")
        object.__setattr__(self, "breakpoints", tuple(float(t) for t in bp))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    # -- basic geometry ----------------------------------------------------

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    @property
    def vals(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __call__(self, t) -> np.ndarray:
        """Evaluate f at t (scalar or array), right-continuous, 0 past t_m."""
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        idx = np.searchsorted(bp, t, side="right") - 1
        out = np.zeros_like(t, dtype=float)
        inside = (idx >= 0) & (idx < len(self.values))
        if self.values:
            out[inside] = self.vals[idx[inside]]
        return out

    # -- algebra on a shared grid -------------------------------------------

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.domain, self.breakpoints, tuple(float(v) for v in values))

    def scale(self, c: float) -> "StepFunction":
        return self.with_values(c * self.vals)

    def __abs__(self) -> "StepFunction":
        return self.with_values(np.abs(self.vals))

    def integral(self) -> float:
        return float(np.dot(self.vals, self.lengths))

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
# rearrangement, maximal function, dilation
# ---------------------------------------------------------------------------


def rearrange(f: StepFunction) -> StepFunction:
    """Decreasing rearrangement f* of |f|.

    f* is the nonincreasing right-continuous step function equimeasurable
    with |f|: for every level c > 0 the sets {|f| > c} and {f* > c} have the
    same measure.  Pieces with value 0 are dropped, so the result is supported
    on [0, m(supp f)).
    """
    v = np.abs(f.vals)
    lens = f.lengths
    keep = v > 0.0
    v, lens = v[keep], lens[keep]
    if v.size == 0:
        return zero_fn(f.domain)
    order = np.argsort(-v, kind="stable")
    v, lens = v[order], lens[order]
    # merge equal adjacent values for a canonical representation
    merged_v, merged_l = [v[0]], [lens[0]]
    for val, ln in zip(v[1:], lens[1:]):
        if val == merged_v[-1]:
            merged_l[-1] += ln
        else:
            merged_v.append(val)
            merged_l.append(ln)
    # pieces whose length collapses at float resolution carry no measure
    bp, out_v = [0.0], []
    for val, ln in zip(merged_v, merged_l):
        nxt = bp[-1] + ln
        if nxt > bp[-1]:
            bp.append(nxt)
            out_v.append(val)
    if not out_v:
        return zero_fn(f.domain)
    return StepFunction(f.domain, tuple(bp), tuple(out_v))


def double_star(f: StepFunction, t: float) -> float:
    """Maximal function f**(t) = (1/t) * int_0^t f*(s) ds, exact from steps."""
    if t <= 0:
        raise ValueError("double_star needs t > 0")
    fs = rearrange(f)
    bp = np.asarray(fs.breakpoints)
    v = fs.vals
    covered = np.clip(np.minimum(bp[1:], t) - bp[:-1], 0.0, None)
    return float(np.dot(v, covered)) / t


def dilate(f: StepFunction, a: float) -> StepFunction:
    """Dilation D_a f(t) = f(t/a); on [0,1] the result is truncated to [0,1]."""
    if a <= 0:
        raise ValueError("dilate needs a > 0")
    bp = np.asarray(f.breakpoints) * a
    v = list(f.values)
    if f.domain == UNIT and bp[-1] > 1.0:
        keep = bp[:-1] < 1.0
        v = [val for val, k in zip(v, keep) if k]
        bp = np.concatenate([bp[:-1][keep], [1.0]])
        bp[-1] = 1.0
    if len(v) == 0:
        return zero_fn(f.domain)
    return StepFunction(f.domain, tuple(bp), tuple(v))


# ---------------------------------------------------------------------------
# windows and sequence vectors
# ---------------------------------------------------------------------------

Z = "Z"
Z_MINUS = "Z-"
Z_PLUS = "Z+"

_KINDS = (Z, Z_MINUS, Z_PLUS)


@dataclass(frozen=True)
class Window:
    """Retained finite index range [lo, hi] of one of Z, Z_- or Z_+.

    Z_- is the set of strictly negative indices (hi <= -1),
    matching dyadic blocks inside [0,1]; Z_+ means indices >= 0.
    """

    kind: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.lo > self.hi:
            raise ValueError("window needs lo <= hi")
        if self.kind == Z_MINUS and self.hi > -1:
            raise ValueError("Z- window must satisfy hi <= -1")
        if self.kind == Z_PLUS and self.lo < 0:
            raise ValueError("Z+ window must satisfy lo >= 0")

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

    def __getitem__(self, n: int) -> float:
        if not (self.window.lo <= n <= self.window.hi):
            return 0.0
        return float(self.values[n - self.window.lo])

    def support(self) -> np.ndarray:
        return np.nonzero(self.values)[0] + self.window.lo

    def with_values(self, values) -> "SeqVec":
        return SeqVec(self.window, values)

    def scale(self, c: float) -> "SeqVec":
        return SeqVec(self.window, c * self.values)

    def __add__(self, other: "SeqVec") -> "SeqVec":
        if other.window != self.window:
            raise ValueError("window mismatch")
        return SeqVec(self.window, self.values + other.values)

    def __abs__(self) -> "SeqVec":
        return SeqVec(self.window, np.abs(self.values))

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
    fs = rearrange(f)
    points = np.power(2.0, window.indices().astype(float))
    vals = fs(points)
    vec = SeqVec(window, vals)
    top = 2.0 ** (window.hi + 1)
    truncated = bool(fs(np.array([top]))[0] > 0.0)
    if fs.values:
        # variation of f* below 2^lo is invisible to the sample
        truncated = truncated or bool(fs.vals[0] > fs(np.array([2.0 ** window.lo]))[0])
    vec.meta["truncated"] = truncated
    return vec
