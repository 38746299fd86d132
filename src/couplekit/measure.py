"""Windows, sequence vectors and the record base.

``SeqVec`` is a finitely supported vector on an integer window J
(``Window``), one of Z, Z_- (indices < 0) or Z_+ (indices >= 0): what the
sequence spaces of ``spaces`` norm.  Step functions, f* and the dyadic
envelope f -> (f*(2^n))_n live in ``fnspaces``; ``SeqVec.to_step``, which
reconstructs sum x(n) chi_[2^n,2^(n+1)) as a step function, is the one
method here that loads it.

``_Record`` is the base of the package's records, ``Window`` and
``fnspaces.StepFunction`` among them: plain classes with their constructors
written out.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError

if TYPE_CHECKING:
    from .fnspaces import StepFunction

UNIT = "unit"
HALFLINE = "halfline"

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
            raise UsageError(f"unknown window kind {kind!r}")
        if lo > hi:
            raise UsageError("window needs lo <= hi")
        if kind == Z_MINUS and hi > -1:
            raise UsageError("Z- window must satisfy hi <= -1")
        if kind == Z_PLUS and lo < 0:
            raise UsageError("Z+ window must satisfy lo >= 0")
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
            raise UsageError("values length must equal window size")
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
                raise UsageError(f"index {n} outside window [{window.lo},{window.hi}]")
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
        from .fnspaces import StepFunction, zero_fn
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
