"""Spec-string DSL used by the CLI and serialized artifacts.

Grammar: ``name(:key=value(,key=value)*)?`` where values are decimals,
nested specs in angle brackets, weight forms like ``pow:0.5``, or bare
selectors.  Multi-segment names (``seq:lpw``) come from a fixed table, so a
colon inside a value never splits a name.

Examples::

    lp:p=2                  linf
    lorentz:p=2,w=pow:0.5
    lorentz:p=1.5,w=table:<-8.0,-2.0,0.0>:<-4.0,-1.0,0.0>   (<log t>:<log w>)
    orlicz:gen=<power:p=2>
    fromseq:<seq:orlicz-modular:gen=<example1>>
    seq:lpw:p=1             seq:linf  (= seq:lpw:p=inf: unit weights)
    seq:lpw:p=2,wexp=0.3    (weights 2^(0.3 n); seq:lpw:p=2 alone has 2^(n/p))
    seq:lpw:p=2,weights=<0.5,1.0,2.0>   (one weight per window index)
    seq:orlicz-modular:gen=<example1>
    seq:from:<seq:orlicz-modular:gen=<example1>>,weightbase=1.4142135623730951
    rev:<seq:lpw:p=2>
    brudnyi:p=1.5,q=3:F     minimal:alpha=0.05
    convexify<pwpower:p0=2,p1=3>
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .errors import UsageError
from .measure import UNIT, Window, default_unit_window
from .orlicz import (MinimalFn, OrliczFn, brudnyi_pair, convexify,
                     elastic_non_lorentz, example1, logfactor_fn, power,
                     pwpower)

if TYPE_CHECKING:  # a generator needs only orlicz: the parsers import spaces when called
    from .spaces import SeqSpaceSpec, SpaceSpec, WeightFn

_FN_NAMES = ("lorentz", "orlicz", "fromseq", "linf", "lp")
_SEQ_NAMES = ("seq:orlicz-modular", "seq:lpw", "seq:linf", "seq:from",
              "seq:induced", "rev")
_GEN_NAMES = ("power", "pwpower", "logfactor", "example1", "elastic-nl",
              "brudnyi", "minimal")


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth < 0:
                raise UsageError(f"unbalanced '>' in spec {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError(f"unbalanced '<' in spec {text!r}")
    parts.append("".join(cur))
    return parts


def _match_name(spec: str, names) -> tuple[str, str]:
    for name in sorted(names, key=len, reverse=True):
        if spec == name:
            return name, ""
        if spec.startswith(name + ":"):
            return name, spec[len(name) + 1:]
    raise UsageError(f"unrecognized spec {spec!r}")


class _Args(dict):
    """Keyword arguments of one spec, each taken out as the parser reads it;
    a missing key is a usage error naming it."""

    def __getitem__(self, key):
        if key not in self:
            raise UsageError(f"spec is missing the argument {key!r}")
        return self.pop(key)


class _Items(list):
    """Positional items of one spec, each taken out as the parser reads it."""

    def __getitem__(self, i):
        return self.pop(i)


@contextmanager
def _parse_args(rest: str):
    """(kwargs, positional) of one spec for the ``with`` block that builds it:
    a repeated key, or a key or item left unread, is a usage error naming it."""
    kwargs, positional = _Args(), _Items()
    for item in _split_top(rest, ",") if rest else ():
        if not item:
            continue
        if "=" in item and not item.startswith("<"):
            key, val = (s.strip() for s in item.split("=", 1))
            if key in kwargs:
                raise UsageError(f"spec repeats the argument {key!r}")
            kwargs[key] = val
        else:
            positional.append(item.strip())
    yield kwargs, positional
    if kwargs:
        raise UsageError(f"spec has an argument it does not take: {next(iter(kwargs))!r}")
    if positional:
        raise UsageError(f"spec has an item it does not take: {next(iter(positional))!r}")


def _strip(val: str) -> str:
    return val[1:-1] if val.startswith("<") and val.endswith(">") else val


def _num(val: str) -> float:
    try:
        x = float(_strip(val))
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise UsageError(f"expected a number, got {val!r}")
    return x


def _split_selector(body: str) -> tuple[str, str | None]:
    if len(body) > 2 and body[-2] == ":" and body[-1].upper() in ("F", "G"):
        return body[:-2], body[-1].upper()
    return body, None


def parse_generator(spec: str) -> OrliczFn:
    """Parse a generator spec string into an Orlicz function.

    ``brudnyi`` needs a trailing ``:F``/``:G`` selector; ``convexify<gen>``
    convexifies the generator ``gen``.
    """
    body = _strip(spec)
    if body.startswith("convexify<") and body.endswith(">"):
        return convexify(parse_generator(body[len("convexify"):]))
    body, selector = _split_selector(body)
    name, rest = _match_name(body, _GEN_NAMES)
    with _parse_args(rest) as (kwargs, positional):
        if selector is not None:
            positional.insert(0, selector)
        if name == "power":
            return power(_num(kwargs["p"]))
        if name == "pwpower":
            return pwpower(_num(kwargs["p0"]), _num(kwargs["p1"]))
        if name == "logfactor":
            return logfactor_fn(_num(kwargs["p"]))
        if name == "example1":
            return example1()
        if name == "elastic-nl":
            return elastic_non_lorentz()
        if name == "minimal":
            return MinimalFn(_num(kwargs.pop("alpha", "0.05")))
        if name == "brudnyi":
            sel = positional[0].upper() if positional else None
            pair = brudnyi_pair(_num(kwargs["p"]), _num(kwargs["q"]))
            if sel not in ("F", "G"):
                raise UsageError("brudnyi generator needs a :F or :G selector here")
            return pair[sel == "G"]
        raise UsageError(f"unknown generator {name!r}")


def _parse_weight(val: str) -> WeightFn:
    from .spaces import PowerWeight, TableLogLinear

    val = _strip(val)
    if val.startswith("pow:"):
        return PowerWeight(_num(val[4:]))
    cols = _split_top(val[6:], ":") if val.startswith("table:") else []
    if len(cols) == 2:
        return TableLogLinear(*([_num(v) for v in _strip(c).split(",")] for c in cols))
    raise UsageError(f"unknown weight form {val!r} (use pow:<exponent> or table:<log t>:<log w>)")


def parse_seq_space(spec: str, window: Window | None = None) -> SeqSpaceSpec:
    """Parse a sequence-space spec on the given window (default [-64, -1])."""
    from .spaces import (GeometricWeighted, InducedSeq, LinftySeq, OrderReversed,
                         OrliczModular, WeightedLp, dyadic_lp)

    if window is None:
        window = default_unit_window()
    name, rest = _match_name(_strip(spec), _SEQ_NAMES)
    with _parse_args(rest) as (kwargs, positional):
        if name in ("seq:from", "seq:induced", "rev") and not positional:
            raise UsageError(f"{name} needs a nested spec in <...>")
        if name == "seq:lpw":
            p = _num(kwargs["p"])
            if "weights" in kwargs:
                if "wexp" in kwargs:
                    raise UsageError("give weights or wexp, not both")
                w = [_num(v) for v in _strip(kwargs["weights"]).split(",")]
                if len(w) != window.size:
                    raise UsageError(f"{len(w)} weights for a window of {window.size} indices")
                return WeightedLp(p, window, weights=w)
            if "wexp" in kwargs:
                return WeightedLp(p, window, wexp=_num(kwargs["wexp"]))
            return dyadic_lp(p, window)
        if name == "seq:linf":
            return LinftySeq(window)
        if name == "seq:orlicz-modular":
            return OrliczModular(parse_generator(kwargs["gen"]), window)
        if name == "seq:from":
            return GeometricWeighted(parse_seq_space(positional[0], window),
                                     _num(kwargs["weightbase"]))
        if name == "seq:induced":
            return InducedSeq(parse_space(positional[0], window.domain), window)
        if name == "rev":
            # the inner space lives on the reversed window, so the result is on window
            return OrderReversed(parse_seq_space(positional[0], window.reversed()))
        raise UsageError(f"unknown sequence space {name!r}")


def parse_space(spec: str, domain: str = UNIT,
                window: Window | None = None) -> SpaceSpec:
    """Parse a function-space spec (Lp, Lorentz, Orlicz, fromseq)."""
    from .spaces import FromSequenceSpace, LorentzSpace, LpSpace, OrliczSpace, linf_space

    name, rest = _match_name(_strip(spec), _FN_NAMES)
    with _parse_args(rest) as (kwargs, positional):
        if name == "lp":
            return LpSpace(_num(kwargs["p"]), domain)
        if name == "linf":
            return linf_space(domain)
        if name == "lorentz":
            return LorentzSpace(_num(kwargs["p"]), _parse_weight(kwargs["w"]), domain)
        if name == "orlicz":
            return OrliczSpace(parse_generator(kwargs["gen"]), domain)
        if name == "fromseq":
            if not positional:
                raise UsageError("fromseq needs a nested sequence spec in <...>")
            return FromSequenceSpace(parse_seq_space(positional[0], window))
        raise UsageError(f"unknown function space {name!r}")


def parse_any_space(spec: str, domain: str = UNIT, window: Window | None = None):
    """Function space or sequence space, whichever the name resolves to."""
    if _strip(spec).split(":", 1)[0] in ("seq", "rev"):
        return parse_seq_space(spec, window)
    return parse_space(spec, domain, window)
