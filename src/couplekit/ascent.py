"""The one multiplicative coordinate ascent, ``_ascend_steps``, behind the
adversarial searches (the RSP/LSP shift search, kappa and the ``op_norm``
lower bound), with its accept margin and its stop rule: a step is accepted
when it beats its lane's ratio by more than ``ACCEPT_REL`` relative, and a
search ends once its best ratio reaches ``stop_level``, the lower of its
``target`` and its certified upper bound over 1 + ``ACCEPT_REL`` (no accept
could beat the bound by more), or once its best ratio is inf, which no step
can beat; ``stop_reason`` says why it ended.
"""

from __future__ import annotations

import math

import numpy as np

# why a search stopped: its evaluation budget ran out, its best ratio reached
# the target, it met the certified upper bound within ACCEPT_REL, or it
# overflowed to inf
STOP_BUDGET = "budget"
STOP_TARGET = "target"
STOP_UPPER = "upper"
STOP_OVERFLOW = "overflow"
# the relative gain an ascent step must beat to be accepted
ACCEPT_REL = 1e-12


def stop_level(target: float | None, upper: float | None) -> float | None:
    """The ratio that ends a search: the lower of ``target`` and
    upper / (1 + ACCEPT_REL); None, which never ends it, without either."""
    bound = None if upper is None else upper / (1 + ACCEPT_REL)
    return min((v for v in (target, bound) if v is not None), default=None)


def stop_reason(best: float, level: float | None, target: float | None = None) -> str:
    """Why a search whose best ratio is ``best`` stops at ``level``:
    STOP_OVERFLOW once ``best`` is inf, else STOP_BUDGET below the level,
    else STOP_TARGET when ``best`` reached ``target`` and STOP_UPPER when it
    reached only the bound."""
    if math.isinf(best):
        return STOP_OVERFLOW
    if level is None or best < level:
        return STOP_BUDGET
    return STOP_TARGET if target is not None and best >= target else STOP_UPPER


def _ascend_steps(ratios, lanes, rel: float, sweeps: bool = False, reach=None):
    """Independent multiplicative ascents ("lanes") evaluated together.

    A lane is a list [alpha, r, coords, factors, cap]: a pass of the steps
    alpha[coords[i]] *= factors[i], each built from the lane's current alpha
    and accepted when its ratio beats the lane's r by more than ``rel``
    relative.  r None makes the lane evaluate alpha itself first, as a row of
    its first batch; a lane consumes at most ``cap`` steps, and with
    ``sweeps`` repeats its pass while the pass accepts a step.  Each round
    sends the next steps of every unfinished lane to ``ratios`` as one batch
    of rows, and each lane consumes its own rows in order up to its first
    accept, so a lane's accepts and consumed steps are those of a
    step-by-step ascent (rows never depend on each other): how many rows a
    lane sends decides only what is evaluated speculatively.  A lane's first
    round sends the rest of its pass; later rounds send at most
    ceil((consumed + 1) / (accepts + 1)) steps, the lane's own steps per
    accept so far, so a lane that never accepts ends its pass in one round.
    A round's rows are alpha times rows of the pass's step table (row 0 all
    ones, row j + 1 ones but factors[j] at coords[j]), built once for each
    run of lanes on the same pass: the products of the steps, bit for bit.

    A step whose trial equals the alpha logged just before the lane's latest
    accept (the / 4 after an accepted * 4) is a known reject: its ratio is
    the logged one, below r.  It is consumed without a row, and the known
    rejects that directly follow a lane's rows are consumed with them.  A
    trial differs from alpha only at its step's coordinate, and alpha from
    the alpha before it only at the accepted one, so the test is that step
    taking the accepted coordinate back to its old value; a product that
    underflows or overflows never does.

    Returns (r, alpha, consumed, log) per lane.  The log lists (consumed, r,
    alpha) at the start and after each accept, so the lane run alone with
    cap c <= consumed ends at its last entry with consumed <= c.  With
    ``reach``, the lanes after the first lane whose r reaches it stop where
    they are (their results are partial); that lane runs on."""
    # lane state: alpha, r, step table, coords and factors as lists, steps
    # left, position in the pass, steps consumed, accepted in this pass, pass
    # length, log, and the coordinate and old value of the latest accept
    state, last = [], None
    for alpha, r, coords, factors, cap in lanes:
        if last is None or last[0] is not coords or last[1] is not factors:
            P = np.empty((len(coords) + 1, len(alpha)))
            P.fill(1.0)  # as np.ones, at less cost
            P[np.arange(1, len(coords) + 1), coords] = factors
            last, table = (coords, factors), (P, coords.tolist(), factors.tolist())
        state.append([alpha, r, *table, cap, 0, 0, False, len(coords),
                      [] if r is None else [(0, r, alpha)], None])
    live = [s for s in state if s[1] is None or min(s[5], s[9]) > 0]
    while live:
        blocks, sent = [], []
        for s in live:
            alpha, r, P, coords, factors, left, pos, used, _, size, log, undo = s
            first = r is None
            # past the first round the log holds the start and every accept
            m = min(size - pos, left,
                    size if used == 0 else -(-(used + 1) // len(log)))
            T = alpha * P[pos + 1 - first:pos + 1 + m]
            back = None  # the steps that are known rejects, which get no row
            if undo is not None:
                (c, old), now = undo, alpha[undo[0]]
                back = [x == c and f * now == old
                        for x, f in zip(coords[pos:pos + m], factors[pos:pos + m])]
                back = back if any(back) else None
            blocks.append((T, back))
            sent.append(T if back is None else T[np.logical_not(back)])
        rows = sent[0] if len(sent) == 1 else np.concatenate(sent)
        out = ratios(rows).tolist() if len(rows) else []
        at, still = 0, []
        for s, (T, back), V in zip(live, blocks, sent):
            alpha, r, _, coords, factors, left, pos, used, accepted, size, log, undo = s
            vals, at = out[at:at + len(V)], at + len(V)
            if back is not None:
                known, got = log[-2][1], iter(vals)
                vals = [known if b else next(got) for b in back]
            j0 = 0
            if r is None:
                r, j0 = vals[0], 1
                log.append((0, r, alpha))
            bar, taken = r * (1 + rel), len(vals) - j0
            for j in range(j0, len(vals)):
                if vals[j] > bar:
                    c = coords[pos + j - j0]
                    undo = s[11] = c, alpha[c]
                    alpha, r, accepted = T[j], vals[j], True
                    taken = j - j0 + 1
                    log.append((used + taken, r, alpha))
                    break
            if undo is not None:  # consume the known rejects that come next
                c, old = undo
                end, now = pos + min(size - pos, left), alpha[c]
                while pos + taken < end and coords[pos + taken] == c \
                        and now * factors[pos + taken] == old:
                    taken += 1
            left, pos, used = left - taken, pos + taken, used + taken
            if pos == size and sweeps and accepted and left > 0:
                pos, accepted = 0, False
            s[:2], s[5:9] = (alpha, r), (left, pos, used, accepted)
            if pos < size and left > 0:
                still.append(s)
            if reach is not None and r >= reach:
                break
        live = still
    return [(s[1], s[0], s[7], s[10]) for s in state]
