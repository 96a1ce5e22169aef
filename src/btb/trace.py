"""Relative traces and the Markov trace.

``theta`` maps the algebra on k strands onto the algebra on k-1 strands.  It
is linear over descriptor coordinates (module ``algebra``): writing a basis
element as m_1 ... m_{k-1} m_k EF_I with m_k the level-k block and I the tie
partition, the top block and the top strand are consumed:

    m_k = 1,            k untied:   keep everything, drop the strand;
    m_k = 1,            k tied:     factor x, delete k from its block;
    m_k = T_{k-1}..T_j [B_j], j<k:  factor z, the block drops one level and
                                    the partition contracts k onto j;
    m_k = B_k,          k untied:   factor y;
    m_k = B_k,          k tied with the axis (0 in its block):
                                    factor w, delete k from its block;
    m_k = B_k,          k tied to moving strands only, smallest partner j:
                                    the loop migrates to j:
                                    (x B_j (1 - F_j) + w F_j) EF_{tau_{k,j}(I)}.

The last case is the delicate one: deleting the strand with a bare w factor
(by analogy with the axis-tied case) breaks the trace property tr(ab)=tr(ba).
The migration form above is the unique repair consistent with symmetry, the
tower structure, stabilization, and the conjugation/commutation lemmas; the
test suite pins it down exhaustively at two strands and at random on three.

At k = 1 the table degenerates to the seed values: 1 -> 1, F_1 -> x,
B_1 -> y, B_1 F_1 -> w.  Composing all levels, top strand first, yields the
Markov trace; the four trace parameters stay the symbolic variables x, y, z,
w throughout (only u, v are ever specialized, via ``RingParams``).

Every rule above sends one descriptor d to one element over k-1 strands times
one factor (``_peel``), and the trace is linear, so tr(d) = factor *
tr(element) never has to be computed twice.  ``markov_trace`` therefore
expresses its argument in descriptor coordinates and sums c * tr(d) over
them, reading tr(d) from a memo on the descriptor's ``CBasis`` (so it is
bound to one parameter choice, like every other cached expansion).  A miss
is filled level by level, top strand first and then back up, without
recursion, so a fill as deep as the strand count costs no stack.  The table
is keyed by descriptor, never by word: different words share it.
"""

from __future__ import annotations

from .coeff import ONE, LaurentPoly, ZERO, var
from .partitions import join_set, remove, tau
from .algebra import (
    AlgebraElement,
    RingParams,
    SYMBOLIC,
    ef_elem,
    get_cbasis,
    mul,
)

X = var("x")
Y = var("y")
Z = var("z")
W = var("w")

TRACE_PARAMS = (X, Y, Z, W)
"""The four formal trace parameters, never specialized inside this module."""


def theta(e: AlgebraElement, params: RingParams = SYMBOLIC) -> AlgebraElement:
    """The relative trace one level down: algebra on k strands to k-1."""
    k = e.n
    if k < 1:
        raise ValueError("theta needs at least one strand")
    prev = get_cbasis(k - 1, params)

    def pieces():
        for d, c in get_cbasis(k, params).express(e).items():
            piece, factor = _peel(prev, d)
            yield piece, (c if factor is ONE else c * factor)

    return AlgebraElement.sum_of(k - 1, pieces())


def _peel(prev, d: tuple) -> tuple:
    """theta of the descriptor d = (ms, I) on k strands, as (element over
    k-1 strands, factor); ``prev`` is the ``CBasis`` on k-1 strands."""
    ms, I = d
    k = prev.n + 1
    params = prev.params
    j, sign = ms[-1]
    rest = ms[:-1]
    if j < k:
        return mul(
            prev.prefix(rest),
            mul(prev.tee_elem(k - 1, (j, sign)), ef_elem(tau(I, k, j)), params),
            params,
        ), Z
    p = I.parent[k]  # the smallest strand tied to k; k itself when untied
    if sign < 0 and 0 < p < k:  # a loop tied to moving strands only migrates
        return mul(prev.prefix(rest), _migrated_loop(I, k, p, prev, params), params), ONE
    tied = p != k
    factor = (X if tied else ONE) if sign > 0 else (W if tied else Y)
    return prev.expansion(rest, remove(I, k)), factor


def _migrated_loop(I, k: int, j: int, prev, params: RingParams) -> AlgebraElement:
    """(x B_j (1 - F_j) + w F_j) EF_{tau_{k,j}(I)} over k-1 strands, with
    F_j EF_J = EF_{J v {0, j}}."""
    J = tau(I, k, j)
    fj_ef = ef_elem(join_set(J, (0, j)))
    bj = prev.bk_elem(j)
    return AlgebraElement.sum_of(k - 1, (
        (mul(bj, ef_elem(J), params), X),
        (mul(bj, fj_ef, params), -X),
        (fj_ef, W),
    ))


def markov_trace(e: AlgebraElement, params: RingParams = SYMBOLIC) -> LaurentPoly:
    """The scalar trace: the sum of c * tr(d) over the descriptor
    coordinates of e, with tr(d) peeled from the top strand down once per
    descriptor and memoized (see the module docstring).

    Normalized so the unit maps to 1; linear; symmetric (tr(ab) = tr(ba)) and
    compatible with adding an unused strand - the properties the link
    invariant needs, exercised by the test suite.
    """
    cb = get_cbasis(e.n, params)
    coords = cb.express(e)
    _fill(cb, coords)
    value = _dot(coords, cb.traces)
    assert all(
        exps[2] >= 0 and exps[3] >= 0 and exps[4] >= 0 and exps[5] >= 0
        for exps in value.terms
    ), "trace produced a negative exponent in a trace parameter"
    return value


def _fill(cb, descriptors) -> None:
    """Memoize tr(d) in ``cb.traces`` for every descriptor d not yet there.

    The descriptors are peeled one level at a time, collecting the missing
    ones a level below, down to the single descriptor on 0 strands (trace
    1); the traces are then summed back up, level by level.
    """
    levels = []
    todo = [d for d in descriptors if d not in cb.traces]
    while todo and cb.n:
        prev = get_cbasis(cb.n - 1, cb.params)
        rows = []
        below: dict = {}
        for d in todo:
            piece, factor = _peel(prev, d)
            coords = prev.express(piece)
            rows.append((d, factor, coords))
            below.update((d2, None) for d2 in coords if d2 not in prev.traces)
        levels.append((cb, prev, rows))
        cb, todo = prev, list(below)
    for d in todo:
        cb.traces[d] = ONE
    for cb, prev, rows in reversed(levels):
        for d, factor, coords in rows:
            cb.traces[d] = factor * _dot(coords, prev.traces)


def _dot(coords: dict, traces: dict) -> LaurentPoly:
    """The sum of c * traces[d] over the (d, c) items of ``coords``."""
    return sum((c * traces[d] for d, c in coords.items()), ZERO)
