"""The extended-precision values of the exact cascade layer, on mpmath.

The threshold chain and the seed extension's inverse cells
(:mod:`branchfix.cascade`) are 53-bit floats with unbounded exponents, held
as mpmath values: ``mpf`` results outside, raw ``(sign, man, exp, bc)``
tuples inside.  This module makes and reads them: the rounding of an input
to 53 bits (:func:`rounded`), the conversions between tuples, the pairs of
``_G.pair`` and the integer float indices of the preimage search, the 80-bit
Newton start of that search, ``G`` of a tuple and a cell's miss.  The
search and ``G`` itself run on floats and integers in ``cascade``.

It is the package's only module that imports mpmath.  ``cascade`` imports
it when a function that makes or reads such values first runs, so ``import
branchfix`` does not load mpmath; the first exact chain, seed extension or
:func:`~branchfix.cascade.g_eval_mp` call does.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_div,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
)

PREC = 53
RND = "n"
NEWTON_PREC = 80
_TWO52 = 2.0**52

make_mpf = mp.make_mpf


def to_pair(t: tuple) -> tuple:
    """The pair ``(m, e)`` of a nonnegative tuple (``bc <= 53``): ``m 2^e``
    with ``m`` in [1, 2), or ``m = 0`` for zero."""
    _, man, exp, bc = t
    return math.ldexp(man, 1 - bc), exp + bc - 1


def from_pair(m: float, e: int) -> tuple:
    """The tuple of a pair; ``m = 0`` gives zero."""
    return from_man_exp(int(m * _TWO52), e - 52)


def index(t: tuple) -> int:
    """Integer index of a positive 53-bit float; adjacent floats differ by 1.

    ``man 2^exp`` with a 53-bit ``man`` maps to ``exp 2^52 + man``, so the
    top of a binade (``man = 2^53 - 1``) and the bottom of the next
    (``man = 2^52``, ``exp + 1``) are consecutive.  The exponent is
    unbounded, and so are the indices, in both directions.
    """
    _, man, exp, bc = t
    return ((exp + bc - 53) << 52) + (man << (53 - bc))


def float_at(i: int) -> tuple:
    """The positive 53-bit float of index ``i`` (the inverse of :func:`index`)."""
    exp = (i >> 52) - 1
    return from_man_exp(i - (exp << 52), exp)


def rounded(x) -> tuple:
    """The tuple of ``mpf(x)`` at 53 bits, round to nearest."""
    if isinstance(x, mpf):
        # mpmath keeps its values normalized (odd mantissa), so one of at
        # most 53 bits is already its own rounding
        t = x._mpf_
        return t if t[3] <= PREC else mpf_pos(t, PREC, RND)
    if isinstance(x, float):
        return from_float(x)
    with mp.workprec(PREC):
        return mpf(x)._mpf_


def image(g, t: tuple) -> tuple:
    """``G(t)`` (``g.pair``) as a tuple, for a 53-bit tuple ``t`` in [0, 1]."""
    return t if t == fzero else from_pair(*g.pair(*to_pair(t)))


def miss(g, x, y) -> mpf:
    """``|G(x) - y|`` rounded to 53 bits, for positive 53-bit ``x`` and ``y``
    (each an ``mpf`` or a float); zero where ``G(x) == y``."""
    got, want = image(g, rounded(x)), rounded(y)
    return make_mpf(fzero if got == want else mpf_abs(mpf_sub(got, want, PREC, RND)))


def newton_root(g, y: tuple) -> tuple:
    """Estimate of the branch root of ``g(x) = y``, at 80 bits.

    Newton's method on ``v = x^(1/N)`` for ``p(v) = v - c v^N - theta y``,
    started at ``v = theta y``.  ``p`` is concave and ``p(theta y) < 0``, so
    the iterates rise monotonically to the root on the increasing branch.
    Stops on a step below 2^-70 relative, a slope that is not positive (no
    root below the peak), or after 64 steps; returns ``v^N``.

    Where ``c (theta y)^N`` is below a quarter ulp of ``theta y``, as it is
    on every deep cell, ``v - c v^N`` rounds to ``v``, so the first step is
    exactly 0 (or the slope stops the loop) and ``v`` stays ``theta y``;
    that step is skipped.  ``c v^N`` rounded three times at 80 bits is
    under ``2^(ce + 2 + N top)`` for ``c < 2^(ce+1)`` and ``theta y <
    2^top``, and a quarter ulp of ``theta y`` is at least ``2^(top - 82)``.
    """
    prec = NEWTON_PREC
    n = g.n
    if g.mp is None:
        g.mp = from_float(g.theta), from_float(g.one_minus)
    theta, c = g.mp
    ty = mpf_mul(theta, y, prec, RND)
    top = ty[2] + ty[3]
    if g._ce + 2 + n * top <= top - 82:
        return mpf_pow_int(ty, n, prec, RND)
    v = ty
    for _ in range(64):
        cw = mpf_mul(c, mpf_pow_int(v, n - 1, prec, RND), prec, RND)
        slope = mpf_sub(fone, mpf_mul_int(cw, n, prec, RND), prec, RND)
        if not mpf_lt(fzero, slope):
            break
        p = mpf_sub(mpf_sub(v, mpf_mul(cw, v, prec, RND), prec, RND), ty, prec, RND)
        step = mpf_div(p, slope, prec, RND)
        v = mpf_sub(v, step, prec, RND)
        if mpf_le(mpf_abs(step), mpf_shift(v, -70)):
            break
    return mpf_pow_int(v, n, prec, RND)


def newton_start(g, y: tuple) -> int:
    """The index of :func:`newton_root` rounded to 53 bits."""
    return index(mpf_pos(newton_root(g, y), PREC, RND))
