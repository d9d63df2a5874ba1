"""Purely periodic base-b digit expansions, block decompositions, and the digit oracle.

The oracle here is the ground truth the theorem-based tests in
:mod:`midy.analyzer` are checked against: it works straight from the digits.
Its all-x mode runs one long division per orbit {x, x*b, x*b**2, ...} of the
unit numerators: the digits of x*b mod n are those of x rotated one place
left, so that division yields the digits of every numerator in the orbit.
For blocks of k digits, one place of rotation turns a block sum S into
b*S - (b**k - 1)*T, with T a column sum of the blocks, so b**k - 1 divides
every sum of the orbit once it divides the first: one big-int test per orbit
and d decides it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt
from operator import add

from .ntcore import MidyError, _check_pair, _checked_k


class PeriodExpansion(namedtuple("PeriodExpansion", "numerator modulus base digits")):
    """One full period of numerator/modulus written in the given base."""

    __slots__ = ()

    @property
    def period_length(self) -> int:
        return len(self.digits)


class BlockDecomposition(namedtuple("BlockDecomposition", "d k blocks block_sum")):
    """A period cut into d blocks of k digits, each block read as a base-b integer."""

    __slots__ = ()


def _check_fraction(x: int, n: int, b: int) -> None:
    _check_pair(b, n)
    if not 1 <= x < n or gcd(x, n) != 1:
        raise MidyError(f"numerator {x} is not a unit modulo {n}")


def expand(x: int, n: int, b: int) -> PeriodExpansion:
    """Digits of x/n in base b over one full period, by long division.

    The division stops when the remainder returns to x, so the period length
    is read off the digits, not looked up.
    """
    _check_fraction(x, n, b)
    digs = []
    r = x
    while True:
        a, r = divmod(r * b, n)
        digs.append(a)
        if r == x:
            return PeriodExpansion(numerator=x, modulus=n, base=b, digits=tuple(digs))


@lru_cache(maxsize=1 << 12)  # so the oracle's two modes on one (n, b) walk 1/n once
def _period_length(n: int, b: int, limit: int) -> int:
    """Least e >= 1 with b**e = 1 (mod n), by the remainders of 1/n; raises past limit steps."""
    _check_pair(b, n)
    r = b % n
    for e in range(1, limit + 1):
        if r == 1:
            return e
        r = r * b % n
    raise MidyError(f"the period length of 1/{n} to base {b} is above its bound {limit}")


def period_integer(n: int, b: int) -> int:
    """The integer whose base-b digits are the period of 1/n."""
    return (b ** _period_length(n, b, n) - 1) // n


def blocks(expansion: PeriodExpansion, d: int) -> BlockDecomposition:
    """Cut a period into d equal blocks and sum their base-b values."""
    e = len(expansion.digits)
    k = _checked_k(e, d)
    b = expansion.base
    vals = []
    for j in range(0, e, k):
        acc = 0
        for a in expansion.digits[j : j + k]:
            acc = acc * b + a
        vals.append(acc)
    return BlockDecomposition(d=d, k=k, blocks=tuple(vals), block_sum=sum(vals))


def _block_multiplier(digs: list[int], b: int, d: int) -> int | None:
    """The multiplier m = S/(b**k - 1) of a period's d-block sum S, or None when it is no integer.

    With blocks of k = e/d digits, the k column sums T of the blocks give S as
    their Horner value, and the sum of the period rotated one place left is
    b*S - (b**k - 1)*T_0.  So when b**k - 1 divides S it divides the block sum
    of every rotation, and one test decides the whole orbit {x, x*b, ...}.
    S adds d blocks of k digits and a unit fraction's period is neither all 0s
    nor all (b-1)s, so 0 < m < d; a multiplier outside raises MidyError.
    """
    k = len(digs) // d
    # measured on the bench's oracle-sweep moduli: folding the d blocks wins
    # while they are few, the k strided slices once they are many
    if d < k:
        cols = digs[:k]
        for j in range(k, len(digs), k):
            cols = list(map(add, cols, digs[j : j + k]))
    else:
        cols = [sum(digs[j::k]) for j in range(k)]
    s = 0
    for t in cols:
        s = s * b + t
    m, rem = divmod(s, b**k - 1)
    if rem:
        return None
    if not 0 < m < d:
        raise MidyError(
            f"block multiplier {m} is outside 1 .. {d - 1} for d = {d}: "
            "the digits are no period of a unit fraction"
        )
    return m


def oracle_midy_sweep(
    n: int, b: int, ds: list[int] | None = None, mode: str = "all-x"
) -> dict[int, bool]:
    """The digit oracle over several divisors at once.

    Returns {d: verdict}.  With ds omitted, every divisor >= 2 of the period
    length is tested, found by trial division, not by the factoring code the
    oracle checks.  In ``all-x`` mode one block sum per orbit and d is tested
    for divisibility by b**k - 1, which decides every numerator of the orbit;
    ``x-equals-1`` tests the period integer of 1/n instead.
    """
    if mode not in ("all-x", "x-equals-1"):
        raise MidyError(f"unknown oracle mode {mode!r}")
    # the modulus 1 has period length 1, as in midy_set; any other n has e < n
    e = 1 if n == 1 and b >= 2 else _period_length(n, b, n)
    if ds is None:
        ds = [d for i in range(1, isqrt(e) + 1) if e % i == 0 for d in (i, e // i) if d >= 2]
    ds = sorted(set(ds))
    for d in ds:
        _checked_k(e, d)
    if mode == "x-equals-1":
        big = (b**e - 1) // n  # the period integer of 1/n
        return {d: big % (b ** (e // d) - 1) == 0 for d in ds}
    out = dict.fromkeys(ds, True)
    pending = list(ds)
    seen = bytearray(n)
    # one long division per orbit {x, x*b, x*b**2, ...}: its remainders are the
    # orbit, and its rotations are the digits of every numerator in it
    for x in range(1, n):
        if not pending:
            break
        if seen[x] or gcd(x, n) != 1:
            continue
        digs = []
        r = x
        for _ in range(e):
            seen[r] = 1
            a, r = divmod(r * b, n)
            digs.append(a)
        for d in tuple(pending):
            if _block_multiplier(digs, b, d) is None:
                out[d] = False
                pending.remove(d)
    return out


def oracle_confirm(n: int, b: int, members, ds: list[int] | None = None) -> None:
    """Raise MidyError naming each d where members and the oracle differ, within ds if given."""
    verdicts = oracle_midy_sweep(n, b, ds=ds)
    claimed = set(members) if ds is None else set(members) & verdicts.keys()
    wrong = ", ".join(map(str, sorted(claimed ^ {d for d, flag in verdicts.items() if flag})))
    if wrong:
        raise MidyError(
            f"digit oracle disagrees with the fast test on {n} base {b} at d = {wrong}"
        )
