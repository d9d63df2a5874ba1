"""Purely periodic base-b digit expansions, block decompositions, and the digit oracle.

The oracle here is the ground truth the theorem-based tests in
:mod:`midy.analyzer` are checked against: it works straight from the digits.
Its all-x mode runs one long division per orbit {x, x*b, x*b**2, ...} of the
unit numerators: the digits of x*b mod n are those of x rotated one place
left, so that division yields the digits of every numerator in the orbit.
Each numerator's exact block sum then follows from its predecessor's, and
for blocks of k digits the sums repeat with period k along the orbit.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

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


def _rotation_block_sums(digs: list[int], b: int, k: int):
    """Exact block sums, for blocks of k digits, of rotations 0 ... k-1 of a period.

    Rotation t (t places left) of the period of x/n is the period of
    x*b**t mod n, and its block sum is S(xb) = b*S(x) - (b**k - 1)*T(x), where
    T(x) is the sum of the blocks' leading digits: lead[t] below.  The first
    sum is the Horner value of the column sums lead, which adds the blocks of
    the unrotated period exactly.  Rotating by k places moves the first block
    to the end and leaves the set of blocks as it was, so rotation t has the
    block sum of rotation t mod k.  The recurrence agrees: k steps from S give
    b**k*S - (b**k - 1)*H, where H, the Horner value of lead, is S itself.
    """
    modulus = b**k - 1
    lead = [sum(digs[j::k]) for j in range(k)]
    s = 0
    for t in lead:
        s = s * b + t
    for t in lead:
        yield s
        s = b * s - modulus * t


def oracle_midy_sweep(
    n: int, b: int, ds: list[int] | None = None, mode: str = "all-x"
) -> dict[int, bool]:
    """The digit oracle over several divisors at once.

    Returns {d: verdict}.  With ds omitted, every divisor >= 2 of the period
    length is tested, found by trial division, not by the factoring code the
    oracle checks.  In ``all-x`` mode each unit numerator gets its own exact
    block sum, tested for divisibility by b**k - 1; ``x-equals-1`` tests the
    period integer of 1/n instead.
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
    moduli = {d: b ** (e // d) - 1 for d in ds}
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
            modulus = moduli[d]
            if any(s % modulus for s in _rotation_block_sums(digs, b, e // d)):
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
