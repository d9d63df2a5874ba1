"""Fast membership tests, Midy-set enumeration, multipliers, and set structure.

Membership rests on the exact divisibility criterion

    d in M_b(n)  <=>  n | (b**e - 1) // (b**k - 1),   e = ord_n(b), k = e // d,

checked prime by prime without ever materializing b**k - 1.  The order o of
each prime p of n is found once, and p only matters for the d whose k it
divides (exactly when b**k = 1 mod p), that is for the d dividing e // o.
Such an odd p has exactly nu_p(d) factors in the quotient (lifting the
exponent).  The 2-adic case needs care: for odd b and even d the quotient
absorbs nu_2(d) + nu_2(b**k + 1) - 1 twos, one more than nu_2(d) whenever k
is odd and b = 3 (mod 4).  That count depends on d only through nu_p(d)
and never falls as nu_p(d) grows, so among the divisors of e each prime rules
out exactly the divisors of one number, its box top, and a set is the
divisors left after filtering out every prime's box in turn.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .ntcore import (
    Factorization,
    MidyError,
    _check_odd_prime,
    _check_pair,
    _checked_k,
    _factor_pairs,
    _lifted,
    _nu_int,
    _order_int,
    _prime_power_orders,
    divisors,
)


class FailureCertificate(
    namedtuple("FailureCertificate", "prime nu_modulus nu_d two_adic_slack", defaults=(0,))
):
    """Witness prime against membership: the modulus carries more of it than d absorbs.

    ``two_adic_slack`` is the extra absorption at p = 2; zero at odd primes.
    """

    __slots__ = ()


class MidyVerdict(
    namedtuple("MidyVerdict", "modulus base d k member certificate", defaults=(None,))
):
    """Membership of d, with a FailureCertificate when d is not a member."""

    __slots__ = ()


class MidySet(namedtuple("MidySet", "modulus base order members")):
    """All block counts d for which the modulus has the block-sum property."""

    __slots__ = ()

    def __contains__(self, d: int) -> bool:
        return d in self.members


def _quotient_valuation(p: int, b: int, k: int, d: int) -> int:
    """nu_p of (b**(k*d) - 1) // (b**k - 1), given that p divides b**k - 1."""
    if p != 2:
        return _nu_int(p, d)
    if d % 2:
        return 0
    return _nu_int(2, d) + (_nu_int(2, b + 1) - 1 if k % 2 else 0)


def _members(orders, b: int, e: int, candidates) -> list[int]:
    """The candidates d (divisors of e) that every prime in ``orders`` lets through.

    A prime p of order o and exponent a constrains d only when d | e // o, and
    rules d out there when ``_quotient_valuation`` counts fewer than a factors
    p.  It rules out exactly the divisors of its box top: e // o with its
    p-part cut down to the largest p**j whose count falls short of a, found by
    walking j down from nu_p(e // o) (j = 0 counts none).  This is exact for
    two reasons.  The count depends on d only through nu_p(d): at p = 2 the
    slack arises when k = e // d is odd, exactly when nu_2(d) = nu_2(e).  And
    it never falls as nu_p(d) grows.  One remainder per candidate and prime.
    """
    kept = list(candidates)
    for p, a, o in orders:
        f = e // o
        part = cut = p ** _nu_int(p, f)
        while cut > 1 and _quotient_valuation(p, b, e // cut, cut) >= a:
            cut //= p
        top = f // part * cut
        kept = [d for d in kept if top % d]
    return kept


def check_midy(n: int, b: int, d: int) -> MidyVerdict:
    """Decide membership by sweeping the prime divisors of the modulus.

    The witness of a non-member is the first prime of n whose own ``_members``
    filter drops d; its slack is what the quotient absorbs beyond nu_p(d).
    """
    _check_pair(b, n)
    e, _, orders = _prime_power_orders(b, n)
    k = _checked_k(e, d)
    for p, a, o in orders:
        if not _members([(p, a, o)], b, e, [d]):
            nu_d = _nu_int(p, d)
            cert = FailureCertificate(p, a, nu_d, _quotient_valuation(p, b, k, d) - nu_d)
            return MidyVerdict(n, b, d, k, False, cert)
    return MidyVerdict(n, b, d, k, True)


def check_midy_gcd(n: int, b: int, d: int) -> MidyVerdict:
    """Same verdict read off g = gcd(sum_{i<d} b**(i*k) mod n, n): a member iff g = n.

    The block-sum test reads no prime order and no 2-adic rule, only e, which
    ``_order_int`` finds by factoring n and each p - 1 on every call; n's primes
    also name a non-member's witness, the least prime that g holds fewer of.
    """
    _check_pair(b, n)
    k = _checked_k(_order_int(b, n), d)
    c = pow(b, k, n)  # not 1, as k = e // d < e
    # c**d - 1 = (c - 1) * sum, so reducing mod n*(c - 1) leaves the sum mod n
    g = gcd((pow(c, d, n * (c - 1)) - 1) // (c - 1), n)
    if g == n:
        return MidyVerdict(n, b, d, k, True)
    p, a = next((p, a) for p, a in _factor_pairs(n) if _nu_int(p, g) < a)
    nu_d = _nu_int(p, d)
    cert = FailureCertificate(p, a, nu_d, _nu_int(p, g) - nu_d)
    return MidyVerdict(n, b, d, k, False, cert)


def midy_set(n: int, b: int) -> MidySet:
    """Every divisor d >= 2 of the period length that passes the membership test.

    The period length comes factored, with the order of each prime of n, from
    one pass over n's prime powers; the divisors are then filtered prime by
    prime, here alone.  The set is upward closed: empty exactly when e is not
    a member, and {e} exactly when e is and no e // q is, for the primes q of
    e.  The degenerate modulus 1 yields the empty set.
    """
    if n != 1 or b < 2:  # the modulus 1 has period length 1 and no d to test
        _check_pair(b, n)
    e, e_pairs, orders = _prime_power_orders(b, n)
    candidates = Factorization(e, e_pairs).divisors()[1:]  # every divisor but 1
    return MidySet(modulus=n, base=b, order=e, members=tuple(_members(orders, b, e, candidates)))


def multiplier(n: int, b: int, d: int) -> int:
    """m with sum_{i=1..d} (b**(i*k) mod n) = m*n; defined only for members."""
    verdict = check_midy(n, b, d)
    if not verdict.member:
        raise MidyError(
            f"{d} is not in the Midy set of {n} to base {b}; the multiplier is undefined"
        )
    step = pow(b, verdict.k, n)
    total, cur = 0, 1
    for _ in range(d):
        cur = cur * step % n
        total += cur
    m, rem = divmod(total, n)
    if rem:  # unreachable for members
        raise MidyError("multiplier sum failed to divide; membership logic is broken")
    return m


# ---------------------------------------------------------------------------
# prime powers

def prime_power_set(b: int, p: int, n: int) -> MidySet:
    """Midy set of p**n assembled from the set of p plus order lifting.

    The set of a prime is every divisor >= 2 of its period length; past the
    lifting level m each extra power of p scales a copy of that set by p.
    """
    _check_odd_prime(b, p, n)
    o, lift, order = _lifted(b, p, n)
    base_members = [d for d in divisors(o) if d >= 2]
    copies = range(lift + 1)  # one copy, scaled by p**i, per power past m
    members = tuple(sorted({p**i * d for i in copies for d in base_members}))
    return MidySet(modulus=p**n, base=b, order=order, members=members)


class CardinalityReport(namedtuple("CardinalityReport", "closed_form actual disjoint")):
    """Closed-form size of a prime-power Midy set next to the size of the set built.

    ``actual`` counts the members ``prime_power_set`` assembles from its scaled
    copies; the ``prime-power`` suite compares those against ``midy_set``.
    """

    __slots__ = ()


def cardinality_report(b: int, p: int, n: int) -> CardinalityReport:
    """Closed-form count with a runtime check that the scaled copies are disjoint."""
    actual = len(prime_power_set(b, p, n).members)  # checks b, p and n once
    o, lift, _ = _lifted(b, p, n)
    base_count = sum(1 for d in divisors(o) if d >= 2)
    closed = (lift + 1) * base_count
    return CardinalityReport(closed_form=closed, actual=actual, disjoint=closed == actual)


# ---------------------------------------------------------------------------
# products and restriction

class RestrictionReport(namedtuple("RestrictionReport", "n1 n2 base candidates violations")):
    """Members of the larger modulus restricted to a divisor of it."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.violations


def restrict_set(n1: int, n2: int, b: int) -> RestrictionReport:
    """Check that members of M_b(n2) dividing the period length of n1 restrict to n1.

    Both sets come from midy_set; the violations are the candidates missing from M_b(n1).
    Requires n1 | n2; a violated precondition raises rather than reporting a
    failed inclusion.
    """
    _check_pair(b, n1)
    _check_pair(b, n2)
    if n2 % n1:
        raise MidyError(f"{n1} must divide {n2}")
    inner = midy_set(n1, b)
    candidates = tuple(d for d in midy_set(n2, b).members if inner.order % d == 0)
    violations = tuple(d for d in candidates if d not in inner)
    return RestrictionReport(n1, n2, b, candidates, violations)


def product_set(n: int, m: int, b: int) -> MidySet:
    """Midy set of m*n filtered out of the set of n (coprime m, equal orders).

    A member d of M_b(n) survives unless some prime r of m with ord_r(b) | k
    packs more of r into m than the block-count quotient absorbs.  The orders
    come from one pass over n and one over m, never over m*n: ord_{mn}(b) =
    lcm(e, ord_m(b)) equals e exactly when ord_m(b) divides e.
    """
    _check_pair(b, n)
    if m < 1:
        raise MidyError(f"cofactor must be >= 1, got {m}")
    if gcd(m, n) != 1:
        raise MidyError(f"{m} and {n} must be coprime")
    if gcd(m, b) != 1:
        raise MidyError(f"cofactor {m} must be coprime to the base {b}")
    start = midy_set(n, b)
    e = start.order
    e_m, _, orders = _prime_power_orders(b, m)
    if e % e_m:
        raise MidyError(
            f"multiplying by {m} changes the period length of {n}; the filter does not apply"
        )
    members = tuple(_members(orders, b, e, start.members))
    return MidySet(modulus=m * n, base=b, order=e, members=members)
