"""Fast membership tests, Midy-set enumeration, multipliers, and set structure.

Membership rests on the exact divisibility criterion

    d in M_b(n)  <=>  n | (b**e - 1) // (b**k - 1),   e = ord_n(b), k = e // d,

checked prime by prime without ever materializing b**k - 1.  The order o of
each prime p of n is found once, and p only matters for the d whose k it
divides (exactly when b**k = 1 mod p), that is for the d dividing e // o.
Such an odd p has exactly nu_p(d) factors in the quotient (lifting the
exponent).  The 2-adic case needs care: for odd b and even d the quotient
absorbs nu_2(d) + nu_2(b**k + 1) - 1 twos, one more than nu_2(d) whenever k
is odd and b = 3 (mod 4).  So among the divisors of e, each prime rules out
one box of d, and a set is the divisors left after filtering out every
prime's box in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class FailureCertificate:
    """Witness prime against membership: the modulus carries more of it than d absorbs."""

    prime: int
    nu_modulus: int
    nu_d: int
    two_adic_slack: int = 0  # extra absorption at p = 2; zero at odd primes


@dataclass(frozen=True)
class MidyVerdict:
    modulus: int
    base: int
    d: int
    k: int
    member: bool
    certificate: FailureCertificate | None = None


@dataclass
class MidySet:
    """All block counts d for which the modulus has the block-sum property."""

    modulus: int
    base: int
    order: int
    members: tuple[int, ...]

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

    A prime of order o constrains d only when d | e // o; one filter per prime.
    """
    kept = list(candidates)
    for p, a, o in orders:
        f = e // o
        kept = [d for d in kept if f % d or a <= _quotient_valuation(p, b, e // d, d)]
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

    The block-sum form needs no prime orders and no 2-adic rule; n is factored
    only to name a non-member's witness, the least prime that g holds fewer of.
    """
    _check_pair(b, n)
    k = _checked_k(_order_int(b, n), d)
    c = pow(b, k, n)
    # c**d - 1 = (c - 1) * sum, so reducing mod n*(c - 1) leaves the sum mod n
    g = gcd(d if c == 1 else (pow(c, d, n * (c - 1)) - 1) // (c - 1), n)
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
# coset structure of the powers of b

@dataclass(frozen=True)
class CosetDecomposition:
    """The cyclic group <b**k2> mod n written as c translates of <b**k1>."""

    modulus: int
    base: int
    k1: int
    k2: int
    c: int
    cosets: tuple[tuple[int, ...], ...]

    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for coset in self.cosets:
            out.update(coset)
        return frozenset(out)


def coset_decompose(n: int, b: int, k1: int, k2: int) -> CosetDecomposition:
    """Translates b**(r*k2) * <b**k1> for r = 0..c-1, whose union is <b**k2>.

    Requires both k1 and k2 to divide the period length e, with e//k1 dividing
    e//k2 (equivalently k2 | k1).  Cosets are kept as sequences, so repeated
    residues inside one translate stay visible.
    """
    _check_pair(b, n)
    e = _order_int(b, n)
    if k1 < 1 or k2 < 1 or e % k1 or e % k2:
        raise MidyError(f"k1 and k2 must divide the period length {e}, got {k1}, {k2}")
    d1, d2 = e // k1, e // k2
    if d2 % d1:
        raise MidyError(f"{d1} must divide {d2} for a coset decomposition")
    c = d2 // d1
    step = pow(b, k1, n)
    subgroup = []
    cur = 1
    for _ in range(d1):
        subgroup.append(cur)
        cur = cur * step % n
    cosets = []
    for r in range(c):
        t = pow(b, r * k2, n)
        cosets.append(tuple(t * s % n for s in subgroup))
    return CosetDecomposition(
        modulus=n, base=b, k1=k1, k2=k2, c=c, cosets=tuple(cosets)
    )


# ---------------------------------------------------------------------------
# prime powers

def prime_power_set(b: int, p: int, n: int) -> MidySet:
    """Midy set of p**n assembled from the set of p plus order lifting.

    The set of a prime is every divisor >= 2 of its period length; past the
    lifting level m each extra power of p scales a copy of that set by p.
    """
    _check_odd_prime(b, p, n)
    o, m, order = _lifted(b, p, n)
    base_members = [d for d in divisors(o) if d >= 2]
    copies = range(max(0, n - m) + 1)  # one copy, scaled by p**i, per power past m
    members = tuple(sorted({p**i * d for i in copies for d in base_members}))
    return MidySet(modulus=p**n, base=b, order=order, members=members)


@dataclass(frozen=True)
class CardinalityReport:
    """Closed-form size of a prime-power Midy set next to the enumerated truth."""

    closed_form: int
    actual: int
    disjoint: bool


def cardinality_report(b: int, p: int, n: int) -> CardinalityReport:
    """Closed-form count with a runtime check that the scaled copies are disjoint."""
    actual = len(prime_power_set(b, p, n).members)  # checks b, p and n once
    o, m, _ = _lifted(b, p, n)
    base_count = sum(1 for d in divisors(o) if d >= 2)
    closed = base_count if n <= m else (n - m + 1) * base_count
    return CardinalityReport(closed_form=closed, actual=actual, disjoint=closed == actual)


# ---------------------------------------------------------------------------
# products and restriction

@dataclass(frozen=True)
class RestrictionReport:
    """Members of the larger modulus restricted to a divisor of it."""

    n1: int
    n2: int
    base: int
    candidates: tuple[int, ...]
    violations: tuple[int, ...]

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
