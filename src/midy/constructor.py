"""Constructive side: primitive-prime search, shrink factors, vanishing thresholds.

``shrink`` multiplies a modulus n by one factor per prime q of the period
length e so that every member of the resulting Midy set has the full q-part of
e; once all primes are pinned, the set is the singleton {e}.  Every step is
re-verified on the grown modulus before it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .analyzer import MidySet, _members, _quotient_valuation
from .ntcore import (
    MidyError,
    _check_base,
    _check_pair,
    _descend,
    _factor_pairs,
    _lifting_level,
    _nu_int,
    _prime_power_orders,
    is_prime,
)
from .period import oracle_confirm

BRANCH_P_NOT_DIVIDING = "p-not-dividing-N"
BRANCH_C_GE_S_PLUS_1 = "c-ge-s-plus-1"
BRANCH_C_LT_Q_DIVIDES = "c-lt-s-plus-1-q-divides-orderM"
BRANCH_C_LT_Q_NOT_DIVIDES = "c-lt-s-plus-1-q-not-divides-orderM"
BRANCH_Q2_C_EQ_S = "q2-c-eq-s"
BRANCH_Q2_S_GT_C = "q2-s-gt-c"
# Reachable for b = 2**g - 1 with g >= 2 even though the classical case split
# stops at c <= s: the 2-adic slack lets nu_2(n) exceed nu_2(e), and then every
# member is already pinned, so z = 1.
BRANCH_Q2_C_GT_S = "q2-c-gt-s"
_SCAN_LIMIT = 10_000_000  # primitive_prime's default scan limit, the one shrink uses
_ORACLE_BOUND = 1_000_000  # shrink's default bound on z*n for the digit-oracle re-check
_MINIMAL_CAP = 200_000  # minimal_shrink_multiplier's default cap on the constructed z


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def primitive_prime(
    b: int, n: int, *, limit: int = _SCAN_LIMIT, method: str = "auto"
) -> int | None:
    """Smallest prime p whose order of b is exactly n, or None when none exists.

    The exceptional pairs are n = 2 with b+1 a power of two, and (n, b) = (6, 2);
    everywhere else a prime exists, though with no usable bound on its size.
    The primes of order n are exactly the primes of the n-th cyclotomic value
    at b that do not divide n (Zsigmondy).  ``scan`` computes that value once
    and walks the odd candidates p = 1 (mod n) up to ``limit``, proving
    primality only for the rare p that divide the value, and errors when
    exhausted; ``cyclotomic`` factors the value and keeps its primes not
    dividing n, exact but as costly as that factorization.  ``auto`` scans a
    short prefix, takes the cyclotomic route while the value is small, returns
    the value itself when it is prime (then it is the only prime of order n:
    e.g. 2**127 - 1 for base 2 and n = 127 sits beyond any reasonable scan),
    and otherwise finishes the scan to ``limit`` before giving up.
    """
    _check_base(b)
    if n < 2:
        raise MidyError(f"target order must be >= 2, got {n}")
    if n == 2 and _is_power_of_two(b + 1):
        return None
    if (n, b) == (6, 2):
        return None
    if method not in ("auto", "scan", "cyclotomic"):
        raise MidyError(f"unknown search method {method!r}")
    value = _cyclotomic_value(n, b)
    if method == "scan":
        return _primitive_scan(b, n, limit, value)
    if method == "cyclotomic":
        return _primitive_cyclotomic(b, n, value)
    short = min(limit, 100_000)
    try:
        return _primitive_scan(b, n, short, value)
    except MidyError:
        if value.bit_length() <= 80:
            return _primitive_cyclotomic(b, n, value)
        if n % value and is_prime(value):
            # a prime factor of the cyclotomic value that does not divide
            # n has order exactly n, and every prime of order n divides it
            return value
        if limit > short:
            return _primitive_scan(b, n, limit, value)
        raise


@lru_cache(maxsize=1 << 12)
def _shrink_prime(b: int, q: int) -> int | None:
    # shrink's prime search once per (b, q), a None kept too; a failed one raises again
    return primitive_prime(b, q)


def _primitive_scan(b: int, n: int, limit: int, value: int) -> int:
    # any p with ord_p(b) = n satisfies p = 1 (mod n), so p does not divide n
    # and divides the cyclotomic value exactly when its order is n; 2 has order
    # 1 for odd b, so only odd candidates are walked
    step = n if n % 2 == 0 else 2 * n
    for p in range(step + 1, limit + 1, step):
        if value % p == 0 and is_prime(p):
            return p
    raise MidyError(f"no prime of order {n} for base {b} below {limit}; raise the limit")


def _cyclotomic_value(n: int, b: int) -> int:
    # prod of (b**d - 1)**mu(n // d) over d | n; mu vanishes unless n // d is
    # squarefree, so d runs over n divided by each product of n's distinct primes
    terms = [(n, 1)]
    for p, _ in _factor_pairs(n):
        terms += [(d // p, -mu) for d, mu in terms]
    num = den = 1
    for d, mu in terms:
        if mu == 1:
            num *= b**d - 1
        else:
            den *= b**d - 1
    value, rem = divmod(num, den)
    if rem:  # unreachable: the product telescopes exactly
        raise MidyError("cyclotomic product failed to divide")
    return value


def _primitive_cyclotomic(b: int, n: int, value: int) -> int:
    for p, _ in _factor_pairs(value):  # ascending
        if n % p:
            return p
    raise MidyError(f"no prime of order {n} divides the cyclotomic value at {b}")


# ---------------------------------------------------------------------------
# shrink

@dataclass(frozen=True)
class ShrinkStep:
    """One per-prime multiplier pinning nu_q of every surviving member to nu_q(e).

    p is the auxiliary prime of order q (absent on the q = 2 exceptional
    branches); c = nu_p(n), s = nu_p(e), m the lifting level of (b, p).
    """

    q: int
    branch: str
    p: int | None
    c: int
    s: int
    m: int | None
    z: int


@dataclass(frozen=True)
class ShrinkResult:
    modulus: int
    base: int
    steps: tuple[ShrinkStep, ...]
    z: int
    final_set: MidySet
    oracle_checked: bool  # whether the digit oracle re-checked final_set

    @property
    def shrunk_modulus(self) -> int:
        return self.z * self.modulus


def _top(orders, b: int, e: int, e_pairs) -> list[int]:
    """The members among e and its maximal divisors e // q >= 2, e first.

    The set is upward closed among the divisors of e: it is empty when e is
    missing here, pinned at q when e // q is, and {e} when this is [e].
    """
    return _members(orders, b, e, [d for d in (e, *(e // q for q, _ in e_pairs)) if d >= 2])


def shrink_step(n: int, b: int, q: int) -> ShrinkStep:
    """Multiplier z for one prime q of the period length e.

    After passing to z*n the period keeps its length, the Midy set stays
    nonempty, and every member d has nu_q(d) = nu_q(e).  The set is upward
    closed, so these say: e is a member and e // q is not.  All three are
    re-verified on z*n before the step is returned.
    """
    _check_pair(b, n)
    if not is_prime(q):
        raise MidyError(f"{q} is not prime")
    e, e_pairs, orders = _prime_power_orders(b, n)
    if e % q:
        raise MidyError(f"{q} does not divide the period length {e}")
    if not _members(orders, b, e, [e]):
        raise MidyError(f"the Midy set of {n} to base {b} is empty; nothing to pin")
    return _step(n, _factor_pairs(n), b, q, e, e_pairs)[0]


def _step(n: int, pairs, b: int, q: int, e: int, e_pairs) -> tuple[ShrinkStep, tuple, list[int]]:
    """shrink_step on a modulus whose factor pairs are known, with z*n's pairs and ``_top``.

    e is the period length of n and e_pairs its factor pairs.  The auxiliary
    prime p has order q by construction, which gives its lifting level and
    puts it into the pairs of z*n without factoring p - 1 or proving p prime
    again.
    """
    try:
        p = _shrink_prime(b, q)
    except MidyError:  # the scan reached its limit: shrink has no limit to raise
        raise MidyError(
            f"no prime of order {q} for base {b} below {_SCAN_LIMIT}, shrink's search bound"
        ) from None
    if p is not None:
        c = _nu_int(p, n)
        s = _nu_int(p, e)
        m = _lifting_level(b, p, q)
        if c == 0:
            branch, z = BRANCH_P_NOT_DIVIDING, p ** (s + 1)
        elif c >= s + 1:
            branch, z = BRANCH_C_GE_S_PLUS_1, 1
        else:
            # the cofactor divides n, so its order divides e
            if _descend(b, n // p**c, e, e_pairs) % q == 0:
                branch = BRANCH_C_LT_Q_DIVIDES
            else:
                branch = BRANCH_C_LT_Q_NOT_DIVIDES
            z = p ** (s - c + 1)
        step = ShrinkStep(q=q, branch=branch, p=p, c=c, s=s, m=m, z=z)
    else:  # primitive_prime's exceptional pair: q = 2, and no prime has order 2
        p = 2
        c = _nu_int(2, n)
        s = _nu_int(2, e)
        if c == s:
            branch, z = BRANCH_Q2_C_EQ_S, 1
        elif s > c:
            branch, z = BRANCH_Q2_S_GT_C, 2 ** (s - c)
        else:
            branch, z = BRANCH_Q2_C_GT_S, 1
        step = ShrinkStep(q=q, branch=branch, p=None, c=c, s=s, m=None, z=z)

    if z > 1:
        grown = dict(pairs)
        grown[p] = grown.get(p, 0) + _nu_int(p, z)
        pairs = tuple(sorted(grown.items()))
    return step, pairs, _verify_step(z * n, pairs, b, q, e, e_pairs)


def _verify_step(zn: int, pairs, b: int, q: int, e: int, e_pairs) -> list[int]:
    """Re-check a step on zn, period e, e a member, e // q not, and return its ``_top``.

    Only here do prime orders come by descent from e, not from p - 1: the re-check
    carries primes, such as the repunit R_1031, whose p - 1 is out of reach.
    """
    if pow(b, e, zn) != 1 or _descend(b, zn, e, e_pairs) != e:
        raise MidyError(f"shrink step for q={q} changed the period length; construction bug")
    top = _top([(p, a, _descend(b, p, e, e_pairs)) for p, a in pairs], b, e, e_pairs)
    if e not in top:
        raise MidyError(f"shrink step for q={q} emptied the Midy set; construction bug")
    if e // q in top:
        raise MidyError(f"shrink step for q={q} left member {e // q} unpinned; construction bug")
    return top


def shrink(n: int, b: int, *, oracle_bound: int = _ORACLE_BOUND) -> ShrinkResult:
    """Multiplier z for which the Midy set of z*n collapses to {period length}.

    Runs one shrink step per prime of the period length, feeding the grown
    modulus forward together with its factorization, which each step extends
    by its own prime, so no step factors the grown modulus again.  The set is
    upward closed, so ``_top`` reads off e and each e // q whether it is empty
    or {e}, for n and then z*n, listing no divisor of e.  When z*n stays within
    oracle_bound the singleton is re-checked against the digit oracle: about
    phi(z*n) long-division steps, one digit per unit numerator, plus one
    block-sum update per numerator for each divisor not yet refuted.  A set
    that is already the singleton returns z = 1 untouched, with no re-check.
    """
    _check_pair(b, n)
    e, e_pairs, orders = _prime_power_orders(b, n)
    top = _top(orders, b, e, e_pairs)
    if e not in top:
        raise MidyError(
            f"the Midy set of {n} to base {b} is empty; no multiplier can collapse it"
        )
    if top == [e]:
        return ShrinkResult(
            modulus=n, base=b, steps=(), z=1, final_set=MidySet(n, b, e, (e,)),
            oracle_checked=False,
        )
    pairs = _factor_pairs(n)
    steps = []
    current = n
    for q, _ in e_pairs:
        step, pairs, top = _step(current, pairs, b, q, e, e_pairs)
        steps.append(step)
        current *= step.z
    if top != [e]:
        raise MidyError("shrink did not collapse the set to the singleton; construction bug")
    final = MidySet(current, b, e, (e,))
    oracle_checked = current <= oracle_bound
    if oracle_checked:
        oracle_confirm(current, b, final.members)
    return ShrinkResult(
        modulus=n, base=b, steps=tuple(steps), z=current // n, final_set=final,
        oracle_checked=oracle_checked,
    )


def minimal_shrink_multiplier(built: ShrinkResult, *, cap: int = _MINIMAL_CAP) -> int:
    """Brute-force the smallest z collapsing the set, bounded by the one ``shrink`` built.

    The construction makes no minimality promise; this sweep is for small
    inputs only and refuses to run when the constructed z exceeds ``cap``.
    Each candidate's orders come from one uncached pass over its prime powers,
    and when its period length is e, ``_top`` decides whether its set is {e}.
    """
    n, b = built.modulus, built.base
    e = built.final_set.order
    if built.z > cap:
        raise MidyError(f"constructed multiplier {built.z} exceeds the sweep cap {cap}")
    for cand in range(1, built.z):
        if gcd(cand, b) != 1:
            continue
        order, e_pairs, orders = _prime_power_orders(b, cand * n)
        if order == e and _top(orders, b, e, e_pairs) == [e]:
            return cand
    return built.z


# ---------------------------------------------------------------------------
# vanishing for primes of b - 1

def vanish_threshold(n: int, b: int, p: int) -> int:
    """Largest t with a nonempty Midy set for p**t * n, 0 when there is none.

    A Midy set is upward closed with top element its period length, so it is
    empty exactly when that length is not a member, which ``_members`` decides
    prime by prime.  Write the modulus as p**u * core, core p-free, with e the
    period length of core and s = max(nu_p(e), 1 if p = 2 and b = 3 (mod 4)
    else 0).  As p divides b - 1, p lets the period length in at
    u = top = _quotient_valuation(p, b, 1, p**s), where its p-part is p**s, and
    keeps it out for every u > top.  The primes of core let it in exactly when
    they let e in, whatever u is.  So T = top - nu_p(n), clamped at zero, when
    they let e in, and T = 0 otherwise.
    """
    _check_base(b)
    if not is_prime(p):
        raise MidyError(f"{p} is not prime")
    if (b - 1) % p:
        raise MidyError(f"{p} does not divide base - 1 = {b - 1}")
    if n < 1:
        raise MidyError(f"modulus must be >= 1, got {n}")
    if gcd(n, b) != 1:
        raise MidyError(f"modulus {n} and base {b} are not coprime")
    a = _nu_int(p, n)
    core = n // p**a
    e, _, orders = _prime_power_orders(b, core)
    s = max(_nu_int(p, e), 1 if p == 2 and b % 4 == 3 else 0)
    top = _quotient_valuation(p, b, 1, p**s)
    return max(0, top - a) if _members(orders, b, e, [e]) else 0
