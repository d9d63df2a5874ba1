"""Constructive side: primitive-prime search, shrink factors, vanishing thresholds.

``shrink`` multiplies a modulus n by one factor per prime q of the period
length e so that every member of the resulting Midy set has the full q-part of
e; once all primes are pinned, the set is the singleton {e}.  Every step is
re-verified on the grown modulus before it is trusted.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress
from math import gcd, prod

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
    and walks the odd candidates p = 1 (mod n) up to ``limit``, past a first
    period skipping those that 3, 5, 7 or 11 divides; the first that divides
    the value is prime.  ``cyclotomic`` factors the value and keeps its primes
    not dividing n.  ``auto`` scans a short prefix, factors a small value, and
    resumes the scan above the prefix up to ``limit``.  A prime value is the
    only prime of order n (2**127 - 1 for b = 2, n = 127), so ``auto``
    returns it, testing one of up to 1,024 bits before the long scan and one
    of up to 4,096 bits after it fails.  A scan that ends with no prime raises.
    """
    _check_base(b)
    if n < 2:
        raise MidyError(f"target order must be >= 2, got {n}")
    if method not in ("auto", "scan", "cyclotomic"):
        raise MidyError(f"unknown search method {method!r}")
    if limit < 0:  # 0 is valid: no scan
        raise MidyError(f"scan limit must be >= 0, got {limit}")
    if (n == 2 and _is_power_of_two(b + 1)) or (n, b) == (6, 2):
        return None
    value = _cyclotomic_value(n, b)
    if method == "cyclotomic":
        return _primitive_cyclotomic(b, n, value)
    short = limit if method == "scan" else min(limit, 100_000)
    p = _primitive_scan(n, value, 0, short)
    if p is None and method == "auto":
        if value.bit_length() <= 80:
            return _primitive_cyclotomic(b, n, value)
        # past the exceptional pairs a prime value has order n (Zsigmondy); a test
        # of over 1,024 bits outlasts the scan, and one of over 4,096 is not run
        bits = value.bit_length()
        if bits <= 1024 and is_prime(value):
            return value
        p = _primitive_scan(n, value, short, limit)
        if p is None and bits > 4096:
            raise MidyError(
                f"no prime of order {n} for base {b} below {limit}, and the cyclotomic "
                f"value's {bits} bits are above the primality test's bound of 4096 bits"
            )
        if p is None and bits > 1024 and is_prime(value):
            return value
    if p is None:
        raise MidyError(f"no prime of order {n} for base {b} below {limit}; raise the limit")
    return p


@lru_cache(maxsize=1 << 12)
def _shrink_prime(b: int, q: int) -> int | None:
    # shrink's prime search once per (b, q), a None kept too; a failed one raises again
    return primitive_prime(b, q)


def _primitive_scan(n: int, value: int, start: int, limit: int) -> int | None:
    # a prime of order n is 1 (mod n) and odd (2 has order 1 or divides b), so
    # the candidates are p = 1 (mod step) in (start, limit].  If none up to start
    # divides value, the first that does is prime: a prime s of it divides value
    # but not n (p = 1 mod each prime of n), so s has order n, a candidate <= p.
    # So a composite candidate is never the first.  Past the wheel's first
    # period, walked plainly and reaching beyond 11**2, a candidate that 3, 5,
    # 7 or 11 divides is composite and skipped (one dividing step divides none)
    step = n if n % 2 == 0 else 2 * n
    lo = max(start, 1)  # 1 is no candidate
    first = lo + 1 + (-lo) % step
    wheel = [r for r in (3, 5, 7, 11) if step % r]
    period = step * prod(wheel)
    for p in range(first, min(limit + 1, first + period), step):
        if value % p == 0:
            return p
    if first + period > limit:  # the scan ends inside the plain period
        return None
    mask = bytearray([1]) * (period // step)  # built only once a scan gets here
    for r in wheel:  # the k with first + k*step = 0 (mod r)
        k = -first * pow(step, -1, r) % r
        mask[k::r] = bytes(len(mask[k::r]))
    offsets = list(compress(range(0, period, step), mask))  # ascending
    for base in range(first + period, limit + 1, period):
        for off in offsets:
            if value % (base + off) == 0:
                return base + off if base + off <= limit else None
    return None


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

class ShrinkStep(namedtuple("ShrinkStep", "q branch p c s m z")):
    """One per-prime multiplier pinning nu_q of every surviving member to nu_q(e).

    p is the auxiliary prime of order q (None on the q = 2 exceptional
    branches, where 2 stands in); c = nu_p(n), s = nu_p(e), m the lifting
    level of (b, p).  z is the least power of p whose own box drops e // q;
    the branch only labels the case c, s and the cofactor's order fall in.
    """

    __slots__ = ()


class ShrinkResult(namedtuple("ShrinkResult", "modulus base steps z final_set oracle_checked")):
    """The multiplier z built from one ShrinkStep per prime of the period length.

    ``oracle_checked`` tells whether the digit oracle re-checked ``final_set``.
    """

    __slots__ = ()

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
    again; on the exceptional pair 2 stands in for it.  Either way p divides
    b**q - 1, and z = p**t is the least power that lifts nu_p of the modulus
    above ``_quotient_valuation``'s count for d = e // q, the rule by which
    ``_members`` lets p's box drop e // q.
    """
    try:
        aux = _shrink_prime(b, q)
    except MidyError:  # the scan reached its limit: shrink has no limit to raise
        raise MidyError(
            f"no prime of order {q} for base {b} below {_SCAN_LIMIT}, shrink's search bound"
        ) from None
    p = 2 if aux is None else aux  # primitive_prime's exceptional pair: q = 2
    c, s = _nu_int(p, n), _nu_int(p, e)
    if aux is None:
        branch = BRANCH_Q2_C_EQ_S if c == s else BRANCH_Q2_S_GT_C if s > c else BRANCH_Q2_C_GT_S
    elif c == 0:
        branch = BRANCH_P_NOT_DIVIDING
    elif c >= s + 1:
        branch = BRANCH_C_GE_S_PLUS_1
    elif _descend(b, n // p**c, e, e_pairs)[0] % q == 0:  # q divides the cofactor's order
        branch = BRANCH_C_LT_Q_DIVIDES
    else:
        branch = BRANCH_C_LT_Q_NOT_DIVIDES
    t = max(0, _quotient_valuation(p, b, q, e // q) + 1 - c)
    z = p**t
    if t:
        grown = dict(pairs)
        grown[p] = grown.get(p, 0) + t
        pairs = tuple(sorted(grown.items()))
    m = None if aux is None else _lifting_level(b, p, q)
    step = ShrinkStep(q=q, branch=branch, p=aux, c=c, s=s, m=m, z=z)
    return step, pairs, _verify_step(z * n, pairs, b, q, e, e_pairs)


def _known_top(m: int, pairs, b: int, e: int, e_pairs) -> list[int] | None:
    """``_top`` of m, given its factor pairs, when its period length is e, else None.

    Prime orders come by descent from e, not from p - 1: this carries primes,
    such as the repunit R_1031, whose p - 1 is out of reach.
    """
    if pow(b, e, m) != 1 or _descend(b, m, e, e_pairs)[0] != e:
        return None
    return _top([(p, a, _descend(b, p, e, e_pairs)[0]) for p, a in pairs], b, e, e_pairs)


def _verify_step(zn: int, pairs, b: int, q: int, e: int, e_pairs) -> list[int]:
    """Re-check a step on zn, period e, e a member, e // q not, and return its ``_top``."""
    if prod(p**a for p, a in pairs) != zn:
        raise MidyError(f"shrink step for q={q} lost the factors of {zn}; construction bug")
    top = _known_top(zn, pairs, b, e, e_pairs)
    if top is None:
        raise MidyError(f"shrink step for q={q} changed the period length; construction bug")
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
    phi(z*n) long-division steps, one digit per unit numerator, plus for
    each divisor d not yet refuted about phi(z*n) digit additions for the
    column sums and one big-int test per orbit of e numerators.  A set that is already the singleton
    returns z = 1 untouched, with no re-check.
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
    e and its pairs come from one pass over n.  A multiple of n has period
    length e exactly when b**e = 1 modulo it; only then is it factored, and
    ``_known_top`` decides, as in shrink's re-check, whether its set is {e}.
    """
    n, b = built.modulus, built.base
    if built.z > cap:
        raise MidyError(f"constructed multiplier {built.z} exceeds the sweep cap {cap}")
    e, e_pairs, _ = _prime_power_orders(b, n)
    for cand in range(1, built.z):
        m = cand * n
        if gcd(cand, b) == 1 and pow(b, e, m) == 1:
            if _known_top(m, _factor_pairs(m), b, e, e_pairs) == [e]:
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
