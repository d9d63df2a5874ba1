"""The literal digit reference and the small helpers that several test modules share."""

import json
import sys
from functools import lru_cache
from math import gcd

from midy.cli import main
from midy.period import blocks, expand

DIGITS_1_49 = "020408163265306122448979591836734693877551"


@lru_cache(maxsize=1 << 10)  # every (n, b) the three tests that use it ask for
def literal_set(n, b):
    """(e, members) of M_b(n) off the digits alone: each unit numerator is expanded once,
    e is read off them, and d | e is kept when every d-block sum is 0 mod b**(e // d) - 1."""
    periods = [expand(x, n, b) for x in range(1, n) if gcd(x, n) == 1]
    e = len(periods[0].digits)
    return e, tuple(
        d
        for d in range(2, e + 1)
        if e % d == 0 and all(blocks(p, d).block_sum % (b ** (e // d) - 1) == 0 for p in periods)
    )


def rotation_multipliers(p, d):
    """S_t/(b**k - 1) for the d-block sums S_t of the first k rotations of the period p,
    or None when the literal S_0 is no multiple: stepped by m_{t+1} = b*m_t - T_t, with T
    the k column sums of the blocks."""
    b, e = p.base, len(p.digits)
    k = e // d
    m, rem = divmod(blocks(p, d).block_sum, b**k - 1)
    if rem:
        return None
    out = []
    for j in range(k):
        out.append(m)
        m = b * m - sum(p.digits[j::k])
    return out


def block_power_sum(x, d, mod):
    # sum_{i<d} x**i mod mod for x >= 1: x**d - 1 = (x - 1) * sum, so x**d
    # reduced mod mod * (x - 1) leaves the sum mod mod
    if x == 1:
        return d % mod
    return (pow(x, d, mod * (x - 1)) - 1) // (x - 1) % mod


def rebind_everywhere(monkeypatch, func, replacement):
    # every module-level name bound to func, so no alias reaches it
    bound = 0
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "midy":
            for name, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, name, replacement)
                    bound += 1
    assert bound, func


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc
