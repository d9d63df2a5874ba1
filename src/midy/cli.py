"""Command-line front end.

Every command prints either human-readable text or, with --json, a single
structured document {command, inputs, result, oracle_checked, elapsed_ms}
carrying the same values.  Exit codes: 0 success, 1 domain error or failed
verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from time import perf_counter

from . import analyzer, constructor, period, verify
from .ntcore import MidyError, multiplicative_order

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


def render_digits(digits, base: int) -> str:
    """Alphanumeric digit string for base <= 36, dot-separated values beyond."""
    if base <= 36:
        return "".join(_ALPHABET[a] for a in digits)
    return ".".join(str(a) for a in digits)


def _format_set(members) -> str:
    return "{" + ", ".join(str(d) for d in members) + "}"


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs, result, text_lines, oracle_checked)

def _inputs(args) -> dict:
    """The parsed arguments a command ran with, in the order the parser declares them."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "handler", "json")}


def _cmd_order(args):
    order = multiplicative_order(args.base, args.n)
    return _inputs(args), order, [str(order)], False


def _cmd_period(args):
    # checks the pair and refuses e above the bound before any digit step
    period._period_length(args.n, args.base, constructor._ORACLE_BOUND)
    expansion = period.expand(args.x, args.n, args.base)
    rendered = render_digits(expansion.digits, args.base)
    result = {
        "digits": rendered,
        "period_length": expansion.period_length,
    }
    lines = [f"0.({rendered})"]
    if args.blocks is not None:
        dec = period.blocks(expansion, args.blocks)
        digits, k = expansion.digits, dec.k
        shown = [render_digits(digits[i : i + k], args.base) for i in range(0, len(digits), k)]
        result["blocks"] = shown
        result["block_sum"] = dec.block_sum
        lines.append(f"{' '.join(shown)}, sum {dec.block_sum}")
    return _inputs(args), result, lines, False


def _check_bound(value: int, name: str, cost: str) -> None:
    """Refuse a walk whose step count grows with value above shrink's re-check bound."""
    if value > constructor._ORACLE_BOUND:
        raise MidyError(
            f"{cost}; {name} = {value} is above its bound {constructor._ORACLE_BOUND}"
        )


def _check_oracle_bound(args) -> None:
    if args.oracle:
        _check_bound(args.n, "n", "--oracle takes about phi(n) digit steps")


def _cmd_set(args):
    _check_oracle_bound(args)
    ms = analyzer.midy_set(args.n, args.base)
    result = {"order": ms.order, "members": list(ms.members)}
    lines = [
        f"order {ms.order}",
        f"midy set of {args.n} to base {args.base}: {_format_set(ms.members)}",
    ]
    if args.multipliers:
        cost = "--multipliers takes d steps per member d"
        _check_bound(sum(ms.members), "the members' sum", cost)
        multipliers = {d: analyzer.multiplier(args.n, args.base, d) for d in ms.members}
        result["multipliers"] = {str(d): m for d, m in multipliers.items()}
        for d, m in multipliers.items():
            lines.append(f"  d={d}: multiplier {m}")
    oracle_checked = False
    if args.oracle:
        period.oracle_confirm(args.n, args.base, ms.members)
        oracle_checked = True
        lines.append("oracle check: ok")
    return _inputs(args), result, lines, oracle_checked


def _cmd_check(args):
    _check_oracle_bound(args)
    verdict = analyzer.check_midy(args.n, args.base, args.d)
    result = {"member": verdict.member, "k": verdict.k}
    lines = [f"d={args.d}: {'member' if verdict.member else 'not a member'} (k={verdict.k})"]
    if verdict.certificate is not None:
        cert = verdict.certificate
        result["certificate"] = cert._asdict()
        lines.append(
            f"witness prime {cert.prime}: nu(modulus)={cert.nu_modulus} "
            f"> nu(d)={cert.nu_d} + slack {cert.two_adic_slack}"
        )
    oracle_checked = False
    if args.oracle:
        period.oracle_confirm(args.n, args.base, [args.d] if verdict.member else [], [args.d])
        oracle_checked = True
        lines.append("oracle check: ok")
    return _inputs(args), result, lines, oracle_checked


def _cmd_shrink(args):
    result_obj = constructor.shrink(args.n, args.base, oracle_bound=args.oracle_bound)
    result = {
        "z": result_obj.z,
        "shrunk_modulus": result_obj.shrunk_modulus,
        "final_members": list(result_obj.final_set.members),
        "order": result_obj.final_set.order,
        "steps": [s._asdict() for s in result_obj.steps],
    }
    lines = [
        f"z = {result_obj.z}",
        f"shrunk modulus {result_obj.shrunk_modulus}, "
        f"midy set {_format_set(result_obj.final_set.members)}",
    ]
    for s in result_obj.steps:
        aux = f", p={s.p}" if s.p is not None else ""
        lines.append(f"  q={s.q}: branch {s.branch}{aux}, z_i={s.z}")
    if args.minimal:
        smallest = constructor.minimal_shrink_multiplier(result_obj, cap=args.minimal_cap)
        result["minimal_z"] = smallest
        lines.append(f"minimal z (brute force up to the constructed one): {smallest}")
    return _inputs(args), result, lines, result_obj.oracle_checked


def _cmd_vanish(args):
    threshold = constructor.vanish_threshold(args.n, args.base, args.p)
    return _inputs(args), threshold, [str(threshold)], False


def _cmd_zsig(args):
    p = constructor.primitive_prime(
        args.base, args.n, limit=args.limit, method=args.method
    )
    result = {"exceptional": p is None, "prime": p}
    lines = ["exceptional pair" if p is None else str(p)]
    return _inputs(args), result, lines, False


_BOUND_FLAGS = ("base", "max_n", "max_p", "max_exp", "max_product", "max_base", "max_order")
_MAX_N_HELP = "modulus bound; the exponent bound for prime-power and order-lift"


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_verify(args):
    import inspect  # the one command that reads signatures; the others skip the import

    suite = verify.SUITES[args.suite]
    # pass the bound flags given; the suite's own defaults fill the rest
    params = inspect.signature(suite).parameters
    kwargs = {}
    for name in _BOUND_FLAGS:
        value = getattr(args, name)
        if value is None:
            continue
        if name == "max_n" and "max_exp" in params:
            name = "max_exp"  # --max-n doubles as the exponent bound
        if name not in params:
            args.usage_error(f"{_flag(name)} does not apply to suite {args.suite}")
        kwargs.setdefault(name, value)  # --max-n, met first, wins over --max-exp
    if args.out:  # probe the path first, so an unwritable one costs no sweep
        existed = os.path.exists(args.out)
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            args.usage_error(f"cannot write --out {args.out}: {exc.strerror}")
        if not existed:  # a sweep that fails leaves no empty report behind
            os.remove(args.out)
    report = suite(**kwargs)
    payload = report.to_payload()
    if args.out:
        import json  # as in main: only JSON output needs it

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    lines = [report.summary()]
    inputs = {"suite": args.suite, **report.params}
    oracle_checked = args.suite in ("oracle-equivalence", "mode-equivalence")
    return inputs, payload, lines, oracle_checked


# ---------------------------------------------------------------------------
# parser

def _command(subs, name: str, handler, help: str):
    """A subcommand on modulus n to a --base; the caller adds the rest."""
    p = subs.add_parser(name, help=help)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("n", type=int)
    p.set_defaults(handler=handler)
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="midy",
        description="Block-sum divisibility (Midy) sets of repeating base-b expansions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "order", _cmd_order, "multiplicative order of the base modulo n")

    p = _command(subs, "period", _cmd_period, "periodic digits of x/n, optionally in blocks")
    p.add_argument("--x", type=int, default=1, help="numerator (default 1)")
    p.add_argument("--blocks", type=int, default=None, metavar="D",
                   help="also split the period into D blocks and sum them")

    p = _command(subs, "set", _cmd_set, "the full Midy set of n to the base")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every divisor against the digit oracle")
    p.add_argument("--multipliers", action="store_true",
                   help="also print the block-sum multiplier of every member")

    p = _command(subs, "check", _cmd_check, "membership of one block count d, with certificate")
    p.add_argument("d", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the digit oracle")

    p = _command(subs, "shrink", _cmd_shrink, "multiplier z collapsing the Midy set of z*n")
    p.add_argument("--oracle-bound", type=int, default=constructor._ORACLE_BOUND,
                   help="re-check with the digit oracle while z*n stays below this")
    p.add_argument("--minimal", action="store_true",
                   help="also brute-force the smallest z below the constructed one")
    p.add_argument("--minimal-cap", type=int, default=constructor._MINIMAL_CAP,
                   help="refuse the brute-force sweep beyond this constructed z")

    p = _command(subs, "vanish", _cmd_vanish,
                 "largest t with a nonempty set for p**t * n, 0 when there is none")
    p.add_argument("p", type=int)

    p = _command(subs, "zsig", _cmd_zsig, "smallest prime whose order of the base is n")
    p.add_argument("--limit", type=int, default=constructor._SCAN_LIMIT)
    p.add_argument("--method", choices=("auto", "scan", "cyclotomic"), default="auto")

    p = subs.add_parser("verify", help="run a property sweep and report pass/fail")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    # each flag defaults to the suite's own keyword default; a flag the chosen
    # suite does not take is a usage error
    for name in _BOUND_FLAGS:
        p.add_argument(_flag(name), type=int, help=_MAX_N_HELP if name == "max_n" else None)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the full JSON report to PATH")
    p.set_defaults(handler=_cmd_verify, usage_error=p.error)

    for p in subs.choices.values():
        p.add_argument("--json", action="store_true", help="emit one JSON document")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = perf_counter()
    try:
        inputs, result, lines, oracle_checked = args.handler(args)
    except MidyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (perf_counter() - t0) * 1000.0
    if args.json:
        import json  # bound here, so a command without --json skips the import

        doc = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "oracle_checked": oracle_checked,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)
    if args.command == "verify" and not result["passed"]:
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
