import dataclasses
import functools
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from midy import MidyError, constructor, period, shrink, verify
from midy.cli import build_parser, main, render_digits


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_order_text(capsys):
    assert main(["order", "--base", "10", "13"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_order_json_envelope(capsys):
    code, doc = run_json(capsys, ["order", "--base", "10", "1316833"])
    assert code == 0
    assert doc["command"] == "order"
    assert doc["inputs"] == {"base": 10, "n": 1316833}
    assert doc["result"] == 36
    assert doc["oracle_checked"] is False
    assert isinstance(doc["elapsed_ms"], float)


def test_order_domain_error(capsys):
    assert main(["order", "--base", "10", "20"]) == 1
    err = capsys.readouterr().err
    assert "coprime" in err


def test_parser_built_once_with_fresh_namespaces():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["verify", "coset", "--max-n", "20"])
    second = build_parser().parse_args(["verify", "coset"])
    assert first is not second
    assert (first.max_n, second.max_n) == (20, None)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["order"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_period_text(capsys):
    assert main(["period", "--base", "10", "13"]) == 0
    assert capsys.readouterr().out.strip() == "0.(076923)"
    assert main(["period", "--base", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0.(01)"


def test_period_blocks(capsys):
    code, doc = run_json(capsys, ["period", "--base", "10", "13", "--blocks", "3"])
    assert code == 0
    assert doc["result"]["digits"] == "076923"
    assert doc["result"]["blocks"] == ["07", "69", "23"]
    assert doc["result"]["block_sum"] == 99
    assert main(["period", "--base", "10", "13", "--blocks", "3"]) == 0
    assert "07 69 23, sum 99" in capsys.readouterr().out


def test_period_numerator_flag(capsys):
    code, doc = run_json(capsys, ["period", "--base", "10", "13", "--x", "2"])
    assert code == 0
    assert doc["result"]["digits"] == "153846"


def test_render_digits_large_base():
    assert render_digits((1, 35, 0), 36) == "1z0"
    assert render_digits((41, 0, 7), 50) == "41.0.7"


def test_set_command(capsys):
    code, doc = run_json(capsys, ["set", "--base", "10", "49", "--multipliers"])
    assert code == 0
    assert doc["result"]["members"] == [2, 3, 6, 14, 21, 42]
    assert doc["result"]["order"] == 42
    assert doc["result"]["multipliers"]["14"] == 7
    # the d = 14 multiplier matches the worked block sum 6993 = 7 * 999
    assert doc["result"]["multipliers"]["14"] * (10**3 - 1) == 6993


def test_set_three_prime_product(capsys):
    code, doc = run_json(capsys, ["set", "--base", "10", "1316833"])
    assert code == 0
    assert doc["result"]["members"] == [4, 9, 12, 18, 36]


def test_set_empty(capsys):
    assert main(["set", "--base", "10", "9"]) == 0
    assert "{}" in capsys.readouterr().out


def test_set_oracle_flag(capsys):
    code, doc = run_json(capsys, ["set", "--base", "10", "13", "--oracle"])
    assert code == 0
    assert doc["oracle_checked"] is True


def test_set_oracle_on_the_degenerate_modulus(capsys):
    # n = 1 has period length 1, as n = 3 does: no d to test, so the oracle agrees
    for n in ("1", "3"):
        code, doc = run_json(capsys, ["set", "--base", "10", n, "--oracle"])
        assert (code, doc["result"]["members"], doc["oracle_checked"]) == (0, [], True)
    assert main(["set", "--base", "10", "1", "--oracle"]) == 0
    assert capsys.readouterr().out.endswith("oracle check: ok\n")


def test_oracle_disagreement_names_the_disputed_d(capsys, monkeypatch):
    # an oracle that flips its verdict on d = 3 fails every confirmation
    sweep = period.oracle_midy_sweep

    def flipped(*args, **kwargs):
        verdicts = sweep(*args, **kwargs)
        verdicts[3] = not verdicts[3]
        return verdicts

    monkeypatch.setattr(period, "oracle_midy_sweep", flipped)
    for argv in (["set", "--base", "10", "13"], ["check", "--base", "10", "13", "3"]):
        assert main(argv + ["--oracle"]) == 1
        err = capsys.readouterr().err
        assert err == "error: digit oracle disagrees with the fast test on 13 base 10 at d = 3\n"
    with pytest.raises(MidyError, match=r"disagrees .* on 5291 base 10 at d = 3$"):
        shrink(13, 10)


def test_check_command(capsys):
    code, doc = run_json(capsys, ["check", "--base", "10", "49", "7"])
    assert code == 0
    assert doc["result"]["member"] is False
    assert doc["result"]["certificate"]["prime"] == 7
    assert doc["result"]["certificate"]["nu_modulus"] == 2
    assert doc["result"]["certificate"]["nu_d"] == 1

    code, doc = run_json(capsys, ["check", "--base", "10", "13", "2", "--oracle"])
    assert code == 0
    assert doc["result"]["member"] is True
    assert doc["oracle_checked"] is True


def test_check_oracle_large_modulus(capsys):
    # 100002 unit numerators in two orbits of period length 50001: one long
    # division per orbit keeps this to a fraction of a second
    code, doc = run_json(capsys, ["check", "--base", "10", "100003", "50001", "--oracle"])
    assert code == 0
    assert doc["result"]["member"] is True
    assert doc["oracle_checked"] is True


def test_shrink_command(capsys):
    code, doc = run_json(capsys, ["shrink", "--base", "10", "13"])
    assert code == 0
    assert doc["result"]["z"] == 407
    assert doc["result"]["shrunk_modulus"] == 5291
    assert doc["result"]["final_members"] == [6]
    assert doc["oracle_checked"] is True
    assert [s["q"] for s in doc["result"]["steps"]] == [2, 3]


def test_shrink_minimal_flag(capsys):
    code, doc = run_json(capsys, ["shrink", "--base", "10", "13", "--minimal"])
    assert code == 0
    assert doc["result"]["minimal_z"] == 33


def test_shrink_reports_whether_the_oracle_ran(capsys, monkeypatch):
    calls = []
    sweep = period.oracle_midy_sweep

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(period, "oracle_midy_sweep", counted)
    # M_10(5291) = {6} already: shrink returns before the re-check
    code, doc = run_json(capsys, ["shrink", "--base", "10", "5291"])
    assert (code, doc["result"]["z"]) == (0, 1)
    assert (doc["oracle_checked"], calls) == (False, [])
    code, doc = run_json(capsys, ["shrink", "--base", "10", "13"])
    assert (code, doc["result"]["z"]) == (0, 407)
    assert (doc["oracle_checked"], calls) == (True, [(5291, 10)])


def test_shrink_minimal_reuses_the_built_shrink(capsys, monkeypatch):
    # z*n = 701097 is above --oracle-bound 10: no oracle run at all, not even
    # from a second shrink with the default bound
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_midy_sweep called")

    monkeypatch.setattr(period, "oracle_midy_sweep", refuse)
    code, doc = run_json(
        capsys, ["shrink", "--base", "2", "1003", "--oracle-bound", "10", "--minimal"]
    )
    assert code == 0
    assert doc["oracle_checked"] is False
    assert doc["result"]["z"] == doc["result"]["minimal_z"] == 699


def test_vanish_command(capsys):
    assert main(["vanish", "--base", "10", "13", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_zsig_command(capsys):
    assert main(["zsig", "--base", "2", "6"]) == 0
    assert "exceptional pair" in capsys.readouterr().out
    code, doc = run_json(capsys, ["zsig", "--base", "10", "6"])
    assert code == 0
    assert doc["result"] == {"exceptional": False, "prime": 7}
    code, doc = run_json(capsys, ["zsig", "--base", "10", "6", "--method", "cyclotomic"])
    assert doc["result"]["prime"] == 7


def test_json_inputs_record_every_parsed_argument(capsys):
    # the knobs that decide the answer, such as the bound behind a false
    # oracle_checked, appear in the inputs
    code, doc = run_json(capsys, ["shrink", "--base", "2", "1003", "--oracle-bound", "10"])
    assert (code, doc["oracle_checked"]) == (0, False)
    assert doc["inputs"] == {
        "base": 2, "n": 1003, "oracle_bound": 10, "minimal": False, "minimal_cap": 200_000
    }
    code, doc = run_json(capsys, ["zsig", "--base", "10", "6", "--method", "cyclotomic"])
    assert doc["inputs"] == {"base": 10, "n": 6, "limit": 10_000_000, "method": "cyclotomic"}


def test_verify_command(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_json(
        capsys,
        ["verify", "oracle-equivalence", "--base", "10", "--max-n", "80", "--out", str(out)],
    )
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["instances"] > 0
    saved = json.loads(out.read_text())
    assert saved == doc["result"]

    assert main(["verify", "coset", "--max-n", "40"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_reports_a_failed_sweep(capsys, monkeypatch, tmp_path):
    # flip the gcd-form reference on d = 2 only: the sweep fails on some of
    # those instances and no others, exits 1, and names the first one in text and report
    def flipped(n, b, d, _inner=verify.check_midy_gcd):
        verdict = _inner(n, b, d)
        return dataclasses.replace(verdict, member=not verdict.member) if d == 2 else verdict

    monkeypatch.setattr(verify, "check_midy_gcd", flipped)
    out = tmp_path / "report.json"
    assert main(["verify", "gcd-form", "--max-n", "30", "--out", str(out)]) == 1
    saved = json.loads(out.read_text())
    assert saved["passed"] is False
    failures, k, total = saved["failures"], saved["failure_count"], saved["instances"]
    assert 0 < k == len(failures) < total
    assert all(failure["d"] == 2 for failure in failures)
    assert capsys.readouterr().out == f"FAIL ({k} of {total} instances), first: {failures[0]}\n"


def test_verify_rejects_a_base_below_2(capsys, tmp_path):
    # base 0 or 1 gives no valid instance; every suite that takes a base
    # refuses it with exit 1 and leaves no report, never PASS (0 instances)
    suites = [
        name for name, run in verify.SUITES.items() if "base" in inspect.signature(run).parameters
    ]
    assert len(suites) == 10
    for suite in suites:
        for base in ("0", "1"):
            out = tmp_path / f"{suite}-{base}.json"
            assert main(["verify", suite, "--base", base, "--out", str(out)]) == 1, (suite, base)
            assert capsys.readouterr().err == f"error: base must be >= 2, got {base}\n"
            assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["zsig", "--max-base", "1"],
        ["zsig", "--max-order", "1"],
        ["prime-power", "--max-p", "2"],
        ["coset", "--max-n", "1"],
        ["order-lift", "--max-exp", "0"],
        ["product", "--max-product", "1"],
        ["restrict", "--max-n", "1"],
    ],
)
def test_verify_refuses_a_sweep_with_no_instance(capsys, tmp_path, argv):
    # bounds that leave nothing to check are a domain error, never PASS (0 instances)
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: suite {argv[0]} ran no instance with {{")
    assert not out.exists()


def test_verify_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path):
    calls = _record_suite_calls(monkeypatch)
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "coset", "--max-n", "10", "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and str(out) in errors[0]
    assert calls == {}  # the sweep never ran


def test_parser_defaults_are_the_library_defaults():
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    parse = build_parser().parse_args
    shrink_args = parse(["shrink", "--base", "10", "7"])
    zsig_args = parse(["zsig", "--base", "10", "7"])
    assert shrink_args.oracle_bound == constructor._ORACLE_BOUND
    assert shrink_args.oracle_bound == default(constructor.shrink, "oracle_bound")
    assert shrink_args.minimal_cap == constructor._MINIMAL_CAP
    assert shrink_args.minimal_cap == default(constructor.minimal_shrink_multiplier, "cap")
    assert zsig_args.limit == constructor._SCAN_LIMIT
    assert zsig_args.limit == default(constructor.primitive_prime, "limit")


def test_verify_text_summary(capsys):
    assert main(["verify", "zsig", "--max-base", "4", "--max-order", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS (")
    assert "instances" in out


def test_verify_prime_power_max_n_means_exponent(capsys):
    code, doc = run_json(
        capsys, ["verify", "prime-power", "--base", "10", "--max-p", "20", "--max-n", "3"]
    )
    assert code == 0
    assert doc["result"]["params"]["max_exp"] == 3
    assert doc["result"]["passed"] is True


def _record_suite_calls(monkeypatch):
    calls = {}
    for name, suite in verify.SUITES.items():
        def stub(*, _name=name, **kwargs):
            calls[_name] = kwargs
            return verify.SweepReport(_name, kwargs, 0)

        monkeypatch.setitem(verify.SUITES, name, functools.wraps(suite)(stub))
    return calls


def test_verify_bounds_come_from_the_suites(capsys, monkeypatch):
    calls = _record_suite_calls(monkeypatch)
    for name in verify.SUITES:
        assert main(["verify", name]) == 0
        assert calls[name] == {}, name
        params = inspect.signature(verify.SUITES[name]).parameters
        if "max_n" in params:
            assert main(["verify", name, "--max-n", "7"]) == 0
            assert calls[name] == {"max_n": 7}, name
        elif name in ("prime-power", "order-lift"):
            assert main(["verify", name, "--max-n", "7"]) == 0
            assert calls[name] == {"max_exp": 7}, name
        else:
            with pytest.raises(SystemExit) as exc:
                main(["verify", name, "--max-n", "7"])
            assert exc.value.code == 2, name
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag, suite",
    [
        (["verify", "product", "--max-n", "5"], "--max-n", "product"),
        (["verify", "zsig", "--base", "3"], "--base", "zsig"),
    ],
)
def test_verify_rejects_a_bound_the_suite_does_not_take(capsys, monkeypatch, argv, flag, suite):
    calls = _record_suite_calls(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag} does not apply to suite {suite}" in capsys.readouterr().err
    assert calls == {}  # the sweep never ran


def test_verify_flags_are_suite_parameters():
    args = vars(build_parser().parse_args(["verify", "coset"]))
    bounds = {name for name, value in args.items() if value is None and name != "out"}
    taken = set()
    for suite in verify.SUITES.values():
        taken.update(inspect.signature(suite).parameters)
    assert bounds == {"base", "max_n", "max_p", "max_exp", "max_product", "max_base", "max_order"}
    assert bounds <= taken


def test_suite_harness_reports_bound_arguments():
    tiny = {"base": 3, "max_n": 40, "max_p": 13, "max_exp": 2, "max_product": 60,
            "max_base": 4, "max_order": 4}
    assert list(verify.SUITES) == [
        "oracle-equivalence", "mode-equivalence", "coset", "prime-power", "order-lift",
        "product", "upward-closure", "even-multiplier", "gcd-form", "zsig", "restrict",
    ]
    for name, suite in verify.SUITES.items():
        signature = inspect.signature(suite)
        args = [tiny[p] for p in signature.parameters if p in tiny]  # zsig's scan_limit defaults
        report = suite(*args)
        bound = signature.bind(*args)
        bound.apply_defaults()
        assert report.suite == name
        assert report.params == bound.arguments, name
        assert report.instances > 0 and report.passed, name


def test_text_and_json_values_agree(capsys):
    main(["set", "--base", "10", "49"])
    text = capsys.readouterr().out
    _, doc = run_json(capsys, ["set", "--base", "10", "49"])
    assert "{2, 3, 6, 14, 21, 42}" in text
    assert doc["result"]["members"] == [2, 3, 6, 14, 21, 42]


# ---------------------------------------------------------------------------
# the README's CLI section against the CLI

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_cli_examples_run(monkeypatch, tmp_path):
    block = README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("midy ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)  # `verify ... --out` writes its report here
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_lists_every_verify_suite():
    listed = README.split("Available `verify` suites:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(verify.SUITES)
