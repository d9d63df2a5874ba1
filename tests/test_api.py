import inspect

import pytest

import midy
from midy import analyzer, constructor, ntcore, period


def test_all_names_resolve_once():
    assert len(midy.__all__) == len(set(midy.__all__))
    for name in midy.__all__:
        assert hasattr(midy, name), name


def test_library_public_names_are_all_exported():
    # a public function or class left in a library module but dropped from
    # __all__ (a removed wrapper that lingers) fails here
    for module in (analyzer, constructor, ntcore, period):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert name in midy.__all__, f"{module.__name__}.{name}"


def test_records_carry_only_read_fields():
    assert midy.MidySet._fields == ("modulus", "base", "order", "members")
    assert midy.ShrinkStep._fields == ("q", "branch", "p", "c", "s", "m", "z")
    public = [name for name in vars(midy.Factorization) if not name.startswith("_")]
    assert public == ["divisors"]
    assert type(midy.multiplicative_order(10, 13)) is int


# every public record: field names in order and their defaults
RECORDS = {
    "Factorization": ("value factors", {}),
    "FailureCertificate": ("prime nu_modulus nu_d two_adic_slack", {"two_adic_slack": 0}),
    "MidyVerdict": ("modulus base d k member certificate", {"certificate": None}),
    "MidySet": ("modulus base order members", {}),
    "CardinalityReport": ("closed_form actual disjoint", {}),
    "RestrictionReport": ("n1 n2 base candidates violations", {}),
    "PeriodExpansion": ("numerator modulus base digits", {}),
    "BlockDecomposition": ("d k blocks block_sum", {}),
    "ShrinkStep": ("q branch p c s m z", {}),
    "ShrinkResult": ("modulus base steps z final_set oracle_checked", {}),
}


def test_records_are_immutable_named_tuples():
    classes = {
        name for name in midy.__all__
        if isinstance(getattr(midy, name), type) and not issubclass(getattr(midy, name), Exception)
    }
    assert classes == set(RECORDS)
    built = midy.shrink(13, 10)
    verdict = midy.check_midy(49, 10, 7)
    expansion = midy.expand(1, 13, 10)
    instances = [
        midy.factorize(12), verdict.certificate, verdict, midy.midy_set(13, 10),
        midy.cardinality_report(10, 3, 2), midy.restrict_set(7, 49, 10),
        expansion, midy.blocks(expansion, 3),
        built.steps[0], built,
    ]
    assert [type(record).__name__ for record in instances] == list(RECORDS)
    for record in instances:
        name = type(record).__name__
        fields, defaults = RECORDS[name]
        assert record._fields == tuple(fields.split()), name
        assert record._field_defaults == defaults, name
        shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
        assert repr(record) == f"{name}({shown})"
        for attribute in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, 0)
