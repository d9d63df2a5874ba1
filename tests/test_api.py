import inspect
from dataclasses import fields

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
    assert [f.name for f in fields(midy.MidySet)] == ["modulus", "base", "order", "members"]
    assert [f.name for f in fields(midy.ShrinkStep)] == ["q", "branch", "p", "c", "s", "m", "z"]
    public = [name for name in vars(midy.Factorization) if not name.startswith("_")]
    assert public == ["divisors"]
    assert type(midy.multiplicative_order(10, 13)) is int
