from fractions import Fraction

import pytest

from arrtop.geometry import (Arrangement, Hyperplane, decone, generic_section,
                             intersection_poset, localize, zero_flats)
from arrtop.harness import CorpusSpec, braid_essentialized, generate_corpus, random_generic


def make_arrangement(dim, rows):
    """rows: list of (normal tuple, offset); labels are generated."""
    hyps = [Hyperplane(tuple(Fraction(x) for x in normal), Fraction(offset), f"H{i + 1}")
            for i, (normal, offset) in enumerate(rows)]
    return Arrangement.build(dim, hyps)


def _with_surgeries(arr, seed):
    """arr, its localizations at its zero flats, its decones and its
    generic sections."""
    yield arr
    for flat in zero_flats(intersection_poset(arr)):
        yield localize(arr, flat)
    if arr.is_central and arr.is_essential and arr.dim >= 2:
        for i0 in range(arr.d):
            yield decone(arr, i0)
    for k in range(1, arr.dim):
        yield generic_section(arr, k, seed)


def oracle_arrangements():
    """The corpus for seeds 0-2 with its surgeries, the ladder (braid5,
    gen-8-3, dbraid5) and two arrangements with parallel hyperplanes."""
    for seed in (0, 1, 2):
        for item in generate_corpus(CorpusSpec(seed=seed)):
            yield from _with_surgeries(item.arrangement, seed)
    braid5 = braid_essentialized(5)
    yield from (braid5, random_generic(8, 3, 1), decone(braid5, 0))
    # a non-essential slab, and x = 0, x = 1, y = 0 (x = 1 misses x = 0)
    yield make_arrangement(3, [((1, 0, 0), 0), ((1, 0, 0), 1), ((1, 1, 0), 0)])
    yield make_arrangement(2, [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)])


@pytest.fixture
def call_counter(monkeypatch):
    """call_counter(module, name) replaces module.name by a wrapper that
    records the arguments of each call and returns that list."""
    def install(module, name):
        real, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls
    return install


@pytest.fixture
def mk():
    return make_arrangement


@pytest.fixture
def a1():
    return make_arrangement(1, [((1,), 0)])


@pytest.fixture
def a2():
    return make_arrangement(1, [((1,), 0), ((1,), 1)])


@pytest.fixture
def bool2():
    return make_arrangement(2, [((1, 0), 0), ((0, 1), 0)])


@pytest.fixture
def gen3():
    return make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])


@pytest.fixture
def cen3():
    return make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, -1), 0)])
