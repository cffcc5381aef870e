"""Corpora are a function of the seed: equal seeds, equal bytes."""

import itertools

import pytest

from loopkit.core import format_table, is_isomorphic, parse_table
from loopkit.extensions import build_extension
from workloads import Hunt, abelian_corpus, analyze_corpus, catalog_corpus


def _hunt_corpus(seed, count):
    stream = Hunt(seed, None, count).stream()
    return [("", format_table(build_extension(g))) for g in itertools.islice(stream, count)]


CORPORA = {
    "analyze": lambda seed: analyze_corpus(seed, 10),
    "hunt": lambda seed: _hunt_corpus(seed, 5),
    "abelian-routes": lambda seed: abelian_corpus(seed, 8),
    "catalog-add": lambda seed: catalog_corpus(seed, 16),
}


def _bytes(corpus):
    return "".join(text for _, text in corpus).encode()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    make = CORPORA[name]
    first = _bytes(make(7))
    assert _bytes(make(7)) == first
    assert _bytes(make(8)) != first


@pytest.mark.parametrize("name", ["analyze", "abelian-routes", "catalog-add"])
def test_seeds_order_the_same_tables(name):
    make = CORPORA[name]
    assert sorted(make(7)) == sorted(make(8))


def test_analyze_corpus_shape():
    corpus = analyze_corpus(3, 10)
    tables = [parse_table(text) for _, text in corpus]
    assert [key for key, _ in corpus[:2]] == ["o32", "o64"]
    assert [t.order for t in tables[:2]] == [32, 64]
    assert all(8 <= t.order <= 16 for t in tables[2:])


def test_catalog_corpus_pairs_each_table_with_an_isomorphic_copy():
    corpus = catalog_corpus(5, 16)
    for (key, a), (copy_key, b) in zip(corpus[::2], corpus[1::2]):
        assert copy_key == key + "r" and a != b
        assert is_isomorphic(parse_table(a), parse_table(b)) is not None
