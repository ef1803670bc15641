import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gretlite import corpus
from gretlite.formats import load_graph, load_schema
from gretlite.model import Element
from gretlite.transform import engine
from gretlite.values import leaves

import genutil


@pytest.fixture(scope="session")
def graph1_schema():
    return genutil.graph1_schema()


@pytest.fixture(scope="session")
def graph2_schema():
    return genutil.graph2_schema()


@pytest.fixture(scope="session")
def hello_ext_schema():
    return genutil.hello_ext_schema()


@pytest.fixture
def sample1(graph1_schema):
    return load_graph(corpus.read_text("sample1.glg"), graph1_schema)


@pytest.fixture
def sample2(graph1_schema):
    return load_graph(corpus.read_text("sample2.glg"), graph1_schema)


@pytest.fixture
def chain4(graph2_schema):
    return load_graph(corpus.read_text("chain4.glg"), graph2_schema)


@pytest.fixture
def instantiations(monkeypatch):
    """Record the graph elements of `$` at every template instantiation;
    for MatchReplace that is one element list per applied match."""
    recorded = []
    original = engine._instantiate

    def record(ctx, template, aliases, dollar):
        recorded.append([el for el in leaves(dollar) if isinstance(el, Element)])
        return original(ctx, template, aliases, dollar)

    monkeypatch.setattr(engine, "_instantiate", record)
    return recorded


def corpus_text(name: str) -> str:
    return corpus.read_text(name)
