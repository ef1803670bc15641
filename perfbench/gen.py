"""Seeded input generators for the benchmark (standard library only).

Each generator returns the graph as plain data, so that `reference.py`
can derive expected outputs without calling gretlite, and a writer turns
that data into the `.glg` text the program receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sample:
    """A graph1-shaped graph: one container, nodes, and Edge_ vertices.

    `links[i]` is the (source, target) node index pair of the i-th Edge_
    vertex; a dangling Edge_ has None on one side.
    """

    names: tuple[str, ...]
    links: tuple[tuple[int | None, int | None], ...]


@dataclass(frozen=True)
class Chain:
    """Nodes linked in one path; `order[k]` is the chain position of the
    k-th vertex created, so vertex ids do not follow the chain."""

    order: tuple[int, ...]


def sample(seed: int, nodes: int, name_pool: int,
           dangling_share: float) -> Sample:
    """Sample-shaped graph with exact counts and seeded placement.

    There are two Edge_ vertices per node.  Names cycle through
    `n1..n<name_pool>` before shuffling, so each name labels exactly
    nodes / name_pool nodes; exactly `dangling_share` of
    the Edge_ vertices miss one of their two links, which keeps the work
    of each job nearly equal across seeds.
    """
    rng = random.Random(seed)
    names = [f"n{i % name_pool + 1}" for i in range(nodes)]
    rng.shuffle(names)
    count = 2 * nodes
    dangling = rng.sample(range(count), round(count * dangling_share))
    # half of the dangling Edge_ vertices miss the source, half the target
    no_src = set(dangling[::2])
    no_trg = set(dangling[1::2])
    links = []
    for i in range(count):
        src, trg = rng.randrange(nodes), rng.randrange(nodes)
        links.append((None if i in no_src else src,
                      None if i in no_trg else trg))
    return Sample(tuple(names), tuple(links))


def chain(seed: int, nodes: int) -> Chain:
    order = list(range(nodes))
    random.Random(seed).shuffle(order)
    return Chain(tuple(order))


def write_sample(data: Sample, name: str = "sample") -> str:
    """Render as a graph1 `.glg` file: container v1, nodes, Edge_ vertices,
    then containment edges and each Edge_'s source and target links."""
    nodes = len(data.names)
    lines = [f"graph {name} conforms graph1;"]
    lines.append("v1 : Graph_;")
    for i, node_name in enumerate(data.names):
        lines.append(f'v{i + 2} : Node {{ name = "{node_name}" }};')
    first_edge = nodes + 2
    for i in range(len(data.links)):
        lines.append(f"v{first_edge + i} : Edge_;")
    edges = []
    for i in range(nodes):
        edges.append(f"Graph_ContainsNodes v1 -> v{i + 2}")
    for i in range(len(data.links)):
        edges.append(f"Graph_ContainsEdges v1 -> v{first_edge + i}")
    for i, (src, trg) in enumerate(data.links):
        if src is not None:
            edges.append(f"Edge_LinksToSrc v{first_edge + i} -> v{src + 2}")
        if trg is not None:
            edges.append(f"Edge_LinksToTrg v{first_edge + i} -> v{trg + 2}")
    lines += [f"e{i} : {text};" for i, text in enumerate(edges, 1)]
    return "\n".join(lines) + "\n"


def write_chain(data: Chain) -> str:
    """Render as a graph2 `.glg` file.  Node texts name chain positions
    (`p0`, `p1`, ...); links are created in chain order."""
    vertex_of = {pos: k + 2 for k, pos in enumerate(data.order)}
    lines = ["graph chain conforms graph2;", "v1 : Graph_;"]
    for k, pos in enumerate(data.order):
        lines.append(f'v{k + 2} : Node {{ text = "p{pos}" }};')
    edges = [f"Graph_ContainsNodes v1 -> v{k + 2}"
             for k in range(len(data.order))]
    edges += [
        f"NodeLinksToLinksTo v{vertex_of[pos]} -> v{vertex_of[pos + 1]}"
        for pos in range(len(data.order) - 1)
    ]
    lines += [f"e{i} : {text};" for i, text in enumerate(edges, 1)]
    return "\n".join(lines) + "\n"
