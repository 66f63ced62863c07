import random

import pytest
from hypothesis import given, settings, strategies as st

from dimkit.graph import (
    Graph,
    GraphFormatError,
    bfs_layers,
    bits,
    central_vertex,
    connected_components,
    degree_classes,
    parse_graph,
    serialize_graph,
)
from conftest import cycle_graph, disjoint_union, path_graph, star_graph
from naive_reference import central_vertex_naive


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


@pytest.mark.parametrize("rows, message", [
    ([0b010, 0b001], "expected 3 rows"),
    ([0b1000, 0, 0], "mentions vertices >= n"),
    ([-1, 0, 0], "mentions vertices >= n"),
    ([0b001, 0, 0], "self-loop at 0"),
    ([0b110, 0b001, 0b000], r"asymmetric edge \(0,2\)"),
    ([0b000, 0b000, 0b010], r"asymmetric edge \(2,1\)"),
])
def test_graph_rejects_malformed_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, rows)


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_parse_serialize_roundtrip():
    g = cycle_graph(5)
    assert parse_graph(serialize_graph(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    g = parse_graph("# a triangle\n\n3 3\n0 1\n1 2\n# middle\n0 2\n")
    assert g.m == 3


@pytest.mark.parametrize(
    "text",
    [
        "",                      # no header
        "2\n",                   # short header
        "2 1\n",                 # promised edge missing
        "2 1\n0 1\n1 0\n",       # too many edges
        "2 1\n0 0\n",            # self loop
        "2 1\n0 2\n",            # out of range
        "3 2\n0 1\n0 1\n",       # duplicate
        "a b\n",                 # non-integer header
        "100000000000 0\n",      # vertex count above MAX_VERTICES
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def _reached(seed, layers):
    for layer in layers:
        seed |= layer
    return seed


def test_bfs_levels_path():
    g = path_graph(5)
    layers = list(bfs_layers(g, 0b00001, g.full_mask()))
    assert layers == [0b00010, 0b00100, 0b01000, 0b10000]
    assert g.full_mask() & ~_reached(0b00001, layers) == 0


def test_bfs_levels_respects_within():
    g = path_graph(5)
    # cut vertex 2 out of scope: 3 and 4 become unreachable from 0
    scope = g.full_mask() & ~(1 << 2)
    layers = list(bfs_layers(g, 0b00001, scope))
    assert layers == [0b00010]
    assert scope & ~_reached(0b00001, layers) == 0b11000


def test_bfs_two_seeds():
    g = cycle_graph(6)
    layers = list(bfs_layers(g, 0b000011, g.full_mask()))
    assert layers[0] == 0b100100  # 2 and 5
    assert layers[1] == 0b011000  # 3 and 4


def test_components_order_and_partition():
    g = disjoint_union(path_graph(3), cycle_graph(3))
    comps = connected_components(g)
    assert comps == [0b000111, 0b111000]


def test_eccentricity_and_central_vertex():
    g = path_graph(7)
    assert central_vertex(g, g.full_mask()) == central_vertex_naive(g, g.full_mask()) == 3
    # the scope {0, 1, 2} is the path 0-1-2, centred at 1
    assert central_vertex(g, 0b111) == central_vertex_naive(g, 0b111) == 1
    assert central_vertex(g, 1 << 5) == 5
    c6 = cycle_graph(6)
    # every vertex ties at eccentricity 3; smallest id wins
    assert central_vertex(c6, c6.full_mask()) == central_vertex_naive(c6, c6.full_mask()) == 0
    for scope in (0, 0b101):
        for fn in (central_vertex, central_vertex_naive):
            with pytest.raises(ValueError):
                fn(g, scope)


def _grid_graph(k: int) -> Graph:
    edges = []
    for v in range(k * k):
        if v % k + 1 < k:
            edges.append((v, v + 1))
        if v + k < k * k:
            edges.append((v, v + k))
    return Graph.from_edges(k * k, edges)


def _same_centre(g: Graph, within: int) -> bool:
    """Assert both implementations agree on (g, within); True when the scope
    has a centre, False when both raise."""
    try:
        want = central_vertex_naive(g, within)
    except ValueError:
        with pytest.raises(ValueError):
            central_vertex(g, within)
        return False
    assert central_vertex(g, within) == want, (g.edges(), within)
    return True


def test_central_vertex_matches_naive_on_random_scopes():
    rng = random.Random(20261018)
    centred = raised = 0
    for _ in range(2000):
        n = rng.randint(1, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.6, 0.9))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        mode = rng.randrange(4)
        if mode == 0:
            within = g.full_mask()
        elif mode == 1:
            within = rng.getrandbits(n)
        else:
            # one component of a random subset: connected, so a centre exists
            comps = connected_components(g, rng.getrandbits(n) or g.full_mask())
            within = rng.choice(comps)
        if _same_centre(g, within):
            centred += 1
        else:
            raised += 1
    assert not _same_centre(g, 0)
    # the mix must exercise both outcomes, not only one
    assert centred > 1000 and raised > 200


def _degree_classes_naive(g: Graph, verts: int, within: int) -> list[int]:
    degree = {v: sum(within >> u & 1 for u in g.neighbors(v)) for v in range(g.n) if verts >> v & 1}
    classes = [0] * (max(degree.values()) + 1 if degree else 0)
    for v, d in degree.items():
        classes[d] |= 1 << v
    return classes


def test_degree_classes_match_naive_degrees():
    # unions of components read whole rows; any other scope is masked
    rng = random.Random(2510)
    for _ in range(1500):
        n = rng.randint(0, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        comps = connected_components(g)
        union = sum(c for c in comps if rng.random() < 0.5)
        assert degree_classes(g, union) == _degree_classes_naive(g, union, union), g.edges()
        verts, within = rng.getrandbits(n), rng.getrandbits(n)
        assert degree_classes(g, verts, within) == _degree_classes_naive(g, verts, within), g.edges()
        assert degree_classes(g, verts, verts) == _degree_classes_naive(g, verts, verts), g.edges()


@pytest.mark.parametrize(
    "g, connected_without_1",
    [
        (path_graph(301), False),
        (cycle_graph(256), True),
        (_grid_graph(15), True),
        (star_graph(200), True),
    ],
    ids=["path", "cycle", "grid", "star"],
)
def test_central_vertex_matches_naive_on_large_shapes(g, connected_without_1):
    assert _same_centre(g, g.full_mask())
    assert _same_centre(g, g.full_mask() & ~0b10) == connected_without_1


edge_lists = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda t: (min(t), max(t))
            ).filter(lambda t: t[0] != t[1]),
            max_size=12,
        ),
    )
)


@given(edge_lists)
@settings(max_examples=150, derandomize=True)
def test_roundtrip_property(case):
    n, edges = case
    g = Graph.from_edges(n, sorted(edges))
    assert parse_graph(serialize_graph(g)) == g


@given(edge_lists)
@settings(max_examples=150, derandomize=True)
def test_components_partition_property(case):
    n, edges = case
    g = Graph.from_edges(n, sorted(edges))
    comps = connected_components(g)
    union = 0
    for c in comps:
        assert union & c == 0
        union |= c
    assert union == g.full_mask()
