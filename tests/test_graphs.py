import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglab.errors import InvalidInputError, RetriesExhaustedError
from isinglab.graphs import (
    Graph,
    disjoint_union,
    random_regular,
    read_edge_list,
    validate_graph,
    write_edge_list,
)

from conftest import complete_graph, cycle_graph, edge_multiset, num_edges, path_graph


def test_k2_is_only_matching():
    g = random_regular(2, 1, seed=0, simple=True)
    assert edge_multiset(g) == {(0, 1): 1}


def test_k4_unique_simple_cubic():
    g = random_regular(4, 3, seed=3, simple=True)
    assert edge_multiset(g) == edge_multiset(complete_graph(4))


def test_config_model_degree_sequence_and_symmetry():
    g = random_regular(100, 3, seed=11, simple=False)
    assert all(len(row) == 3 for row in g.adjacency)
    validate_graph(g)  # symmetry + range checks


def test_handshake_sum_of_degrees():
    for n, d, seed in [(10, 3, 0), (12, 4, 1), (8, 2, 2)]:
        g = random_regular(n, d, seed=seed)
        assert sum(map(len, g.adjacency)) == n * d


def test_seed_determinism():
    a = random_regular(30, 3, seed=5)
    b = random_regular(30, 3, seed=5)
    c = random_regular(30, 3, seed=6)
    assert edge_multiset(a) == edge_multiset(b)
    assert edge_multiset(a) != edge_multiset(c)


def test_simple_flag_no_loops_or_parallel():
    for seed in range(5):
        g = random_regular(14, 3, seed=seed, simple=True)
        ms = edge_multiset(g)
        assert all(c == 1 for c in ms.values())
        assert all(u != w for (u, w) in ms)


def test_odd_total_degree_rejected():
    with pytest.raises(InvalidInputError):
        random_regular(3, 3, seed=0)


def test_retry_cap():
    # K2 with delta=2 can only be a doubled edge or two loops; never simple.
    with pytest.raises(RetriesExhaustedError):
        random_regular(2, 2, seed=0, simple=True)


def test_self_loop_degree_convention():
    g = Graph(n=1, adjacency=[[0, 0]], delta_max=2)
    assert len(g.adjacency[0]) == 2
    assert list(g.edges()) == [(0, 0)]


def test_union_identity_and_counting():
    k2 = complete_graph(2)
    u1 = disjoint_union(k2, 1)
    assert edge_multiset(u1.graph) == edge_multiset(k2)
    u3 = disjoint_union(k2, 3)
    assert u3.graph.n == 6
    assert num_edges(u3.graph) == 3
    assert u3.component_of == [0, 0, 1, 1, 2, 2]


def test_union_component_edge_counts():
    base = random_regular(10, 3, seed=1, simple=True)
    u = disjoint_union(base, 2)
    assert u.graph.n == 20
    per_comp = [0, 0]
    for a, b in u.graph.edges():
        assert u.component_of[a] == u.component_of[b]
        per_comp[u.component_of[a]] += 1
    assert per_comp == [15, 15]  # delta*n/2


def test_union_copies_isomorphic_to_base_by_relabeling():
    base = random_regular(8, 3, seed=4, simple=True)
    u = disjoint_union(base, 3)
    for i in range(3):
        off = i * base.n
        relabeled = {
            (u0 - off, v0 - off): c
            for (u0, v0), c in edge_multiset(u.graph).items()
            if u.component_of[u0] == i
        }
        assert relabeled == dict(edge_multiset(base))


def test_edge_list_roundtrip_k2(tmp_path):
    p = tmp_path / "k2.edges"
    write_edge_list(complete_graph(2), p)
    g = read_edge_list(p)
    assert edge_multiset(g) == edge_multiset(complete_graph(2))


def test_edge_list_literal_format(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("2 1\n0 1\n")
    g = read_edge_list(p)
    assert edge_multiset(g) == {(0, 1): 1}


def test_edge_list_roundtrip_random(tmp_path):
    g = random_regular(20, 3, seed=9)
    p = tmp_path / "rr.edges"
    write_edge_list(g, p)
    assert edge_multiset(read_edge_list(p)) == edge_multiset(g)


def test_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 5\n")
    with pytest.raises(InvalidInputError):
        read_edge_list(bad)
    bad.write_text("2 1\n0\n")
    with pytest.raises(InvalidInputError):
        read_edge_list(bad)


def test_asymmetric_adjacency_rejected():
    with pytest.raises(InvalidInputError):
        Graph(n=2, adjacency=[[1], []], delta_max=1)


def test_degree_bound_enforced():
    with pytest.raises(InvalidInputError):
        Graph(n=3, adjacency=[[1, 2], [0], [0]], delta_max=1)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(n, seed, tmp_path_factory):
    if (3 * n) % 2:
        n += 1
    g = random_regular(n, 3, seed=seed)
    p = tmp_path_factory.mktemp("rt") / "g.edges"
    write_edge_list(g, p)
    assert edge_multiset(read_edge_list(p)) == edge_multiset(g)


def test_named_graphs():
    assert num_edges(path_graph(3)) == 2
    assert num_edges(cycle_graph(5)) == 5
    assert num_edges(complete_graph(4)) == 6
