import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isinglab import graphs
from isinglab.errors import InvalidInputError, RetriesExhaustedError
from isinglab.graphs import (
    Graph,
    disjoint_union,
    random_regular,
    read_edge_list,
    write_edge_list,
)
from isinglab.measures import mono_counts, monochromatic_edges
from isinglab.rng import make_rng

from conftest import (complete_graph, cycle_graph, edge_multiset, num_edges,
                      path_graph, random_regular_lists)


def degrees(g):
    """Each vertex's degree, a self-loop counted 2."""
    return [len(g.neighbors[v]) + 2 * sum(u == w == v for u, w in g.edges)
            for v in range(g.n)]


def test_k2_is_only_matching():
    g = random_regular(2, 1, seed=0, simple=True)
    assert edge_multiset(g) == {(0, 1): 1}


def test_k4_unique_simple_cubic():
    g = random_regular(4, 3, seed=3, simple=True)
    assert edge_multiset(g) == edge_multiset(complete_graph(4))


def test_config_model_degree_sequence_and_symmetry():
    g = random_regular(100, 3, seed=11, simple=False)
    assert all(0 <= u <= w < 100 for u, w in g.edges)
    assert degrees(g) == [3] * 100


def test_handshake_sum_of_degrees():
    for n, d, seed in [(10, 3, 0), (12, 4, 1), (8, 2, 2)]:
        g = random_regular(n, d, seed=seed)
        assert sum(degrees(g)) == n * d


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


@pytest.mark.parametrize("simple", [False, True])
def test_sampler_equals_list_based_reference(simple):
    """The array-based draws and early rejection give the graphs of the
    list-based sampler, which builds and checks every draw's edge list, and
    consume its stream: n in {10, 60, 600, 2000}, cubic, seeds 0-9."""
    for n in (10, 60, 600, 2000):
        for seed in range(10):
            rng, ref_rng = make_rng(seed), make_rng(seed)
            assert (random_regular(n, 3, rng, simple=simple)
                    == random_regular_lists(n, 3, ref_rng, simple=simple)), (n, seed)
            assert rng.random() == ref_rng.random()


def test_simple_draw_imports_no_masked_arrays():
    """The repeated-pair check sorts and compares neighbours; np.unique would
    import numpy.ma into every fresh ``graph-gen --simple`` process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import isinglab

    code = ("import sys; from isinglab.graphs import random_regular; "
            "random_regular(60, 3, seed=11, simple=True); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(isinglab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_odd_total_degree_rejected():
    with pytest.raises(InvalidInputError):
        random_regular(3, 3, seed=0)


def test_retry_cap(monkeypatch):
    # K4 is the one simple cubic graph on 4 vertices; seed 0's first draw is
    # not simple, and one draw is all the cap allows
    monkeypatch.setattr(graphs, "SIMPLE_RETRY_CAP", 1)
    with pytest.raises(RetriesExhaustedError):
        random_regular(4, 3, seed=0, simple=True)


@pytest.mark.parametrize("n, delta", [(2, 2), (2, 3), (5, 6)])
def test_simple_degree_above_n_minus_1_refused(monkeypatch, n, delta):
    """No simple graph has delta > n - 1: refused before any draw."""
    monkeypatch.setattr(graphs, "SIMPLE_RETRY_CAP", 0)
    with pytest.raises(InvalidInputError, match="no simple graph"):
        random_regular(n, delta, seed=0, simple=True)
    random_regular(n, delta, seed=0)  # a multigraph has one


def test_self_loop_degree_convention():
    g = Graph(n=1, edges=((0, 0),), delta_max=2)
    assert degrees(g) == [2]
    assert g.neighbors == [()]
    with pytest.raises(InvalidInputError):
        Graph(n=1, edges=((0, 0),), delta_max=1)


def test_union_identity_and_counting():
    k2 = complete_graph(2)
    u1 = disjoint_union(k2, 1)
    assert edge_multiset(u1) == edge_multiset(k2)
    u3 = disjoint_union(k2, 3)
    assert u3.n == 6
    assert num_edges(u3) == 3
    assert u3.edges == ((0, 1), (2, 3), (4, 5))


def test_union_component_edge_counts():
    base = random_regular(10, 3, seed=1, simple=True)
    u = disjoint_union(base, 2)
    assert u.n == 20
    per_comp = [0, 0]
    for a, b in u.edges:
        assert a // base.n == b // base.n
        per_comp[a // base.n] += 1
    assert per_comp == [15, 15]  # delta*n/2


def test_union_copies_isomorphic_to_base_by_relabeling():
    base = random_regular(8, 3, seed=4, simple=True)
    u = disjoint_union(base, 3)
    for i in range(3):
        off = i * base.n
        relabeled = {
            (u0 - off, v0 - off): c
            for (u0, v0), c in edge_multiset(u).items()
            if u0 // base.n == i
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


def test_degree_bound_enforced():
    with pytest.raises(InvalidInputError):
        Graph(n=3, edges=((0, 1), (0, 2)), delta_max=1)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=20),
    delta=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n=8, delta=4, seed=2)  # self-loops and parallel edges
def test_roundtrip_property(n, delta, seed, tmp_path_factory):
    """Configuration-model multigraphs, loops and parallel edges included:
    reading a written file and writing it again reproduces it byte for byte."""
    if (delta * n) % 2:
        n += 1
    g = random_regular(n, delta, seed=seed)
    d = tmp_path_factory.mktemp("rt")
    write_edge_list(g, d / "g.edges")
    h = read_edge_list(d / "g.edges")
    assert h == g
    write_edge_list(h, d / "h.edges")
    assert (d / "h.edges").read_bytes() == (d / "g.edges").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_multiset_views_agree(data):
    """On any edge multiset (loops and parallel edges included) the degree
    bound, ``neighbors``, ``edge_ends``, ``monochromatic_edges`` and
    ``mono_counts`` agree with a count over the edges one by one."""
    n = data.draw(st.integers(min_value=1, max_value=12))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=24))
    edges = tuple((min(p), max(p)) for p in pairs)
    spins = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))

    degree = [0] * n
    nbrs = [[] for _ in range(n)]
    for u, w in edges:
        degree[u] += 1
        degree[w] += 1  # a loop counts 2
        if u != w:
            nbrs[u].append(w)
            nbrs[w].append(u)
    g = Graph(n=n, edges=edges, delta_max=max(degree))
    if edges:
        with pytest.raises(InvalidInputError):
            Graph(n=n, edges=edges, delta_max=max(degree) - 1)
    assert degrees(g) == degree
    assert [sorted(nb) for nb in g.neighbors] == [sorted(nb) for nb in nbrs]
    u, w = g.edge_ends
    assert list(zip(u.tolist(), w.tolist())) == list(edges)
    mono = sum(1 for u, w in edges if spins[u] == spins[w])
    assert monochromatic_edges(g, spins) == mono
    plus = np.array([[s == 1 for s in spins], [s == -1 for s in spins]])
    assert mono_counts(g, plus).tolist() == [mono, mono]


def test_edge_ids_checked():
    for edges in (((0, 2),), ((-1, 0),), ((1, 0),)):
        with pytest.raises(InvalidInputError):
            Graph(n=2, edges=edges, delta_max=2)
    with pytest.raises(InvalidInputError):
        Graph(n=-1, edges=(), delta_max=0)


def test_named_graphs():
    assert num_edges(path_graph(3)) == 2
    assert num_edges(cycle_graph(5)) == 5
    assert num_edges(complete_graph(4)) == 6
