"""Generators, combinators, specs, and edge-list I/O."""

import random

import pytest

from majroman.graph import (
    FAMILIES,
    Graph,
    GraphError,
    GraphSpec,
    bfs,
    complement,
    complete,
    complete_minus_matching,
    corona,
    cycle,
    double_star,
    fan,
    generate,
    gnp,
    join,
    parse_edge_list,
    path,
    random_tree,
    serialize_edge_list,
    star,
    wheel,
)


def edge_set(g):
    return set(g.edges())


class TestGraphBasics:
    def test_empty_and_single(self):
        g = Graph(0, [])
        assert g.n == 0 and g.num_edges() == 0
        g1 = Graph(1, [])
        assert g1.is_connected()
        with pytest.raises(GraphError):
            g.max_degree()

    def test_rejects_loops_and_bad_endpoints(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_vertex_range_checks(self):
        g = path(4)
        with pytest.raises(IndexError):
            g.degree(4)
        with pytest.raises(IndexError):
            g.has_edge(0, -1)

    def test_equality_and_hash(self):
        assert path(3) == Graph(3, [(1, 2), (0, 1)])
        assert hash(path(3)) == hash(Graph(3, [(0, 1), (1, 2)]))
        assert path(3) != cycle(3)

    def test_connectivity(self):
        assert path(5).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()



class TestBFS:
    def test_children_in_index_order(self):
        # 0's neighbours 5, 2, 7 are visited as 2, 5, 7, then 2's 4, 1
        g = Graph(8, [(0, 5), (0, 7), (0, 2), (2, 4), (2, 1), (5, 3), (7, 6)])
        order, parent = bfs(g)
        assert order == [0, 2, 5, 7, 1, 4, 3, 6]
        assert parent == [-1, 2, 0, 5, 2, 0, 7, 0]

    def test_root_and_unreached_vertices(self):
        g = Graph(6, [(4, 1), (1, 3), (0, 5)])
        order, parent = bfs(g, 1)
        assert order == [1, 3, 4]
        assert parent == [-1, -1, -1, 1, 1, -1]

    def test_cycle_edge_stays_out(self):
        order, parent = bfs(cycle(5))
        assert order == [0, 1, 4, 2, 3]
        assert parent == [-1, 0, 1, 4, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_tree_edges_match_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        for g in (
            gnp(rng.randint(1, 25), rng.choice((0.05, 0.1, 0.3)), seed),
            random_tree(rng.randint(1, 40), seed),
        ):
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            order, parent = bfs(g)
            expected = list(nx.bfs_edges(G, 0, sort_neighbors=sorted))
            assert [(parent[v], v) for v in order[1:]] == expected
            reached = {0} | {v for _, v in expected}
            assert all(parent[v] == -1 for v in range(g.n) if v not in reached)


class TestFamilies:
    def test_wheel_4_is_k4(self):
        assert wheel(4) == complete(4)

    def test_wheel_degrees(self):
        w = wheel(8)
        assert w.degree(0) == 7
        assert all(w.degree(v) == 3 for v in range(1, 8))

    def test_fan_structure(self):
        f = fan(6)
        assert f.degree(0) == 5
        assert f.has_edge(1, 2) and not f.has_edge(1, 5)
        # fan = wheel minus the closing rim edge
        assert edge_set(wheel(6)) - edge_set(f) == {(1, 5)}

    def test_star_max_degree(self):
        for n in range(2, 10):
            assert star(n).max_degree() == n - 1

    def test_double_star(self):
        g = double_star(3, 3)
        assert g.n == 6
        assert g.degree(0) == 3 and g.degree(1) == 3
        assert g.has_edge(0, 1)
        with pytest.raises(GraphError):
            double_star(1, 3)

    def test_complete_minus_matching_shape(self):
        g = complete_minus_matching(3)
        assert g.n == 6 and g.num_edges() == 12
        assert all(g.degree(v) == 4 for v in range(6))
        # the removed matching pairs (2i, 2i+1)
        for i in range(3):
            assert not g.has_edge(2 * i, 2 * i + 1)

    def test_complete_minus_matching_degrees_general(self):
        for n in range(1, 6):
            g = complete_minus_matching(n)
            assert all(g.degree(v) == 2 * n - 2 for v in range(2 * n))

    def test_family_guards(self):
        with pytest.raises(GraphError):
            wheel(3)
        with pytest.raises(GraphError):
            cycle(2)
        with pytest.raises(GraphError):
            star(1)
        with pytest.raises(GraphError):
            path(0)


class TestCombinators:
    def test_complement_involution(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 9)
            g = gnp(n, 0.4, rng.randrange(2**32))
            assert complement(complement(g)) == g

    def test_complement_of_complete_is_edgeless(self):
        assert complement(complete(4)).num_edges() == 0

    def test_complement_path_endpoint_degree(self):
        g = complement(path(12))
        assert g.degree(0) == 10

    def test_complement_cycle_vs_complement_path(self):
        # C_n = P_n plus the closing edge, so the complements differ by it
        for n in (12, 13):
            cp = complement(path(n))
            cc = complement(cycle(n))
            assert edge_set(cp) - edge_set(cc) == {(0, n - 1)}

    def test_join_of_completes_is_complete(self):
        for m, n in [(2, 2), (2, 5), (4, 4)]:
            assert join(complete(m), complete(n)) == complete(m + n)

    def test_join_k1_path_is_fan(self):
        for n in range(4, 10):
            assert join(complete(1), path(n - 1)) == fan(n)

    def test_join_p2_k1_is_triangle(self):
        assert join(path(2), complete(1)) == cycle(3)

    def test_corona_k1_k3_is_k4(self):
        assert corona(complete(1), complete(3)) == complete(4)

    def test_corona_order_identity(self):
        rng = random.Random(11)
        for _ in range(10):
            g = gnp(rng.randint(1, 4), 0.5, rng.randrange(2**32))
            h = gnp(rng.randint(1, 3), 0.5, rng.randrange(2**32))
            assert corona(g, h).n == g.n * (1 + h.n)

    def test_corona_k3_k3_shape(self):
        g = corona(complete(3), complete(3))
        assert g.n == 12
        # anchors keep K_3 degree 2 plus a full copy (3); copy vertices
        # have 2 within the copy plus their anchor
        assert all(g.degree(v) == 5 for v in range(3))
        assert all(g.degree(v) == 3 for v in range(3, 12))
        assert g.num_edges() == 21


class TestSpecs:
    def test_labels(self):
        assert GraphSpec("complete", n=3).label() == "K_3"
        assert GraphSpec("wheel", n=8).label() == "W_8"
        assert GraphSpec("fan", n=8).label() == "F_8"
        assert GraphSpec("complement_path", n=12).label() == "Pbar_12"
        assert GraphSpec("complement_cycle", n=12).label() == "Cbar_12"
        assert GraphSpec("complete_minus_matching", n=3).label() == "K6-M"
        assert GraphSpec("join_complete", m=2, n=4).label() == "K_2vK_4"
        assert GraphSpec("corona_k3", k=1).label() == "K_3oK_3"
        assert GraphSpec("star", n=5).label() == "Star_5"
        assert GraphSpec("double_star", n=2, m=3).label() == "DS_2_3"
        assert GraphSpec("random_tree", n=7, seed=42).label() == "T_n7_s42"

    def test_labels_are_comma_free(self):
        specs = [
            GraphSpec("complete", n=3),
            GraphSpec("join_complete", m=2, n=4),
            GraphSpec(
                "corona",
                parts=(GraphSpec("complete", n=2), GraphSpec("cycle", n=4)),
            ),
            GraphSpec("random_tree", n=7, seed=42),
        ]
        assert all("," not in s.label() for s in specs)

    def test_generate_dispatch(self):
        assert generate(GraphSpec("wheel", n=4)) == complete(4)
        assert generate(GraphSpec("fan", n=6)) == fan(6)
        assert generate(GraphSpec("complement_path", n=12)) == complement(path(12))
        assert generate(GraphSpec("join_complete", m=2, n=4)) == join(
            complete(2), complete(4)
        )
        assert generate(GraphSpec("corona_k3", k=1)) == corona(
            complete(3), complete(3)
        )
        with pytest.raises(GraphError):
            generate(GraphSpec("no_such_family", n=3))
        with pytest.raises(GraphError):
            generate(GraphSpec("random_tree", n=5))  # seed required

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generate_names_a_missing_field(self, family):
        fields = FAMILIES[family].fields
        for missing in fields:
            given = {f: 4 for f in fields if f != missing}
            with pytest.raises(GraphError, match=f"requires {missing}$"):
                generate(GraphSpec(family, **given))


class TestRandomGraphs:
    def test_random_tree_is_tree(self):
        from majroman.trees import is_tree

        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 12)
            t = random_tree(n, rng.randrange(2**32))
            assert is_tree(t)

    def test_random_tree_deterministic(self):
        assert random_tree(9, 42) == random_tree(9, 42)

    def test_gnp_deterministic_and_bounded(self):
        g1 = gnp(8, 0.5, 123)
        g2 = gnp(8, 0.5, 123)
        assert g1 == g2
        assert gnp(8, 0.0, 1).num_edges() == 0
        assert gnp(8, 1.0, 1) == complete(8)

    def test_gnp_require_edge(self):
        for seed in range(30):
            g = gnp(4, 0.05, seed, require_edge=True)
            assert g.num_edges() >= 1

    def test_gnp_require_edge_rejects_p_zero(self):
        # no draw with p <= 0 has an edge, so redrawing would never end
        for p in (0.0, -0.5):
            with pytest.raises(GraphError):
                gnp(4, p, 1, require_edge=True)
        assert gnp(1, 0.0, 1, require_edge=True) == complete(1)


class TestEdgeListIO:
    def test_parse_examples(self):
        assert parse_edge_list("3 3\n0 1\n0 2\n1 2") == complete(3)
        assert parse_edge_list("2 1\n0 1") == path(2)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            g = gnp(rng.randint(1, 9), 0.4, rng.randrange(2**32))
            text = serialize_edge_list(g)
            assert parse_edge_list(text) == g
            # serialization is canonical: stable under re-parsing
            assert serialize_edge_list(parse_edge_list(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3",
            "a b",
            "3 2\n0 1",  # header promises 2 edges
            "3 1\n0 0",  # loop
            "3 1\n1 0",  # requires u < v
            "3 1\n0 5",  # out of range
            "3 2\n0 1\n0 1",  # duplicate
            "3 1\n0 1 2",  # malformed edge line
            "-1 0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(GraphError):
            parse_edge_list(text)
