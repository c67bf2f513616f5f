import numpy as np
import pytest

from robustflow import (
    DemandMatrix,
    Network,
    demand_laplacian,
    incidence_matrix,
    rank_reduce,
)
from robustflow.network import independent_columns

from conftest import random_corpus
from oracles import NoDemand, demand_edge_connectivity


class TestNetworkValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Network(2, [(0, 0, 1.0, 0.0)])

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            Network(2, [(0, 1, 0.0, 0.0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Network(2, [(0, 2, 1.0, 0.0)])

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Network(2, [(0, 1, 1.0, -1.0)])

    def test_parallel_edges_kept_distinct(self, net_a):
        assert net_a.n_edges == 2
        np.testing.assert_array_equal(net_a.capacities, [3.0, 2.0])


class TestDemandMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DemandMatrix([[0.0, 1.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DemandMatrix([[0.0, -1.0], [0.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DemandMatrix([[1.0, 0.0], [0.0, 0.0]])

    def test_pairs_and_total(self, demand_ab):
        assert demand_ab.pairs() == [(0, 1, 4.0)]
        assert demand_ab.total() == 4.0
        assert not demand_ab.is_zero


class TestIncidenceMatrix:
    def test_net_b_column(self, net_b):
        np.testing.assert_array_equal(incidence_matrix(net_b), [[-1.0], [1.0]])

    def test_net_a_parallel_columns(self, net_a):
        np.testing.assert_array_equal(
            incidence_matrix(net_a), [[-1.0, -1.0], [1.0, 1.0]]
        )

    def test_net_c_columns(self, net_c):
        np.testing.assert_array_equal(
            incidence_matrix(net_c),
            [[-1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -1.0]],
        )

    def test_columns_sum_to_zero_on_random_corpus(self):
        for net, _ in random_corpus(count=5):
            np.testing.assert_allclose(incidence_matrix(net).sum(axis=0), 0.0)


class TestDemandLaplacian:
    def test_zero_demand(self):
        d = DemandMatrix(np.zeros((3, 3)))
        np.testing.assert_array_equal(demand_laplacian(d), np.zeros((3, 3)))

    def test_net_b_demand(self, demand_ab):
        np.testing.assert_array_equal(
            demand_laplacian(demand_ab), [[4.0, 0.0], [-4.0, 0.0]]
        )

    def test_net_c_demand(self, demand_c):
        lap = demand_laplacian(demand_c)
        np.testing.assert_array_equal(lap[:, 0], [2.0, -2.0, 0.0])
        np.testing.assert_array_equal(lap[:, 1], 0.0)
        np.testing.assert_array_equal(lap[:, 2], 0.0)

    def test_columns_sum_to_zero_on_random_corpus(self):
        for _, demands in random_corpus(count=5):
            np.testing.assert_allclose(
                demand_laplacian(demands).sum(axis=0), 0.0, atol=1e-12
            )


class TestRankReduce:
    def test_net_b_drops_one_row(self, net_b, demand_ab):
        red = rank_reduce(incidence_matrix(net_b), demand_laplacian(demand_ab))
        assert len(red.row_indices) == 1
        assert red.feasible
        assert abs(red.reduced_incidence[0, 0]) == 1.0

    def test_net_c_connected(self, net_c, demand_c):
        red = rank_reduce(incidence_matrix(net_c), demand_laplacian(demand_c))
        assert len(red.row_indices) == 2
        assert red.feasible

    def test_disconnected_demand_pair_infeasible(self):
        net = Network(4, [(0, 1, 1.0, 0.0), (2, 3, 1.0, 0.0)])
        demands = DemandMatrix(
            [[0.0, 0.0, 1.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4]
        )
        red = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
        assert not red.feasible

    def test_connected_graph_always_feasible(self):
        for net, demands in random_corpus(seed=5, count=10):
            red = rank_reduce(incidence_matrix(net), demand_laplacian(demands))
            assert red.feasible
            rank = np.linalg.matrix_rank(incidence_matrix(net))
            assert len(red.row_indices) == rank

    def test_kept_rows_are_lowest_index(self, net_c, demand_c):
        red = rank_reduce(incidence_matrix(net_c), demand_laplacian(demand_c))
        assert red.row_indices == (0, 1)


class TestIndependentColumns:
    def test_picks_lowest_index_subset(self, net_c):
        inc = incidence_matrix(net_c)
        red = rank_reduce(inc, np.zeros((3, 3)))
        cols = independent_columns(red.reduced_incidence)
        assert cols == [0, 1]

    def test_parallel_edges_skip_duplicates(self, net_a):
        inc = incidence_matrix(net_a)
        cols = independent_columns(inc)
        assert cols == [0]


class TestConnectivity:
    def test_corpus_values(self, net_a, net_b, net_c, demand_ab, demand_c):
        assert demand_edge_connectivity(net_b, demand_ab) == 1
        assert demand_edge_connectivity(net_a, demand_ab) == 2
        assert demand_edge_connectivity(net_c, demand_c) == 2

    def test_no_demand_raises(self, net_b):
        with pytest.raises(NoDemand):
            demand_edge_connectivity(net_b, DemandMatrix(np.zeros((2, 2))))

    def test_disconnected_pair_gives_zero(self):
        net = Network(3, [(0, 1, 1.0, 0.0)])
        demands = DemandMatrix([[0.0, 0.0, 1.0], [0.0] * 3, [0.0] * 3])
        assert demand_edge_connectivity(net, demands) == 0

    def test_parallel_edges_each_count(self):
        net = Network(2, [(0, 1, 1.0, 0.0)] * 3)
        demands = DemandMatrix([[0.0, 1.0], [0.0, 0.0]])
        assert demand_edge_connectivity(net, demands) == 3

    def test_matches_brute_force_deletion(self):
        # oracle: smallest edge subset whose removal kills all directed paths
        from itertools import combinations

        import networkx as nx

        for net, demands in random_corpus(seed=23, count=8, n_max=4, m_max=6):
            reported = demand_edge_connectivity(net, demands)
            edges = list(enumerate(net.edges))
            brute = None
            for size in range(0, net.n_edges + 1):
                for subset in combinations(range(net.n_edges), size):
                    g = nx.DiGraph()
                    g.add_nodes_from(range(net.n_vertices))
                    for j, e in edges:
                        if j not in subset:
                            g.add_edge(e.tail, e.head)
                    if any(not nx.has_path(g, s, t) for s, t, _ in demands.pairs()):
                        brute = size
                        break
                if brute is not None:
                    break
            assert reported == brute
