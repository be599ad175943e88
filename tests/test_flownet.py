import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentepi import InputError

from sentepi.flownet import (
    FlowNetwork,
    build_flow_network,
    giant_component,
    opinionated,
    read_adjacency,
    read_network,
    write_edges_csv,
    write_nodes_csv,
)


def _tallies(*users, tally=(1, 0, 0)):
    return {u: tally for u in users}


class TestBuildFlowNetwork:
    def test_follower_evidence(self):
        net = build_flow_network(_tallies("A", "B"), {"A": {"B"}}, {})
        assert net.edges == (("A", "B"),)

    def test_friend_evidence(self):
        net = build_flow_network(_tallies("A", "B"), {}, {"B": {"A"}})
        assert net.edges == (("A", "B"),)

    def test_both_evidence_deduplicated(self):
        net = build_flow_network(_tallies("A", "B"), {"A": {"B"}}, {"B": {"A"}})
        assert net.edges == (("A", "B"),)

    def test_unknown_endpoints_ignored(self):
        net = build_flow_network(
            _tallies("A", "B"), {"A": {"B", "ghost"}}, {"phantom": {"A"}}
        )
        assert net.edges == (("A", "B"),)

    def test_self_reference_dropped(self):
        net = build_flow_network(_tallies("A"), {"A": {"A"}}, {"A": {"A"}})
        assert net.edges == ()

    def test_users_without_relevant_tweets_excluded(self):
        tallies = {"A": (1, 0, 0), "B": (0, 0, 0)}
        net = build_flow_network(tallies, {"A": {"B"}}, {})
        assert net.nodes == {"A"}
        assert net.edges == ()

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=40
        )
    )
    @settings(max_examples=100)
    def test_evidence_route_is_irrelevant(self, pairs):
        tallies = {f"u{i}": (1, 0, 0) for i in range(9)}
        edges = {(f"u{a}", f"u{b}") for a, b in pairs if a != b}
        followers = {}
        friends = {}
        for i, (a, b) in enumerate(sorted(edges)):
            if i % 2 == 0:
                followers.setdefault(a, set()).add(b)
            else:
                friends.setdefault(b, set()).add(a)
        via_split = build_flow_network(tallies, followers, friends)
        via_followers = build_flow_network(
            tallies, {a: {b for x, b in edges if x == a} for a, _ in edges}, {}
        )
        assert via_split.edges == via_followers.edges == tuple(sorted(edges))


class TestOpinionated:
    def test_sign_assignment(self):
        tallies = {"A": (2, 1, 5), "B": (0, 0, 9), "C": (3, 3, 0), "D": (0, 2, 1)}
        net = FlowNetwork(tallies=tallies, edges=(("A", "B"), ("A", "D")))
        assert net.signs == {"A": 1, "B": 0, "C": 0, "D": -1}
        op = opinionated(net)
        assert op.signs == {"A": 1, "D": -1}
        assert op.edges == (("A", "D"),)

    def test_edge_and_node_nesting(self):
        tallies = {"A": (1, 0, 0), "B": (1, 1, 0), "C": (0, 1, 0)}
        net = FlowNetwork(tallies=tallies, edges=(("A", "B"), ("A", "C")))
        op = opinionated(net)
        assert op.nodes <= net.nodes
        assert set(op.edges) <= set(net.edges)


class TestGiantComponent:
    def test_chain_plus_isolate(self):
        tallies = _tallies("A", "B", "C", "D")
        net = FlowNetwork(tallies=tallies, edges=(("A", "B"), ("B", "C")))
        giant = giant_component(net)
        assert giant.nodes == {"A", "B", "C"}

    def test_fully_connected(self):
        tallies = _tallies("A", "B", "C")
        net = FlowNetwork(
            tallies=tallies, edges=(("A", "B"), ("B", "C"), ("C", "A"))
        )
        assert giant_component(net).nodes == {"A", "B", "C"}

    def test_tie_goes_to_smallest_id(self):
        tallies = _tallies("a1", "a2", "b1", "b2")
        net = FlowNetwork(tallies=tallies, edges=(("b1", "b2"), ("a1", "a2")))
        assert giant_component(net).nodes == {"a1", "a2"}

    def test_weak_connectivity(self):
        # edges point away from B on both sides; still one weak component
        tallies = _tallies("A", "B", "C")
        net = FlowNetwork(tallies=tallies, edges=(("B", "A"), ("B", "C")))
        assert giant_component(net).nodes == {"A", "B", "C"}

    def test_idempotent(self):
        tallies = _tallies("A", "B", "C", "D", "E")
        net = FlowNetwork(
            tallies=tallies, edges=(("A", "B"), ("B", "C"), ("D", "E"))
        )
        once = giant_component(net)
        twice = giant_component(once)
        assert once == twice

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            giant_component(FlowNetwork(tallies={}, edges=()))

    def test_preserves_opinionated_type(self):
        net = FlowNetwork(
            tallies={"A": (1, 0, 0), "B": (0, 1, 0), "C": (1, 1, 0), "D": (2, 0, 0)},
            edges=(("A", "B"), ("B", "C"), ("C", "D")),
        )
        op = opinionated(net)
        giant = giant_component(op)
        assert giant.signs == {"A": 1, "B": -1}
        assert giant.signs == {user: op.signs[user] for user in giant.nodes}


class TestReadAdjacency:
    def test_parsing(self):
        text = "u1: u2,u3\nu2: u1\n\nu3:\n"
        adj = read_adjacency(io.StringIO(text))
        assert adj == {"u1": {"u2", "u3"}, "u2": {"u1"}, "u3": set()}

    def test_repeated_users_merge(self):
        adj = read_adjacency(io.StringIO("u1: a\nu1: b\n"))
        assert adj == {"u1": {"a", "b"}}

    def test_line_without_colon_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "followers.txt"
        path.write_text("u1: u2\n\nu1 u2 u3\n")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(InputError, match=r"followers\.txt:3: expected user_id: ids"):
                read_adjacency(fh)


class TestReadNetwork:
    def _write(self, tmp_path):
        net = FlowNetwork(
            tallies={"A": (2, 1, 5), "B": (0, 3, 0), "C": (1, 0, 0)},
            edges=(("A", "B"), ("C", "A")),
        )
        nodes, edges = tmp_path / "opinion_nodes.csv", tmp_path / "opinion_edges.csv"
        write_nodes_csv(nodes, net)
        write_edges_csv(edges, net)
        return net, nodes, edges

    def test_round_trip(self, tmp_path):
        net, nodes, edges = self._write(tmp_path)
        assert read_network(nodes, edges) == net

    @pytest.mark.parametrize(
        "row", ["D,x,0,0,positive", "D,1,0,0,negative", "D,1,1,0,none", "D,0,0,1,none",
                "D,-1,-2,0,positive", "D,1,0,0,yes", "D,1,0,0"],
    )
    def test_bad_node_row_is_rejected_with_its_line(self, tmp_path, row):
        _, nodes, edges = self._write(tmp_path)
        with open(nodes, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(InputError, match=r"opinion_nodes\.csv:5: expected id,n_pos"):
            read_network(nodes, edges)
