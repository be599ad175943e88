"""Directed information-flow network of opinionated users.

Edges point in the direction information travels: A -> B means B
receives what A posts, established either because B appears among A's
followers or A appears among B's friends. The network is a static
snapshot; there are no temporal edge semantics. The opinionated giant
component is stored as two CSVs, ``opinion_nodes.csv`` and
``opinion_edges.csv``; this module writes and reads both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Mapping

from . import InputError, _name, read_csv, read_mapping, write_csv
from .stats import edge_positions, largest_component

if TYPE_CHECKING:
    from .corpus import SentimentLabel, Tally, Tweet

__all__ = [
    "FlowNetwork",
    "tally_users",
    "build_flow_network",
    "opinionated",
    "giant_component",
    "read_adjacency",
    "write_edges_csv",
    "write_nodes_csv",
    "read_network",
]

_NODE_HEADER = ["id", "n_pos", "n_neg", "n_neu", "sign"]
_EDGE_HEADER = ["from", "to"]
_SIGN_TEXT = {1: "positive", -1: "negative", 0: "none"}


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph of users with at least one relevant tweet.

    ``tallies`` maps user id to (n_pos, n_neg, n_neu); ``edges`` is a
    deduplicated, sorted tuple of (from, to) pairs with no self-loops.
    """

    tallies: dict[str, Tally]
    edges: tuple[tuple[str, str], ...]

    @property
    def nodes(self) -> set[str]:
        return set(self.tallies)

    @property
    def signs(self) -> dict[str, int]:
        """User id -> +1 (more positive than negative tweets), -1 (the
        reverse) or 0 (a tie)."""
        return {user: _sign(tally) for user, tally in self.tallies.items()}


def tally_users(
    labeled_tweets: Iterable[tuple[Tweet, SentimentLabel]]
) -> dict[str, Tally]:
    """Per-user relevant tweet tallies; users with none are omitted."""
    from .corpus import tally_by

    return tally_by(labeled_tweets, lambda tweet: tweet.user_id)


def build_flow_network(
    tallies: Mapping[str, Tally],
    followers: Mapping[str, Iterable[str]],
    friends: Mapping[str, Iterable[str]],
) -> FlowNetwork:
    """Assemble the directed network from follower and friend lists.

    Nodes are users with at least one relevant tweet. There is an edge
    A -> B when B is among A's followers or A is among B's friends;
    evidence from either list yields the identical edge, so truncated
    lists on one side are compensated by the other. Endpoints that are
    not nodes are ignored, as are self-references.
    """
    nodes = {user for user, (p, n, m) in tallies.items() if p + n + m >= 1}
    edges: set[tuple[str, str]] = set()
    for a, people in followers.items():
        if a not in nodes:
            continue
        for b in people:
            if b != a and b in nodes:
                edges.add((a, b))
    for b, people in friends.items():
        if b not in nodes:
            continue
        for a in people:
            if a != b and a in nodes:
                edges.add((a, b))
    return FlowNetwork(
        tallies={user: tallies[user] for user in nodes},
        edges=tuple(sorted(edges)),
    )


def _sign(tally: Tally) -> int:
    n_pos, n_neg, _ = tally
    if n_pos > n_neg:
        return 1
    if n_neg > n_pos:
        return -1
    return 0


def _induced(network: FlowNetwork, keep: set[str]) -> FlowNetwork:
    """The subgraph on the users in ``keep`` and the edges between them."""
    return FlowNetwork(
        tallies={user: tally for user, tally in network.tallies.items() if user in keep},
        edges=tuple(e for e in network.edges if e[0] in keep and e[1] in keep),
    )


def opinionated(network: FlowNetwork) -> FlowNetwork:
    """Keep users whose sentiment score is nonzero, with induced edges."""
    return _induced(network, {user for user, sign in network.signs.items() if sign})


def giant_component(network: FlowNetwork) -> FlowNetwork:
    """Induced subgraph on the largest weakly connected component.

    Ties between equal-size components go to the one containing the
    smallest node id. Raises ValueError on an empty network.
    """
    ids, u, v = edge_positions(network.tallies, network.edges)
    if not ids:
        raise ValueError("empty network")
    return _induced(network, set(compress(ids, largest_component(len(ids), u, v))))


def read_adjacency(lines: IO | Iterable[str]) -> dict[str, set[str]]:
    """Parse ``user_id: comma-separated ids`` lines into a mapping; a
    non-blank line without ``:`` raises InputError ``name:line:``."""
    out: dict[str, set[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        user, colon, rest = line.partition(":")
        if not colon:
            raise InputError(f"{_name(lines)}:{lineno}: expected user_id: ids, got {line!r}")
        ids = {part.strip() for part in rest.split(",") if part.strip()}
        out.setdefault(user.strip(), set()).update(ids)
    return out


def write_edges_csv(path: str | Path, network: FlowNetwork) -> None:
    write_csv(path, _EDGE_HEADER, network.edges)


def write_nodes_csv(path: str | Path, network: FlowNetwork) -> None:
    write_csv(path, _NODE_HEADER, (
        [user, *tally, _SIGN_TEXT[_sign(tally)]]
        for user, tally in sorted(network.tallies.items())
    ))


def read_network(nodes_path: str | Path, edges_path: str | Path) -> FlowNetwork:
    """Read an opinionated network back from the two files the writers
    produce. A node row needs non-negative integer counts and the sign
    they give, which must be positive or negative, and an id of its own;
    an edge needs two distinct ends among the nodes and must sort after
    the edge before it. A bad row raises InputError ``path:line:``."""

    def node(user: str, *fields: str) -> tuple[str, Tally]:
        *counts, sign = fields
        tally = tuple(int(count) for count in counts)
        if min(tally) < 0 or sign == "none" or _SIGN_TEXT[_sign(tally)] != sign:
            raise ValueError(sign)
        return user, tally

    tallies = read_mapping(
        nodes_path, _NODE_HEADER, node,
        "id,n_pos,n_neg,n_neu,sign with non-negative integer counts and the sign"
        " they give, positive or negative",
    )

    previous = ("", "")  # sorts before every pair of two distinct ids

    def edge(source: str, target: str) -> tuple[str, str]:
        nonlocal previous
        pair = source, target
        if source not in tallies or target not in tallies or source == target or pair <= previous:
            raise ValueError(pair)
        previous = pair
        return pair

    edges = read_csv(
        edges_path, _EDGE_HEADER, edge,
        f"from,to with two distinct ends in {Path(nodes_path).name}, in ascending order",
    )
    return FlowNetwork(tallies=tallies, edges=tuple(pair for _, pair in edges))
