"""Directed information-flow network of opinionated users.

Edges point in the direction information travels: A -> B means B
receives what A posts, established either because B appears among A's
followers or A appears among B's friends. The network is a static
snapshot; there are no temporal edge semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from . import InputError, write_csv
from .corpus import SentimentLabel, Tally, Tweet, tally_by
from .stats import largest_component

__all__ = [
    "FlowNetwork",
    "OpinionatedNetwork",
    "tally_users",
    "build_flow_network",
    "opinionated",
    "giant_component",
    "read_adjacency",
    "write_edges_csv",
    "write_nodes_csv",
]

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


@dataclass(frozen=True)
class OpinionatedNetwork:
    """Restriction of a FlowNetwork to users with a nonzero score.

    ``signs`` maps user id to +1 (predominantly positive) or -1.
    """

    tallies: dict[str, Tally]
    signs: dict[str, int]
    edges: tuple[tuple[str, str], ...]

    @property
    def nodes(self) -> set[str]:
        return set(self.signs)


def tally_users(
    labeled_tweets: Iterable[tuple[Tweet, SentimentLabel]]
) -> dict[str, Tally]:
    """Per-user relevant tweet tallies; users with none are omitted."""
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


def opinionated(network: FlowNetwork) -> OpinionatedNetwork:
    """Keep users whose sentiment score is nonzero, with induced edges."""
    signs = {
        user: _sign(tally)
        for user, tally in network.tallies.items()
        if _sign(tally) != 0
    }
    edges = tuple(e for e in network.edges if e[0] in signs and e[1] in signs)
    return OpinionatedNetwork(
        tallies={user: network.tallies[user] for user in signs},
        signs=signs,
        edges=edges,
    )


def giant_component(network):
    """Induced subgraph on the largest weakly connected component.

    Ties between equal-size components go to the one containing the
    smallest node id. Works on FlowNetwork and OpinionatedNetwork alike;
    the input type is preserved. Raises ValueError on an empty network.
    """
    ids = sorted(network.nodes)
    if not ids:
        raise ValueError("empty network")
    index = {node: i for i, node in enumerate(ids)}
    u = np.array([index[a] for a, _ in network.edges], dtype=np.int64)
    v = np.array([index[b] for _, b in network.edges], dtype=np.int64)
    best = {ids[i] for i in np.flatnonzero(largest_component(len(ids), u, v))}

    edges = tuple(e for e in network.edges if e[0] in best and e[1] in best)
    tallies = {user: network.tallies[user] for user in best}
    if isinstance(network, OpinionatedNetwork):
        return OpinionatedNetwork(
            tallies=tallies,
            signs={user: network.signs[user] for user in best},
            edges=edges,
        )
    return FlowNetwork(tallies=tallies, edges=edges)


def read_adjacency(stream: IO | Iterable[str]) -> dict[str, set[str]]:
    """Parse ``user_id: comma-separated ids`` lines into a mapping; a
    non-blank line without ``:`` raises InputError ``name:line:``."""
    out: dict[str, set[str]] = {}
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
        line = raw.strip()
        if not line:
            continue
        user, colon, rest = line.partition(":")
        if not colon:
            name = getattr(stream, "name", "<adjacency>")
            raise InputError(f"{name}:{lineno}: expected user_id: ids, got {line!r}")
        ids = {part.strip() for part in rest.split(",") if part.strip()}
        out.setdefault(user.strip(), set()).update(ids)
    return out


def write_edges_csv(path: str | Path, network) -> None:
    write_csv(path, ["from", "to"], network.edges)


def write_nodes_csv(path: str | Path, network) -> None:
    sign_text = {1: "positive", -1: "negative", 0: "none"}
    write_csv(path, ["id", "n_pos", "n_neg", "n_neu", "sign"], (
        [user, *tally, sign_text[_sign(tally)]]
        for user, tally in sorted(network.tallies.items())
    ))
