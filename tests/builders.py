"""Test inputs built from seeded streams: a four-class token corpus and
signed opinionated networks with planted homophily.

They share their vocabularies and edge draws with the pipeline fixture
in ``sentepi.synthetic``.
"""

from __future__ import annotations

import numpy as np

from sentepi.corpus import LABEL_ORDER, SentimentLabel
from sentepi.stats import RandomStream
from sentepi.synthetic import _class_vocabularies, _homophilous_edges

# Share of negative nodes in a synthetic opinionated network.
_P_NEGATIVE = 0.4


def synthetic_corpus(
    n_docs: int,
    stream: RandomStream,
    words_per_class: int = 60,
    shared_fraction: float = 0.2,
    doc_length: tuple[int, int] = (8, 20),
) -> list[tuple[list[str], SentimentLabel]]:
    """Generate a balanced four-class corpus of token lists.

    Each document samples its tokens uniformly from its class
    vocabulary; ``shared_fraction`` of every class vocabulary is common
    to all classes, so classes overlap but remain separable.
    """
    if n_docs < len(LABEL_ORDER):
        raise ValueError("need at least one document per class")
    vocabs = _class_vocabularies(words_per_class, shared_fraction)
    gen = stream.generator()
    docs = []
    for i in range(n_docs):
        label = LABEL_ORDER[i % len(LABEL_ORDER)]
        vocab = vocabs[label]
        length = int(gen.integers(doc_length[0], doc_length[1] + 1))
        tokens = [vocab[int(k)] for k in gen.integers(0, len(vocab), size=length)]
        docs.append((tokens, label))
    return docs


def synthetic_opinionated_network(
    n_nodes: int,
    n_edges: int,
    stream: RandomStream,
    homophily: float = 0.0,
) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Directed network with node signs and optional planted homophily.

    Each node is negative with probability ``_P_NEGATIVE``. With probability
    ``homophily`` an edge's target is forced to share the source's sign;
    otherwise targets are uniform. Returns (signs, edges) with signs in
    {+1, -1}.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if n_edges > n_nodes * (n_nodes - 1):
        raise ValueError("more edges requested than the graph can hold")
    gen = stream.generator()
    signs_arr = np.where(gen.random(n_nodes) < _P_NEGATIVE, -1, 1)
    if np.unique(signs_arr).size < 2:
        raise ValueError("one of the sign classes is empty; use more nodes or another stream")
    edges = _homophilous_edges(gen, signs_arr, n_edges, homophily)
    signs = {i: int(signs_arr[i]) for i in range(n_nodes)}
    return signs, sorted(edges)
