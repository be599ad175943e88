import hashlib
from pathlib import Path

import numpy as np
import pytest

import sentepi
from sentepi.corpus import LABEL_ORDER
from sentepi.homophily import assortativity
from sentepi.stats import derive_stream
from sentepi.synthetic import default_contact_network, write_pipeline_fixture

from builders import synthetic_corpus, synthetic_opinionated_network


class TestSyntheticCorpus:
    def test_balanced_and_reproducible(self):
        docs = synthetic_corpus(400, derive_stream(1))
        per_label = {lab: 0 for lab in LABEL_ORDER}
        for _, lab in docs:
            per_label[lab] += 1
        assert set(per_label.values()) == {100}
        again = synthetic_corpus(400, derive_stream(1))
        assert docs == again

    def test_vocabulary_overlap_fraction(self):
        docs = synthetic_corpus(2000, derive_stream(2), words_per_class=60,
                                shared_fraction=0.2)
        vocab_by_label = {lab: set() for lab in LABEL_ORDER}
        for tokens, lab in docs:
            vocab_by_label[lab].update(tokens)
        shared = set.intersection(*vocab_by_label.values())
        assert all(t.startswith("common") for t in shared)
        assert len(shared) == 12  # 20% of 60

    def test_doc_lengths_within_bounds(self):
        docs = synthetic_corpus(200, derive_stream(3), doc_length=(5, 9))
        assert all(5 <= len(tokens) <= 9 for tokens, _ in docs)


class TestSyntheticOpinionatedNetwork:
    def test_shape_and_reproducibility(self):
        signs, edges = synthetic_opinionated_network(100, 500, derive_stream(4))
        assert len(signs) == 100
        assert len(edges) == 500
        assert set(signs.values()) <= {-1, 1}
        assert all(a != b for a, b in edges)
        again = synthetic_opinionated_network(100, 500, derive_stream(4))
        assert (signs, edges) == again

    def test_homophily_raises_assortativity(self):
        neutral = synthetic_opinionated_network(300, 2000, derive_stream(5))
        planted = synthetic_opinionated_network(
            300, 2000, derive_stream(5), homophily=0.7
        )
        r_neutral = assortativity(*neutral).r
        r_planted = assortativity(*planted).r
        assert r_planted > r_neutral + 0.1

    def test_impossible_edge_count_rejected(self):
        with pytest.raises(ValueError):
            synthetic_opinionated_network(5, 100, derive_stream(6))


class TestDefaultContactNetwork:
    def test_calibrated_shape(self):
        net = default_contact_network()
        assert net.n == 1000
        assert net.edge_w.min() >= 90
        # one undirected component by construction
        assert net.degrees.min() >= 1

    def test_network_is_pinned(self):
        net = default_contact_network()
        assert (net.n, net.m) == (1000, 3829)
        text = repr((net.n, net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "93b5b9eb37a692b2e2565d90b5b271c26a8981adc3dfb36dc07d63ad398cc555"
        )

    def test_bundled_file_holds_the_generated_network(self, tmp_path):
        # gen-net copies this file instead of drawing the network again
        net = default_contact_network()
        rows = zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist())
        sentepi.write_csv(tmp_path / "net.csv", ["u", "v", "w"], rows)
        bundled = Path(sentepi.__file__).with_name("contact_network.csv").read_bytes()
        assert bundled == (tmp_path / "net.csv").read_bytes()


class TestPipelineFixture:
    def test_files_written_and_deterministic(self, tmp_path):
        a = write_pipeline_fixture(tmp_path / "a", seed=11, n_users=30, n_tweets=150)
        b = write_pipeline_fixture(tmp_path / "b", seed=11, n_users=30, n_tweets=150)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes(), key

    def test_labeled_fraction(self, tmp_path):
        paths = write_pipeline_fixture(
            tmp_path, seed=12, n_users=20, n_tweets=100, labeled_fraction=0.5
        )
        labels = paths["labels"].read_text().splitlines()
        assert len(labels) == 51  # header plus half the tweets
        tweets = paths["tweets"].read_text().splitlines()
        assert len(tweets) == 100
