import json
import math
import re
from itertools import product

import numpy as np
import pytest
from scipy import sparse

from sentepi.classify import (
    EnsembleModel,
    ensemble_predict,
    evaluate_accuracy,
    featurize,
    load_ensemble,
    maxent_objective,
    save_ensemble,
    train_maxent,
    train_naive_bayes,
)
from sentepi.corpus import LABEL_ORDER, SentimentLabel, TokenVector
from sentepi.stats import derive_stream
from sentepi.synthetic import synthetic_corpus

POS = SentimentLabel.POSITIVE
NEG = SentimentLabel.NEGATIVE
NEU = SentimentLabel.NEUTRAL
IRR = SentimentLabel.IRRELEVANT


def tv(*tokens):
    return TokenVector.from_tokens(tokens)


def separable_docs():
    return [
        (tv("good", "shot"), POS),
        (tv("good"), POS),
        (tv("bad", "shot"), NEG),
        (tv("bad"), NEG),
    ]


class TestNaiveBayes:
    def test_separable_vocabulary(self):
        model = train_naive_bayes(separable_docs())
        assert model.predict(tv("good")) == POS
        assert model.predict(tv("bad")) == NEG

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_naive_bayes([(tv("good"), POS), (tv("fine"), POS)])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_infinite_smoothing_rejected(self):
        # every log_cond would be NaN, which no JSON model file can hold
        with pytest.raises(ValueError, match="non-finite model parameters"):
            train_naive_bayes(separable_docs(), smoothing=math.inf)

    def test_unseen_token_ties_break_by_label_order(self):
        docs = []
        for label in LABEL_ORDER:
            word = label.value
            docs.append((tv(word), label))
            docs.append((tv(word), label))
        model = train_naive_bayes(docs)
        # token absent from the vocabulary contributes nothing; uniform
        # priors leave a four-way tie, resolved by the fixed order
        assert model.predict(tv("zzz-unseen")) == POS

    def test_priors_and_conditionals_normalized(self):
        model = train_naive_bayes(separable_docs())
        assert np.exp(model.log_priors).sum() == pytest.approx(1.0, abs=1e-12)
        sums = np.exp(model.log_cond).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_duplicating_corpus_changes_nothing(self):
        docs = separable_docs()
        base = train_naive_bayes(docs)
        tripled = train_naive_bayes(docs * 3)
        assert np.array_equal(base.log_priors, tripled.log_priors)
        assert np.array_equal(base.log_cond, tripled.log_cond)

    def test_empty_vector_predicts_prior_argmax(self):
        docs = separable_docs() + [(tv("meh"), NEU), (tv("meh", "meh"), NEU)]
        docs += [(tv("meh2"), NEU)]
        model = train_naive_bayes(docs)
        # neutral holds 3 of 7 docs, the strict prior argmax
        assert model.predict(tv()) == NEU

    def test_overwhelming_evidence(self):
        docs = separable_docs()
        model = train_naive_bayes(docs)
        assert model.predict(TokenVector.from_tokens(["bad"] * 100)) == NEG

    def test_deterministic(self):
        model = train_naive_bayes(separable_docs())
        x = tv("good", "bad", "shot")
        assert model.predict(x) == model.predict(x)

    def test_smoothing_must_be_positive(self):
        with pytest.raises(ValueError):
            train_naive_bayes(separable_docs(), smoothing=0.0)


def random_docs(n_docs, n_tokens, seed, labels=LABEL_ORDER):
    gen = derive_stream(seed).generator()
    vocab = [f"w{i}" for i in range(n_tokens)]
    docs = []
    for i in range(n_docs):
        label = labels[i % len(labels)]
        k = int(gen.integers(1, 6))
        tokens = [vocab[int(j)] for j in gen.integers(0, n_tokens, size=k)]
        docs.append((tv(*tokens), label))
    return docs


class TestMaxEnt:
    def test_linearly_separable_training_accuracy(self):
        docs = [(tv(f"g{i % 5}", "good"), POS) for i in range(5)]
        docs += [(tv(f"b{i % 5}", "bad"), NEG) for i in range(5)]
        model = train_maxent(docs, l2=0.01)
        assert evaluate_accuracy(model, docs) == 1.0

    def test_gradient_matches_central_differences(self):
        docs = random_docs(5, 7, seed=3)
        labels = tuple(sorted({lab for _, lab in docs}, key=LABEL_ORDER.index))
        vocab = sorted({t for d, _ in docs for t in d.counts})
        X = featurize([d for d, _ in docs], {t: i for i, t in enumerate(vocab)})
        y = np.array([labels.index(lab) for _, lab in docs])
        gen = derive_stream(4).generator()
        weights = gen.normal(scale=0.5, size=(len(labels), len(vocab)))
        bias = gen.normal(scale=0.5, size=len(labels))
        l2 = 0.1

        _, grad_w, grad_b = maxent_objective(weights, bias, X, y, l2)
        h = 1e-6
        worst = 0.0
        for arr, grad in ((weights, grad_w), (bias, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _ = maxent_objective(weights, bias, X, y, l2)
                arr[idx] = orig - h
                down, _, _ = maxent_objective(weights, bias, X, y, l2)
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(1.0, abs(numeric))
                worst = max(worst, abs(numeric - grad[idx]) / denom)
        assert worst < 1e-4

    def test_huge_l2_collapses_to_prior_class(self):
        docs = [(tv(f"p{i}"), POS) for i in range(6)]
        docs += [(tv(f"n{i}"), NEG) for i in range(2)]
        docs += [(tv(f"m{i}"), NEU) for i in range(2)]
        model = train_maxent(docs, l2=1e7, max_iter=300)
        assert float(np.abs(model.weights).max()) < 1e-4
        for x in (tv("n0"), tv("m1"), tv("p3"), tv()):
            assert model.predict(x) == POS

    def test_probabilities_sum_to_one(self):
        model = train_maxent(separable_docs(), max_iter=50)
        for x in (tv(), tv("good"), tv("bad", "shot"), tv("unseen")):
            assert model.predict_proba(x).sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_vector_predicts_bias_argmax(self):
        docs = [(tv(f"p{i}"), POS) for i in range(8)]
        docs += [(tv(f"n{i}"), NEG) for i in range(2)]
        model = train_maxent(docs)
        assert model.predict(tv()) == POS

    def test_deterministic_and_unseen_tokens_ignored(self):
        model = train_maxent(separable_docs())
        assert model.predict(tv("good", "novel")) == model.predict(tv("good"))


class TestEnsemble:
    def test_maxent_final_on_conflict(self):
        assert ensemble_predict(POS, NEU) == NEU

    def test_agreement_passes_through(self):
        assert ensemble_predict(POS, POS) == POS

    def test_nb_owns_polarity_verdict(self):
        assert ensemble_predict(NEU, POS) == NEU

    def test_rule_over_all_pairs(self):
        # A neutral/irrelevant verdict from maxent is always final. The
        # converse does not hold: (nb=neutral, me=positive) -> neutral,
        # because nb owns the polarity call and declined to make one.
        for nb_label, me_label in product(LABEL_ORDER, LABEL_ORDER):
            out = ensemble_predict(nb_label, me_label)
            if me_label in (NEU, IRR):
                assert out == me_label
            else:
                assert out == nb_label
            if me_label in (NEU, IRR):
                assert out in (NEU, IRR)

    def test_label_set_mismatch_rejected(self):
        nb = train_naive_bayes(separable_docs())
        maxent = train_maxent(separable_docs() + [(tv("meh"), NEU)])
        with pytest.raises(ValueError):
            EnsembleModel(nb=nb, maxent=maxent)


    def test_vocabulary_mismatch_rejected(self):
        nb = train_naive_bayes(separable_docs())
        maxent = train_maxent(separable_docs() + [(tv("good", "extra"), POS)])
        with pytest.raises(ValueError, match="vocabularies"):
            EnsembleModel(nb=nb, maxent=maxent)


class TestEvaluateAccuracy:
    def test_perfect_fit_on_own_training_doc(self):
        docs = separable_docs()
        model = train_naive_bayes(docs)
        assert evaluate_accuracy(model, [docs[0]]) == 1.0

    def test_constant_model_on_balanced_set(self):
        class Constant:
            def predict_batch(self, token_vectors):
                return [POS] * len(token_vectors)

        testset = [(tv("x"), lab) for lab in LABEL_ORDER] * 3
        assert evaluate_accuracy(Constant(), testset) == 0.25

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(train_naive_bayes(separable_docs()), [])


class TestSerialization:
    def _model(self):
        docs = separable_docs() + [(tv("meh"), NEU), (tv("off", "topic"), IRR)]
        return EnsembleModel(
            nb=train_naive_bayes(docs), maxent=train_maxent(docs, max_iter=80)
        )

    def test_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_ensemble(model, path)
        loaded = load_ensemble(path)
        for x in (tv(), tv("good"), tv("meh"), tv("off")):
            assert loaded.predict(x) == model.predict(x)

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = self._model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_ensemble(model, a)
        save_ensemble(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_version_fails_loudly(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_ensemble(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: [],
            lambda payload: {"format_version": 2},
            lambda payload: {**payload, "extra": 1},
            lambda payload: {**payload, "nb": {**payload["nb"], "extra": 1}},
            lambda payload: {**payload, "maxent": {
                k: v for k, v in payload["maxent"].items() if k != "bias"}},
            lambda payload: {**payload, "nb": [1]},
            lambda payload: {**payload, "labels": "positive"},
        ],
        ids=["list", "version-only", "unknown-field", "unknown-nb-field",
             "missing-maxent-field", "nb-not-object", "labels-not-a-list"],
    )
    def test_non_model_payload_rejected_naming_the_file(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_ensemble(self._model(), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a readable model"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda p: p["maxent"].update(weights=[row[:-1] for row in p["maxent"]["weights"]]),
             "maxent.weights"),
            (lambda p: p["maxent"].update(bias=[p["maxent"]["bias"]]), "maxent.bias"),
            (lambda p: p["nb"].update(log_cond=p["nb"]["log_cond"][:-1]), "nb.log_cond"),
            (lambda p: p["nb"]["log_priors"].append(0.0), "nb.log_priors"),
            (lambda p: p["vocabulary"].append("zzz"), "nb.log_cond"),
        ],
        ids=["weights-column-cut", "bias-2d", "log-cond-row-cut", "extra-prior", "extra-token"],
    )
    def test_array_shape_mismatch_rejected_naming_the_field(self, tmp_path, edit, field):
        path = tmp_path / "model.json"
        save_ensemble(self._model(), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        prefix = f"{path}: not a readable model file: {field} has shape "
        with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
            load_ensemble(path)

    def test_single_vocabulary_and_version_1_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_ensemble(self._model(), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert "vocabulary" not in payload["nb"]
        assert "vocabulary" not in payload["maxent"]
        payload["format_version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_ensemble(path)


class TestOnSyntheticCorpus:
    def test_ensemble_accuracy_small_scale(self):
        raw = synthetic_corpus(600, derive_stream(17))
        docs = [(TokenVector.from_tokens(toks), lab) for toks, lab in raw]
        gen = derive_stream(17, 1).generator()
        order = gen.permutation(len(docs))
        test = [docs[i] for i in order[:120]]
        train = [docs[i] for i in order[120:]]
        model = EnsembleModel(
            nb=train_naive_bayes(train),
            maxent=train_maxent(train, max_iter=200),
        )
        assert evaluate_accuracy(model, test) >= 0.9

    def test_batch_labels_equal_per_document_labels(self):
        raw = synthetic_corpus(600, derive_stream(19))
        docs = [(TokenVector.from_tokens(toks), lab) for toks, lab in raw]
        model = EnsembleModel(
            nb=train_naive_bayes(docs[:400]),
            maxent=train_maxent(docs[:400], max_iter=200),
        )
        vectors = [tv for tv, _ in docs]
        assert model.predict_batch(vectors) == [model.predict(tv) for tv in vectors]

        def per_token_labels(sub, W, b):
            # reference: accumulate each token's weight column document by document
            out = []
            for x in vectors:
                s = b.copy()
                for token, count in x.counts.items():
                    if token in sub.vocabulary:
                        s += count * W[:, sub.vocabulary[token]]
                out.append(sub.labels[int(np.argmax(s))])
            return out

        nb, me = model.nb, model.maxent
        assert nb.predict_batch(vectors) == per_token_labels(nb, nb.log_cond, nb.log_priors)
        assert me.predict_batch(vectors) == per_token_labels(me, me.weights, me.bias)
