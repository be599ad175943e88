"""Naive Bayes and maximum-entropy classifiers plus the ensemble rule.

Both classifiers consume the same token-count features. The ensemble
lets Naive Bayes decide between positive and negative while the
maximum-entropy model owns the neutral/irrelevant verdicts; on conflict
the maximum-entropy decision is final.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence, get_type_hints

import numpy as np

from . import write_text
from .corpus import LABEL_ORDER, SentimentLabel, TokenVector

if TYPE_CHECKING:
    from scipy import sparse
logger = logging.getLogger(__name__)

__all__ = [
    "NaiveBayesModel",
    "MaxEntModel",
    "EnsembleModel",
    "featurize",
    "train_naive_bayes",
    "train_maxent",
    "ensemble_predict",
    "evaluate_accuracy",
    "save_ensemble",
    "load_ensemble",
]

MODEL_FORMAT_VERSION = 2

LabeledDoc = tuple[TokenVector, SentimentLabel]


def featurize(
    token_vectors: Sequence[TokenVector], vocabulary: Mapping[str, int]
) -> sparse.csr_matrix:
    """Token-count matrix: row i holds the counts of ``token_vectors[i]``
    in the columns ``vocabulary`` assigns; tokens outside it are dropped.

    Both classifiers train and predict on this one representation.
    """
    from scipy import sparse
    indptr, indices, data = [0], [], []
    for tv in token_vectors:
        for token, count in tv.counts.items():
            col = vocabulary.get(token)
            if col is not None:
                indices.append(col)
                data.append(count)
        indptr.append(len(indices))
    # int32 indices are what scipy picks for these sizes; passing them
    # skips a conversion that costs as much as scoring one document
    X = sparse.csr_matrix(
        (
            np.asarray(data, dtype=float),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(len(indptr) - 1, len(vocabulary)),
    )
    X.sort_indices()
    return X


class _LinearClassifier:
    """Prediction shared by both classifiers: the argmax over labels of
    ``X @ W.T + b`` on the token counts, ties going to the earlier label.

    Subclasses hold W column-major so that ``W.T`` is C-contiguous: the
    sparse product would otherwise copy W on every call, which dominates
    scoring a single document. ``_COEFFICIENTS`` names their W (K, V)
    and b (K,) fields, which must be finite.
    """

    def __post_init__(self):
        w, _ = self._COEFFICIENTS
        setattr(self, w, np.asfortranarray(getattr(self, w)))
        if not all(np.isfinite(c).all() for c in self._coefficients()):
            raise ValueError("non-finite model parameters")

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        w, b = self._COEFFICIENTS
        return getattr(self, w), getattr(self, b)

    def _scores(self, X: sparse.csr_matrix) -> np.ndarray:
        W, b = self._coefficients()
        return X @ W.T + b

    def _labels_of(self, X: sparse.csr_matrix) -> list[SentimentLabel]:
        return [self.labels[k] for k in np.argmax(self._scores(X), axis=1).tolist()]

    def predict_batch(self, token_vectors: Sequence[TokenVector]) -> list[SentimentLabel]:
        return self._labels_of(featurize(token_vectors, self.vocabulary))

    def predict(self, tv: TokenVector) -> SentimentLabel:
        return self.predict_batch([tv])[0]


@dataclass
class NaiveBayesModel(_LinearClassifier):
    """Multinomial Naive Bayes with add-constant smoothing."""

    _COEFFICIENTS = ("log_cond", "log_priors")

    labels: tuple[SentimentLabel, ...]
    vocabulary: dict[str, int]  # token -> feature column, in column order
    log_priors: np.ndarray  # (K,)
    log_cond: np.ndarray  # (K, V)
    smoothing: float

    def __post_init__(self):
        super().__post_init__()
        priors = np.exp(self.log_priors)
        if abs(priors.sum() - 1.0) > 1e-9:
            raise ValueError("class priors do not sum to 1")
        if self.log_cond.shape[1] > 0:
            cond_sums = np.exp(self.log_cond).sum(axis=1)
            if np.any(np.abs(cond_sums - 1.0) > 1e-9):
                raise ValueError("conditional distributions do not sum to 1")


@dataclass
class MaxEntModel(_LinearClassifier):
    """Multinomial logistic regression over token counts."""

    _COEFFICIENTS = ("weights", "bias")

    labels: tuple[SentimentLabel, ...]
    vocabulary: dict[str, int]  # token -> feature column, in column order
    weights: np.ndarray  # (K, V)
    bias: np.ndarray  # (K,)
    l2: float
    converged: bool
    n_iter: int

    def predict_proba(self, tv: TokenVector) -> np.ndarray:
        s = self._scores(featurize([tv], self.vocabulary))[0]
        s -= s.max()
        e = np.exp(s)
        return e / e.sum()


@dataclass
class EnsembleModel:
    nb: NaiveBayesModel
    maxent: MaxEntModel

    def __post_init__(self):
        if self.nb.labels != self.maxent.labels:
            raise ValueError("sub-models were trained on different label sets")
        if self.nb.vocabulary != self.maxent.vocabulary:
            raise ValueError("sub-models were trained on different vocabularies")

    @property
    def vocabulary(self) -> dict[str, int]:
        return self.nb.vocabulary

    def predict_batch(self, token_vectors: Sequence[TokenVector]) -> list[SentimentLabel]:
        X = featurize(token_vectors, self.vocabulary)
        return [
            ensemble_predict(nb_label, me_label)
            for nb_label, me_label in zip(self.nb._labels_of(X), self.maxent._labels_of(X))
        ]

    def predict(self, tv: TokenVector) -> SentimentLabel:
        return self.predict_batch([tv])[0]


def _training_set(
    docs: Sequence[LabeledDoc],
) -> tuple[tuple[SentimentLabel, ...], dict[str, int], sparse.csr_matrix, np.ndarray]:
    """Labels present, union vocabulary in sorted order, features and
    label codes of a training set."""
    if not docs:
        raise ValueError("empty training set")
    present = {label for _, label in docs}
    labels = tuple(lab for lab in LABEL_ORDER if lab in present)
    if len(labels) < 2:
        raise ValueError(
            f"training needs at least two classes, got {len(labels)}"
        )
    tokens = set()
    for tv, _ in docs:
        tokens.update(tv.counts)
    vocabulary = {token: i for i, token in enumerate(sorted(tokens))}
    X = featurize([tv for tv, _ in docs], vocabulary)
    y = np.array([labels.index(label) for _, label in docs], dtype=np.int64)
    return labels, vocabulary, X, y


def train_naive_bayes(docs: Sequence[LabeledDoc], smoothing: float = 1.0) -> NaiveBayesModel:
    """Train multinomial NB over the union vocabulary of ``docs``.

    The smoothing constant is added to each class-conditional token
    frequency rather than to raw counts, so the fitted model depends
    only on the empirical distributions: duplicating the whole corpus k
    times changes nothing.
    """
    from scipy import sparse
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    labels, vocabulary, X, y = _training_set(docs)
    k, v = len(labels), len(vocabulary)

    indicator = sparse.csr_matrix(
        (np.ones(y.size), (np.arange(y.size), y)), shape=(y.size, k)
    )
    doc_counts = np.bincount(y, minlength=k).astype(float)
    token_counts = (indicator.T @ X).toarray()

    log_priors = np.log(doc_counts / doc_counts.sum())
    totals = token_counts.sum(axis=1, keepdims=True)
    freq = np.divide(
        token_counts, totals, out=np.zeros_like(token_counts), where=totals > 0
    )
    if v > 0:  # classes with no tokens at all fall back to uniform
        freq[totals[:, 0] == 0] = 1.0 / v
    log_cond = np.log(freq + smoothing) - math.log(1.0 + smoothing * v)
    return NaiveBayesModel(
        labels=labels,
        vocabulary=vocabulary,
        log_priors=log_priors,
        log_cond=log_cond,
        smoothing=float(smoothing),
    )


def maxent_objective(
    weights: np.ndarray,
    bias: np.ndarray,
    X: sparse.csr_matrix,
    y: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """L2-penalized log-likelihood and its gradient.

    Returns (objective, grad_weights, grad_bias). The penalty applies to
    the weights only, never the biases. Exposed at module level so the
    gradient can be checked against finite differences.
    """
    n = X.shape[0]
    scores = X @ weights.T + bias  # (n, K)
    shift = scores.max(axis=1, keepdims=True)
    log_z = shift[:, 0] + np.log(np.exp(scores - shift).sum(axis=1))
    log_probs = scores - log_z[:, None]
    ll = float(log_probs[np.arange(n), y].sum()) - 0.5 * l2 * float((weights**2).sum())

    probs = np.exp(log_probs)
    resid = -probs
    resid[np.arange(n), y] += 1.0
    grad_w = (resid.T @ X) - l2 * weights
    grad_b = resid.sum(axis=0)
    return ll, np.asarray(grad_w), grad_b


def train_maxent(
    docs: Sequence[LabeledDoc],
    l2: float = 0.1,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> MaxEntModel:
    """Fit by full-batch gradient ascent with backtracking line search.

    Converged when the gradient max-norm drops below ``tol``; otherwise
    stops at ``max_iter`` and logs that the cap was hit.
    """
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    labels, vocabulary, X, y = _training_set(docs)
    k, v = len(labels), len(vocabulary)

    weights = np.zeros((k, v))
    bias = np.zeros(k)
    step = 1.0
    converged = False
    n_iter = 0
    obj, grad_w, grad_b = maxent_objective(weights, bias, X, y, l2)
    for it in range(1, max_iter + 1):
        n_iter = it
        if not math.isfinite(obj):
            raise ArithmeticError(f"non-finite objective at iteration {it}")
        grad_norm = max(
            float(np.abs(grad_w).max(initial=0.0)), float(np.abs(grad_b).max(initial=0.0))
        )
        if grad_norm < tol:
            converged = True
            n_iter = it - 1
            break
        sq = float((grad_w**2).sum() + (grad_b**2).sum())
        # Backtracking Armijo search along the gradient direction.
        trial = step
        for _ in range(60):
            new_w = weights + trial * grad_w
            new_b = bias + trial * grad_b
            new_obj, new_gw, new_gb = maxent_objective(new_w, new_b, X, y, l2)
            if math.isfinite(new_obj) and new_obj >= obj + 1e-4 * trial * sq:
                break
            trial *= 0.5
        else:
            raise ArithmeticError(f"line search failed at iteration {it}")
        weights, bias = new_w, new_b
        obj, grad_w, grad_b = new_obj, new_gw, new_gb
        step = trial * 2.0

    if converged:
        logger.info("maxent converged after %d iterations", n_iter)
    else:
        logger.info("maxent stopped at the %d-iteration cap", max_iter)
    return MaxEntModel(
        labels=labels,
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        l2=float(l2),
        converged=converged,
        n_iter=n_iter,
    )


def ensemble_predict(
    nb_label: SentimentLabel, me_label: SentimentLabel
) -> SentimentLabel:
    """Combine the two verdicts: MaxEnt is final for neutral/irrelevant,
    Naive Bayes decides between positive and negative otherwise."""
    if me_label in (SentimentLabel.NEUTRAL, SentimentLabel.IRRELEVANT):
        return me_label
    return nb_label


def evaluate_accuracy(model, testset: Sequence[LabeledDoc]) -> float:
    """Fraction of exact label matches of ``model.predict_batch`` on ``testset``."""
    if not testset:
        raise ValueError("empty test set")
    predicted = model.predict_batch([tv for tv, _ in testset])
    hits = sum(1 for guess, (_, label) in zip(predicted, testset) if guess == label)
    return hits / len(testset)


# What a model file stores per sub-model: every field but the labels and
# vocabulary, which the file holds once for both.
_SHARED = ("labels", "vocabulary")
_SUBMODELS = {"nb": NaiveBayesModel, "maxent": MaxEntModel}


def _schema(cls) -> dict[str, type]:
    return {name: hint for name, hint in get_type_hints(cls).items() if name not in _SHARED}


def save_ensemble(model: EnsembleModel, path: str | Path) -> None:
    """Write the ensemble to a versioned JSON file."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "labels": [lab.value for lab in model.nb.labels],
        "vocabulary": list(model.vocabulary),
    }
    for key, cls in _SUBMODELS.items():
        sub = getattr(model, key)
        payload[key] = {
            name: getattr(sub, name).tolist() if hint is np.ndarray else getattr(sub, name)
            for name, hint in _schema(cls).items()
        }
    write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def _expect_fields(data, names) -> None:
    if not isinstance(data, dict) or set(data) != set(names):
        got = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"expected the fields {sorted(names)}, got {got}")


def load_ensemble(path: str | Path) -> EnsembleModel:
    """Load a model file written by :func:`save_ensemble`.

    Fails loudly on other format versions, version 1 included: its
    files hold the vocabulary once per sub-model and must be retrained.
    Anything else that is not such a model raises ValueError naming
    ``path``.
    """
    try:
        payload = json.loads(Path(path).read_text())
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format version {version!r} "
                f"(expected {MODEL_FORMAT_VERSION})"
            )
        _expect_fields(payload, ["format_version", *_SHARED, *_SUBMODELS])
        labels = tuple(SentimentLabel(v) for v in payload["labels"])
        vocabulary = {token: i for i, token in enumerate(payload["vocabulary"])}
        shapes = [(len(labels), len(vocabulary)), (len(labels),)]
        subs = {}
        for key, cls in _SUBMODELS.items():
            schema = _schema(cls)
            _expect_fields(payload[key], schema)
            values = {
                name: np.asarray(value, dtype=float) if schema[name] is np.ndarray else value
                for name, value in payload[key].items()
            }
            for name, shape in zip(cls._COEFFICIENTS, shapes):
                if values[name].shape != shape:
                    raise ValueError(
                        f"{key}.{name} has shape {values[name].shape}, expected {shape}"
                    )
            subs[key] = cls(labels=labels, vocabulary=vocabulary, **values)
        return EnsembleModel(**subs)
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: not a readable model file: {exc}") from None
