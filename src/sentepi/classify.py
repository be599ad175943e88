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
from collections import deque
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

# Curvature pairs the MaxEnt L-BFGS keeps.
_MEMORY = 5

LabeledDoc = tuple[TokenVector, SentimentLabel]


@dataclass
class _Csr:
    """A token-count matrix in compressed-row form.

    Row r holds ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, ascending within the row;
    ``rows`` gives each nonzero's row and ``n_cols`` the vocabulary size.
    Prediction multiplies it here, by one model's coefficients or by the
    ensemble's stack of both; the MaxEnt objective multiplies
    :func:`_sparse` of it, whose kernels run several times faster on a
    training set but cost scipy's import. Both products give (n, K)
    scores; the objective turns them class-major itself.
    """

    data: np.ndarray  # float64
    indices: np.ndarray  # int32
    indptr: np.ndarray  # int32
    rows: np.ndarray  # intp
    n_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_cols

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """``X @ dense`` for a (V, K) array: one bincount over the K
        columns' bins laid end to end, each column's terms in nonzero
        order, which is the order scipy's CSR kernel adds them in. A
        column's sums do not depend on the other columns, so stacking
        two models' coefficients changes no score."""
        n, k = self.shape[0], dense.shape[1]
        terms = dense.T.take(self.indices, axis=1) * self.data  # (K, nnz)
        ids = (np.arange(k)[:, None] * n + self.rows).ravel()
        return np.bincount(ids, weights=terms.ravel(), minlength=k * n).reshape(k, n).T


def _sparse(X: _Csr) -> sparse.csr_matrix:
    """The same arrays as a ``scipy.sparse.csr_matrix``."""
    from scipy import sparse

    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def featurize(token_vectors: Sequence[TokenVector], vocabulary: Mapping[str, int]) -> _Csr:
    """Token-count matrix: row i holds the counts of ``token_vectors[i]``
    in the columns ``vocabulary`` assigns; tokens outside it are dropped.

    Both classifiers train and predict on this one representation;
    :func:`train_maxent` hands its arrays to a sparse matrix unchanged.
    """
    indptr, indices, data = [0], [], []
    for tv in token_vectors:
        for token, count in tv.counts.items():
            col = vocabulary.get(token)
            if col is not None:
                indices.append(col)
                data.append(count)
        indptr.append(len(indices))
    indptr, indices = np.asarray(indptr, dtype=np.int32), np.asarray(indices, dtype=np.int32)
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    # rows ascend already; a row holds each column once, so this key is unique
    order = np.argsort(rows * len(vocabulary) + indices)
    return _Csr(np.asarray(data, dtype=float)[order], indices[order], indptr, rows, len(vocabulary))


class _LinearClassifier:
    """Prediction shared by both classifiers: the argmax over labels of
    ``X @ W.T + b`` on the token counts, ties going to the earlier label.

    ``_COEFFICIENTS`` names the subclass's W (K, V) and b (K,) fields,
    which must be finite.
    """

    def __post_init__(self):
        if not all(np.isfinite(c).all() for c in self._coefficients()):
            raise ValueError("non-finite model parameters")

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        w, b = self._COEFFICIENTS
        return getattr(self, w), getattr(self, b)

    def predict_batch(self, token_vectors: Sequence[TokenVector]) -> list[SentimentLabel]:
        W, b = self._coefficients()
        scores = featurize(token_vectors, self.vocabulary) @ W.T + b
        return [self.labels[k] for k in np.argmax(scores, axis=1).tolist()]

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


@dataclass
class EnsembleModel:
    """Naive Bayes and MaxEnt over one label set and vocabulary.

    Construction stacks ``nb.log_cond`` over ``maxent.weights`` (2K, V)
    and ``nb.log_priors`` then ``maxent.bias`` (2K,), so prediction is one
    product whose two K-column halves hold each model's own scores, bit
    for bit; a changed sub-model needs a new ensemble.
    """

    nb: NaiveBayesModel
    maxent: MaxEntModel

    def __post_init__(self):
        if self.nb.labels != self.maxent.labels:
            raise ValueError("sub-models were trained on different label sets")
        if self.nb.vocabulary != self.maxent.vocabulary:
            raise ValueError("sub-models were trained on different vocabularies")
        pairs = zip(self.nb._coefficients(), self.maxent._coefficients())
        self._stacked = [np.concatenate(pair) for pair in pairs]

    @property
    def vocabulary(self) -> dict[str, int]:
        return self.nb.vocabulary

    def predict_batch(self, token_vectors: Sequence[TokenVector]) -> list[SentimentLabel]:
        W, b = self._stacked
        scores = featurize(token_vectors, self.vocabulary) @ W.T + b
        best = np.argmax(scores.reshape(len(scores), 2, -1), axis=2)  # (n, [NB, MaxEnt])
        labels = self.nb.labels
        return [ensemble_predict(labels[i], labels[j]) for i, j in best.tolist()]

    def predict(self, tv: TokenVector) -> SentimentLabel:
        return self.predict_batch([tv])[0]


def _training_set(
    docs: Sequence[LabeledDoc],
) -> tuple[tuple[SentimentLabel, ...], dict[str, int], _Csr, np.ndarray]:
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
        tokens.update(tv.tokens)
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
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    labels, vocabulary, X, y = _training_set(docs)
    k, v = len(labels), len(vocabulary)

    doc_counts = np.bincount(y, minlength=k).astype(float)
    token_counts = np.bincount(
        y[X.rows] * v + X.indices, weights=X.data, minlength=k * v
    ).reshape(k, v)

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
    the weights only, never the biases. ``X`` is the :func:`_sparse`
    matrix made of :func:`featurize`'s. Exposed at module level so the
    gradient can be checked against finite differences.

    Scores, log-probabilities and residuals are class-major (K, n)
    arrays: numpy reduces over their first axis as K - 1 whole-row ufunc
    calls, where along the K-wide last axis of an (n, K) array it loops
    per document. It adds the classes in the same order either way for
    K < 8 (there are at most four labels), and the residual goes back to
    (n, K) for the weight product and the bias sum, so every bit equals
    that of the (n, K) computation.
    """
    n = X.shape[0]
    scores = np.add((X @ weights.T).T, bias[:, None], order="C")  # (K, n)
    shift = scores.max(axis=0)
    log_z = shift + np.log(np.exp(scores - shift).sum(axis=0))
    log_probs = scores - log_z
    true_class = y * n + np.arange(n)  # flat index of (y[i], i)
    ll = float(log_probs.ravel()[true_class].sum()) - 0.5 * l2 * float((weights**2).sum())

    resid = -np.exp(log_probs)
    resid.ravel()[true_class] += 1.0
    resid = np.ascontiguousarray(resid.T)  # (n, K)
    grad_w = (X.T @ resid).T - l2 * weights
    grad_b = resid.sum(axis=0)
    return ll, np.asarray(grad_w), grad_b


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` by numpy's pairwise sum. A threaded BLAS ``ddot`` adds in
    an order set by its thread count, so the fit would depend on the host."""
    return float(np.multiply(a, b).sum())


def train_maxent(
    docs: Sequence[LabeledDoc],
    l2: float = 0.1,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> MaxEntModel:
    """Fit by limited-memory BFGS (Nocedal 1980; Liu & Nocedal 1989).

    The two-loop recursion keeps the last ``_MEMORY`` curvature pairs,
    each only if its ``s·y`` is positive, and scales the first step by
    ``1 / max|g|``; every step then passes a backtracking Armijo test.
    Converged when the gradient max-norm drops below ``tol``; otherwise
    stops at ``max_iter`` and logs that the cap was hit.
    """
    if not (math.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 must be finite and non-negative, got {l2!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    labels, vocabulary, X, y = _training_set(docs)
    k, v = len(labels), len(vocabulary)
    X = _sparse(X)  # once, not on every objective call

    def evaluate(theta):  # theta is the weights, row by row, then the bias
        obj, grad_w, grad_b = maxent_objective(
            theta[: k * v].reshape(k, v), theta[k * v :], X, y, l2
        )
        return obj, np.concatenate([grad_w.ravel(), grad_b])

    theta = np.zeros(k * v + k)
    pairs = deque(maxlen=_MEMORY)  # (s, y, 1 / s·y), oldest first
    converged = False
    n_iter = 0
    obj, grad = evaluate(theta)
    for it in range(1, max_iter + 1):
        n_iter = it
        if not math.isfinite(obj):
            raise ArithmeticError(f"non-finite objective at iteration {it}")
        grad_norm = float(np.abs(grad).max())
        if grad_norm < tol:
            converged = True
            n_iter = it - 1
            break
        # Two-loop recursion: direction = (approximate inverse of the
        # negative Hessian) @ grad, an ascent direction while every
        # stored pair has s·y > 0.
        direction = grad.copy()
        alphas = []
        for s, yv, rho in reversed(pairs):
            alphas.append(rho * _dot(s, direction))
            direction -= alphas[-1] * yv
        if pairs:
            s, yv, _ = pairs[-1]
            direction *= _dot(s, yv) / _dot(yv, yv)
        else:
            direction /= grad_norm
        for (s, yv, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * _dot(yv, direction)) * s
        slope = _dot(grad, direction)
        trial = 1.0
        for _ in range(60):
            new_theta = theta + trial * direction
            new_obj, new_grad = evaluate(new_theta)
            if math.isfinite(new_obj) and new_obj >= obj + 1e-4 * trial * slope:
                break
            trial *= 0.5
        else:
            raise ArithmeticError(f"line search failed at iteration {it}")
        s, yv = new_theta - theta, grad - new_grad
        sy = _dot(s, yv)
        if sy > 0:
            pairs.append((s, yv, 1.0 / sy))
        theta, obj, grad = new_theta, new_obj, new_grad

    if converged:
        logger.info("maxent converged after %d iterations", n_iter)
    else:
        logger.info("maxent stopped at the %d-iteration cap", max_iter)
    return MaxEntModel(
        labels=labels,
        vocabulary=vocabulary,
        weights=theta[: k * v].reshape(k, v),
        bias=theta[k * v :].copy(),
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
    """Write the ensemble to a versioned, compact JSON file."""
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
    write_text(path, json.dumps(payload, sort_keys=True))


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
