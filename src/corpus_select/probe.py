"""Cross-view predictability probe.

Measures how much information one embedding view shares with another:
cluster the target view, treat the cluster ids as pseudo-labels, then
train a multinomial logistic regression on the source view to predict
them and report held-out accuracy next to the chance level. High accuracy
means the two views encode similar factors; accuracy near chance means
the target view carries information the source view does not.

Views are plain N x D matrices whose rows align across views; a view's
name travels beside it, as its key in `probe_matrix`'s dict or as
`fit_predict`'s `source_name`.

The classifier is full-batch gradient descent on softmax cross-entropy
with an L2 penalty. Steps that fail to lower the loss are rejected and
the step halved, clean improvements let the step grow, and plateaus decay
it, so the recorded loss history is non-increasing by construction and
the starting learning rate only sets the scale of the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corpus_select.compaction import KMeansConfig, kmeans
from corpus_select.errors import DataError, DegenerateSplit, DimensionMismatch, TooFewRows
from corpus_select.rng import generator, subseed

_L2_PENALTY = 1e-4
_MAX_EPOCHS = 200
_LEARNING_RATE = 0.1
_PLATEAU_REL = 1e-6
_MIN_LR = 1e-10
_TRAIN_FRACTION = 0.8  # share of each class in the train split


@dataclass(frozen=True)
class ProbeConfig:
    clusters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError(f"clusters must be positive, got {self.clusters}")


@dataclass(frozen=True)
class ProbeReport:
    """Held-out accuracy of predicting `target`'s clusters from `source`.

    `chance` is the majority-class frequency of the pseudo-labels, i.e.
    1/clusters adjusted for label imbalance.
    """

    source: str
    target: str
    accuracy: float
    chance: float
    n_train: int
    n_heldout: int


def pseudo_label(rows: np.ndarray, cfg: ProbeConfig) -> np.ndarray:
    """Cluster a view's rows into cfg.clusters groups; the assignment is the label."""
    if rows.shape[0] < cfg.clusters:
        raise TooFewRows(
            f"need at least {cfg.clusters} rows to form {cfg.clusters} clusters, "
            f"got {rows.shape[0]}"
        )
    clustering = kmeans(
        rows, KMeansConfig(k=cfg.clusters, seed=subseed(cfg.seed, "pseudo-label"))
    )
    return clustering.assignments


def softmax_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy with 0.5*l2*||W||^2, and its gradient.

    The bias is not penalized. Exposed so the analytic gradient can be
    checked against finite differences.
    """
    n = x.shape[0]
    logits = x @ weights + bias
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    log_p = logits - log_z[:, None]
    loss = -log_p[np.arange(n), y].mean() + 0.5 * l2_penalty * float((weights**2).sum())
    grad_logits = np.exp(log_p)
    grad_logits[np.arange(n), y] -= 1.0
    grad_logits /= n
    grad_w = x.T @ grad_logits + l2_penalty * weights
    grad_b = grad_logits.sum(axis=0)
    return float(loss), grad_w, grad_b


def _stratified_split(labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split, `_TRAIN_FRACTION` of each class to train; singleton classes go to the train side."""
    train: list[np.ndarray] = []
    held: list[np.ndarray] = []
    for cls in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == cls))
        if members.size == 1:
            train.append(members)
            continue
        n_train = int(round(_TRAIN_FRACTION * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train.append(members[:n_train])
        held.append(members[n_train:])
    train_idx = np.sort(np.concatenate(train))
    held_idx = np.sort(np.concatenate(held)) if held else np.array([], dtype=np.int64)
    return train_idx, held_idx


def _fit(
    x_train: np.ndarray, y_train: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Full-batch descent with reject-and-halve steps; returns loss history."""
    weights = np.zeros((x_train.shape[1], n_classes), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)
    loss, grad_w, grad_b = softmax_loss_and_grad(weights, bias, x_train, y_train, _L2_PENALTY)
    history = [loss]
    lr = _LEARNING_RATE
    for _ in range(_MAX_EPOCHS):
        w_next = weights - lr * grad_w
        b_next = bias - lr * grad_b
        loss_next, gw_next, gb_next = softmax_loss_and_grad(
            w_next, b_next, x_train, y_train, _L2_PENALTY
        )
        if loss_next <= loss:
            improved = loss - loss_next
            weights, bias, grad_w, grad_b = w_next, b_next, gw_next, gb_next
            if improved < _PLATEAU_REL * max(1.0, abs(loss)):
                lr *= 0.5  # plateau: decay and keep going
            else:
                lr *= 1.5  # clean improvement: let the step grow
            loss = loss_next
        else:
            lr *= 0.5  # overshoot: reject the step and retry smaller
        history.append(loss)
        if lr < _MIN_LR:
            break
    return weights, bias, history


def fit_predict(
    source: np.ndarray,
    labels: np.ndarray,
    cfg: ProbeConfig,
    *,
    source_name: str = "source",
    label_name: str = "labels",
) -> ProbeReport:
    """Train the probe on a seeded stratified split and score the held-out part."""
    x = np.asarray(source, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"source has {x.shape[0]} rows but labels {y.shape[0]}")

    rng = generator(cfg.seed, "probe-split")
    train_idx, held_idx = _stratified_split(y, rng)
    if (
        np.unique(y[train_idx]).size < 2
        or held_idx.size == 0
        or np.unique(y[held_idx]).size < 2
    ):
        raise DegenerateSplit(
            "train and held-out splits must each contain at least 2 distinct labels"
        )

    n_classes = int(y.max()) + 1
    weights, bias, _ = _fit(x[train_idx], y[train_idx], n_classes)

    logits = x[held_idx] @ weights + bias
    predictions = logits.argmax(axis=1)
    accuracy = float((predictions == y[held_idx]).mean())
    chance = float(np.bincount(y).max() / y.shape[0])
    return ProbeReport(
        source_name, label_name, accuracy, chance, int(train_idx.size), int(held_idx.size)
    )


def probe_matrix(views: dict[str, np.ndarray], cfg: ProbeConfig) -> list[ProbeReport]:
    """One report per ordered (source, target) view pair, self-pairs included.

    Every fit uses the same split seed so self- and cross-prediction
    accuracies are comparable.
    """
    names = list(views)
    if len(names) < 2:
        raise DataError(f"probe matrix needs at least 2 views, got {len(names)}")
    counts = {name: views[name].shape[0] for name in names}
    if len(set(counts.values())) != 1:
        raise DimensionMismatch(f"views must have equal row counts, got {counts}")

    labels = {name: pseudo_label(views[name], cfg) for name in names}
    reports = []
    for source_name in names:
        for target_name in names:
            reports.append(
                fit_predict(
                    views[source_name],
                    labels[target_name],
                    cfg,
                    source_name=source_name,
                    label_name=target_name,
                )
            )
    return reports
