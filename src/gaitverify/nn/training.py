"""Mini-batch training loop with plateau schedule and best-checkpoint selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from .optim import Adam, PlateauScheduler


@dataclass
class TrainConfig:
    """Loop settings; the learning rate and its schedule are Adam's and PlateauScheduler's."""

    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidInputError("epochs and batch_size must be >= 1")


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class History:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def val_losses(self):
        return [e.val_loss for e in self.epochs]


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def evaluate_loss(model, x: np.ndarray, y, batch_size: int) -> float:
    """Mean loss over a dataset in inference mode (batch norm folded, running stats)."""
    total = 0.0
    for idx in _batches(x.shape[0], batch_size):
        yb = None if y is None else y[idx]
        total += model.loss_only(x[idx], yb, train=False) * idx.size
    return total / x.shape[0]


def train(model, train_set, val_set, config: TrainConfig):
    """Run seeded mini-batch Adam and return the lowest-val-loss snapshot.

    train_set/val_set are (x, y) pairs; y is None for reconstruction
    models, integer class ids for classifiers. The plateau schedule
    follows the training loss; checkpoint selection follows the
    validation loss (first strict minimum wins). The model is left
    holding the best parameters.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise InvalidInputError("train and validation sets must be non-empty")
    if y_train is not None:
        n_classes = model.num_classes
        if np.min(y_train) < 0 or np.max(y_train) >= n_classes:
            raise InvalidInputError("training labels out of range")

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters())
    scheduler = PlateauScheduler(optimizer.lr)
    history = History()
    best_val = np.inf
    best_snapshot = None
    n = x_train.shape[0]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for idx in _batches(n, config.batch_size, order):
            yb = None if y_train is None else y_train[idx]
            loss = model.loss_and_backward(x_train[idx], yb)
            optimizer.step()
            total += loss * idx.size
        train_loss = total / n
        val_loss = evaluate_loss(model, x_val, y_val, config.batch_size)
        history.epochs.append(EpochRecord(epoch, train_loss, val_loss, optimizer.lr))
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = model.snapshot()
            history.best_epoch = epoch
        optimizer.lr = scheduler.step(train_loss)

    model.load_snapshot(best_snapshot)
    return model, history
