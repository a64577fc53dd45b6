"""Frame augmentations used during feature learning.

Augmentation operates on z-scored frames: the +/-0.2 noise range is only
meaningful after normalization. The operations take whole (N, 128, 3)
frame arrays, and augment_dataset doubles such an array with one random
draw for all of its frames. The random operations take an explicit RNG.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

AUGMENTATION_KINDS = ("none", "random_noise", "circular_shift")

# CLI spellings accepted next to the canonical names.
_ALIASES = {"rnd": "random_noise", "cshift": "circular_shift"}


def normalize_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in AUGMENTATION_KINDS:
        raise InvalidInputError(f"unknown augmentation kind {kind!r}")
    return kind


def add_uniform_noise(values: np.ndarray, rng: np.random.Generator,
                      amplitude: float = 0.2) -> np.ndarray:
    """Add an independent Uniform(-amplitude, +amplitude) draw to every element."""
    if amplitude <= 0:
        raise InvalidInputError(f"amplitude must be positive, got {amplitude}")
    return values + rng.uniform(-amplitude, amplitude, size=values.shape)


def circular_shift(values: np.ndarray, k) -> np.ndarray:
    """Rotate frames (N, n, C) left so frame i starts at (1-based) sample k[i].

    k holds one position per frame, the same for all channels of that frame.
    Valid k is 2..n-1, which guarantees no frame is left as the identity
    permutation.
    """
    n = values.shape[1]
    k = np.asarray(k)
    if k.shape != values.shape[:1]:
        raise InvalidInputError(f"need one shift position per frame, got shape {k.shape}")
    bad = k[(k < 2) | (k > n - 1)]
    if bad.size:
        raise InvalidInputError(f"shift position k={bad[0]} outside 2..{n - 1}")
    rows = (np.arange(n) + (k[:, None] - 1)) % n
    return np.take_along_axis(values, rows[:, :, None], axis=1)


def augment_dataset(values: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Double a dataset: the originals followed by one augmented copy of each.

    random_noise draws a fresh noise field per frame; circular_shift draws
    a fresh position k per frame (the same k for all three channels of
    that frame). Either is one draw for the whole batch.
    """
    kind = normalize_kind(kind)
    if kind == "none":
        raise InvalidInputError("augment_dataset requires an actual augmentation kind")
    if kind == "random_noise":
        augmented = add_uniform_noise(values, rng)
    else:
        n = values.shape[1]
        # uniform over {2, ..., n-1}
        augmented = circular_shift(values, rng.integers(2, n, size=len(values)))
    return np.concatenate([values, augmented])
