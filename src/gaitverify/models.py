"""FCN classifier, mirrored convolutional autoencoder, and feature extractors.

All models consume (B, 128, 3) z-scored frames. The classifier is three
conv/batch-norm/ReLU blocks (128 filters kernel 8, 256 kernel 5, 128
kernel 3) into global average pooling and a dense softmax head. The
autoencoder reuses the same encoder and mirrors the blocks in reverse
order for the decoder; the final convolution maps back to 3 channels with
no batch norm or ReLU so reconstructions can be negative.
"""

from __future__ import annotations

import copy

import numpy as np

from .data.container import ModelContainer
from .errors import FormatError, InvalidInputError, InvalidStateError
from .nn import ops
from .nn.layers import (
    BatchNorm,
    Conv1d,
    Dense,
    GlobalAveragePool,
    LatentBroadcast,
    ReLU,
    Sequential,
    conv_block,
    zero_grads,
)
from .signal import FRAME_LEN, N_CHANNELS, Frames

DEFAULT_FILTERS = (128, 256, 128)
DEFAULT_KERNELS = (8, 5, 3)


def _iter_layers(net):
    return net.layers if isinstance(net, Sequential) else [net]


class _Model:
    """Shared plumbing: parameter access, snapshots, precision casts."""

    def _nets(self) -> list[Sequential]:
        raise NotImplementedError

    def parameters(self):
        return [p for net in self._nets() for p in net.parameters()]

    def state(self):
        return [s for net in self._nets() for s in net.state()]

    def trainable_parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def snapshot(self) -> dict[str, np.ndarray]:
        snap = {p.name: p.value.copy() for p in self.parameters()}
        for name, arr in self.state():
            snap[name] = arr.copy()
        return snap

    def load_snapshot(self, snap: dict[str, np.ndarray]):
        for p in self.parameters():
            p.value = snap[p.name].copy()
        for net in self._nets():
            for name, _ in net.state():
                net.set_state(name, snap[name].copy())

    def cast(self, dtype):
        for net in self._nets():
            net.cast(dtype)
        return self

    def copy(self):
        return copy.deepcopy(self)

    def zero_grads(self):
        zero_grads(self.parameters())

    @property
    def batches_tracked(self) -> int:
        counts = [layer.batches_tracked for net in self._nets()
                  for layer in _iter_layers(net) if isinstance(layer, BatchNorm)]
        return min(counts) if counts else 0


def _encoder_net(rng, filters, kernels, dtype) -> Sequential:
    layers = []
    chans = N_CHANNELS
    for i, (f, k) in enumerate(zip(filters, kernels), start=1):
        layers += conv_block(k, chans, f, rng, name=f"block{i}", dtype=dtype)
        chans = f
    layers.append(GlobalAveragePool(name="gap"))
    return Sequential(layers, "encoder")


class FCNClassifier(_Model):
    def __init__(self, num_classes: int, seed: int, filters=DEFAULT_FILTERS,
                 kernels=DEFAULT_KERNELS, dtype=np.float32):
        if num_classes < 2:
            raise InvalidInputError(f"classifier needs >= 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.filters = tuple(filters)
        self.kernels = tuple(kernels)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.body = _encoder_net(rng, self.filters, self.kernels, dtype)
        self.head = Dense(self.filters[-1], num_classes, rng, name="head", dtype=dtype)

    def _nets(self):
        return [self.body, self.head]

    def forward(self, x: np.ndarray, train: bool = False, update_stats: bool = True) -> np.ndarray:
        """Logits (B, num_classes) for a batch of frames (B, 128, 3)."""
        feats = self.body.forward(x, train, update_stats)
        return self.head.forward(feats, train, update_stats)

    def features(self, x: np.ndarray, train: bool = False, update_stats: bool = True) -> np.ndarray:
        """Pre-head GAP activations (B, 128)."""
        return self.body.forward(x, train, update_stats)

    def loss_only(self, x, y, train: bool = False, update_stats: bool = False) -> float:
        logits = self.forward(x, train, update_stats)
        loss, _ = ops.softmax_crossentropy(logits, y)
        return loss

    def loss_and_backward(self, x, y, train: bool = True, update_stats: bool = True) -> float:
        self.zero_grads()
        logits = self.forward(x, train, update_stats)
        loss, dlogits = ops.softmax_crossentropy(logits, y)
        self.body.backward(self.head.backward(dlogits))
        return loss


class Encoder(_Model):
    """Universal feature extractor: conv blocks ending in global average pooling."""

    def __init__(self, net: Sequential, filters=DEFAULT_FILTERS, kernels=DEFAULT_KERNELS):
        self.net = net
        self.filters = tuple(filters)
        self.kernels = tuple(kernels)

    def _nets(self):
        return [self.net]

    def forward(self, x: np.ndarray, train: bool = False, update_stats: bool = True) -> np.ndarray:
        return self.net.forward(x, train, update_stats)

    def transform(self, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Inference-mode feature matrix (N, 128) for frames (N, 128, 3).

        Equals net.forward(x, train=False) up to rounding, with each batch
        norm folded into the convolution before it: in inference mode
        BN(conv(x)) = conv(x; w*s, (b - running_mean)*s + beta) with
        s = gamma / sqrt(running_var + eps), so every block runs as one
        convolution and an in-place ReLU. The folded kernels are rebuilt
        on every call from the current parameters and running statistics.

        Frames run in batches of ``batch_size`` rows, by default the 32 of
        a training step, so the working set (activations and im2col copies,
        about 17 MB for the default encoder) is bounded whatever N is.
        Within one batch size the result is deterministic; other batch
        sizes may round differently.
        """
        if self.batches_tracked == 0:
            raise InvalidStateError(
                "encoder has no finalized running statistics; train it first")
        blocks = self._folded_blocks()
        out = []
        for s in range(0, x.shape[0], batch_size):
            h = x[s:s + batch_size]
            for w, b in blocks:
                h = ops.conv1d_forward(h, w, b)
                np.maximum(h, 0, out=h)
            out.append(ops.gap_forward(h))
        if not out:
            return np.empty((0, self.filters[-1]), dtype=blocks[-1][0].dtype)
        return np.concatenate(out, axis=0)

    def _folded_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(kernel, bias) of each conv with its inference batch norm folded in."""
        layers = self.net.layers
        n = (len(layers) - 1) // 3
        spec = [Conv1d, BatchNorm, ReLU] * n + [GlobalAveragePool]
        if n < 1 or [type(layer) for layer in layers] != spec:
            raise InvalidStateError(
                "encoder net must be [Conv1d, BatchNorm, ReLU] x n + GlobalAveragePool, got "
                + ", ".join(type(layer).__name__ for layer in layers))
        blocks = []
        for conv, bn in zip(layers[0::3], layers[1::3]):
            scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
            bias = (conv.b.value - bn.running_mean) * scale + bn.beta.value
            blocks.append((conv.w.value * scale, bias))
        return blocks


class Autoencoder(_Model):
    def __init__(self, seed: int, filters=DEFAULT_FILTERS, kernels=DEFAULT_KERNELS,
                 dtype=np.float32):
        self.filters = tuple(filters)
        self.kernels = tuple(kernels)
        self.seed = seed
        self.num_classes = None
        rng = np.random.default_rng(seed)
        self.encoder = _encoder_net(rng, self.filters, self.kernels, dtype)
        dec_layers = [LatentBroadcast(FRAME_LEN, self.filters[-1],
                                      name="dec.expand", dtype=dtype)]
        dec_layers += conv_block(self.kernels[-1], self.filters[-1], self.filters[0],
                                 rng, name="dec.block1", dtype=dtype)
        dec_layers += conv_block(self.kernels[-2], self.filters[0], self.filters[1],
                                 rng, name="dec.block2", dtype=dtype)
        dec_layers.append(Conv1d(self.kernels[0], self.filters[1], N_CHANNELS,
                                 rng, name="dec.out", dtype=dtype))
        self.decoder = Sequential(dec_layers, "decoder")

    def _nets(self):
        return [self.encoder, self.decoder]

    def forward(self, x: np.ndarray, train: bool = False, update_stats: bool = True) -> np.ndarray:
        """Reconstruction (B, 128, 3) of a batch of frames."""
        z = self.encoder.forward(x, train, update_stats)
        return self.decoder.forward(z, train, update_stats)

    def loss_only(self, x, y=None, train: bool = False, update_stats: bool = False) -> float:
        x_hat = self.forward(x, train, update_stats)
        loss, _ = ops.mse_loss(x, x_hat)
        return loss

    def loss_and_backward(self, x, y=None, train: bool = True, update_stats: bool = True) -> float:
        self.zero_grads()
        x_hat = self.forward(x, train, update_stats)
        loss, dx_hat = ops.mse_loss(x, x_hat)
        self.encoder.backward(self.decoder.backward(dx_hat))
        return loss

    def get_encoder(self) -> Encoder:
        """Detach a deep copy of the encoder for feature extraction."""
        return Encoder(copy.deepcopy(self.encoder), self.filters, self.kernels)


def strip_classifier(fcn: FCNClassifier) -> Encoder:
    """Drop the dense head; the result maps frames to the GAP activations."""
    return Encoder(copy.deepcopy(fcn.body), fcn.filters, fcn.kernels)


def frames_to_array(frames: Frames, dtype=np.float32) -> np.ndarray:
    """The (N, 128, 3) model input: the frame values cast to ``dtype``."""
    return frames.values.astype(dtype)


def raw_features(values: np.ndarray) -> np.ndarray:
    """(N, 384) channel-major rows [ax(0..127), ay(0..127), az(0..127)] of (N, 128, 3) frames."""
    return values.transpose(0, 2, 1).reshape(len(values), -1)


# --- serialization ------------------------------------------------------

_ARCH_FCN = "fcn-classifier"
_ARCH_AE = "autoencoder"
_ARCH_ENCODER = "fcn-encoder"


def _arch_meta(model, arch: str) -> dict[str, str]:
    meta = {
        "arch": arch,
        "filters": ",".join(str(f) for f in model.filters),
        "kernels": ",".join(str(k) for k in model.kernels),
        "feature_dim": str(model.filters[-1]),
    }
    if isinstance(model, FCNClassifier):
        meta["num_classes"] = str(model.num_classes)
    return meta


def to_container(model, extra_metadata: dict[str, str] | None = None) -> ModelContainer:
    if isinstance(model, FCNClassifier):
        arch = _ARCH_FCN
    elif isinstance(model, Autoencoder):
        arch = _ARCH_AE
    elif isinstance(model, Encoder):
        arch = _ARCH_ENCODER
    else:
        raise InvalidInputError(f"cannot serialize {type(model).__name__}")
    container = ModelContainer(metadata=_arch_meta(model, arch))
    if extra_metadata:
        container.metadata.update(extra_metadata)
    for p in model.parameters():
        container.add(p.name, p.value)
    for name, arr in model.state():
        container.add(name, arr)
    container.metadata["batches_tracked"] = str(model.batches_tracked)
    return container


def _ints(meta: dict[str, str], key: str, default: str | None = None) -> tuple[int, ...]:
    """Comma-separated integers of one metadata key; FormatError if absent or malformed."""
    text = meta.get(key, default)
    if text is None:
        raise FormatError(f"container metadata lacks {key!r}")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError(f"container metadata {key!r} is not integers: {text!r}") from None


def from_container(container: ModelContainer):
    """Rebuild a model from a container produced by to_container.

    Missing or malformed metadata and missing tensors raise FormatError.
    """
    meta = container.metadata
    arch = meta.get("arch")
    filters = _ints(meta, "filters")
    kernels = _ints(meta, "kernels")
    if arch == _ARCH_FCN:
        model = FCNClassifier(_ints(meta, "num_classes")[0], seed=0,
                              filters=filters, kernels=kernels)
    elif arch == _ARCH_AE:
        if meta.get("learned_position", "1") != "1":
            raise FormatError(f"container metadata learned_position="
                              f"{meta['learned_position']!r}: only the learned "
                              "latent broadcast is supported")
        model = Autoencoder(seed=0, filters=filters, kernels=kernels)
    elif arch == _ARCH_ENCODER:
        rng = np.random.default_rng(0)
        model = Encoder(_encoder_net(rng, filters, kernels, np.float32), filters, kernels)
    else:
        raise InvalidInputError(f"unknown architecture {arch!r} in container")
    snap = {name: container.get(name) for name in container.names()}
    try:
        model.load_snapshot(snap)
    except KeyError as exc:
        raise FormatError(f"container lacks tensor {exc.args[0]!r}") from None
    tracked = _ints(meta, "batches_tracked", "0")[0]
    for net in model._nets():
        for layer in _iter_layers(net):
            if isinstance(layer, BatchNorm):
                layer.batches_tracked = tracked
    return model
