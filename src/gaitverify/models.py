"""FCN classifier, mirrored convolutional autoencoder, and feature extractors.

All models consume (B, 128, 3) z-scored frames. The classifier is three
conv/batch-norm/ReLU blocks (128 filters kernel 8, 256 kernel 5, 128
kernel 3) into global average pooling and a dense softmax head. The
autoencoder reuses the same encoder and mirrors the blocks in reverse
order for the decoder; the final convolution maps back to 3 channels with
no batch norm or ReLU so reconstructions can be negative. Each block is
one ``ConvBlock``, and every inference-mode pass (validation loss and
``Encoder.transform``) runs it with its batch norm folded into the
convolution. A training step (``loss_and_backward``) keeps one
activation-sized array per block from its forward to its backward, the
batch norm's ``xhat``, and recomputes each block's output when backward
reaches it; the block owns that array and reuses it the next step. The
step skips the input gradient of the first convolution, which nothing
reads.

A model's whole state is ``arrays()``: name -> live array, every
parameter value and then every batch-norm running statistic. Training
snapshots, their restore and the container format all read it, so it
also fixes the container's tensor order. Only encoders are serialized:
both training modes exist to produce one, and ``train`` ships only the
encoder of the FCN or the autoencoder. Every ``Encoder`` handed out
(``strip_classifier``, ``get_encoder``, ``from_container``) is built new
from such arrays and a batch count, so it holds none of the caches or
block arrays a training-mode forward leaves in the layers.
"""

from __future__ import annotations

import numpy as np

from .data.container import ModelContainer
from .errors import FormatError, InvalidInputError, InvalidStateError
from .nn import ops
from .nn.layers import (
    Conv1d,
    ConvBlock,
    Dense,
    GlobalAveragePool,
    LatentBroadcast,
    Sequential,
)
from .signal import FRAME_LEN, N_CHANNELS, Frames

DEFAULT_FILTERS = (128, 256, 128)
DEFAULT_KERNELS = (8, 5, 3)


class _Model:
    """Shared plumbing: parameter access, snapshots, precision casts."""

    def _nets(self) -> list[Sequential]:
        raise NotImplementedError

    def parameters(self):
        return [p for net in self._nets() for p in net.parameters()]

    def arrays(self) -> dict[str, np.ndarray]:
        """The model's whole state: name -> live array, parameters then running statistics."""
        out = {p.name: p.value for p in self.parameters()}
        for net in self._nets():
            out.update(net.state())
        return out

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: a.copy() for name, a in self.arrays().items()}

    def load_snapshot(self, snap: dict[str, np.ndarray]):
        """Write every array of ``snap`` into the model's own arrays, in place."""
        for name, a in self.arrays().items():
            a[...] = snap[name]

    def cast(self, dtype):
        for net in self._nets():
            net.cast(dtype)
        return self

    def zero_grads(self):
        for p in self.parameters():
            p.grad[...] = 0

    def blocks(self) -> list[ConvBlock]:
        return [layer for net in self._nets() if isinstance(net, Sequential)
                for layer in net.layers if isinstance(layer, ConvBlock)]

    @property
    def batches_tracked(self) -> int:
        return min((block.bn.batches_tracked for block in self.blocks()), default=0)


def _encoder_net(rng, filters, kernels) -> Sequential:
    layers = []
    chans = N_CHANNELS
    for i, (f, k) in enumerate(zip(filters, kernels), start=1):
        layers.append(ConvBlock(k, chans, f, rng, name=f"block{i}"))
        chans = f
    layers.append(GlobalAveragePool(name="gap"))
    return Sequential(layers, "encoder")


class FCNClassifier(_Model):
    def __init__(self, num_classes: int, seed: int, filters=DEFAULT_FILTERS,
                 kernels=DEFAULT_KERNELS):
        if num_classes < 2:
            raise InvalidInputError(f"classifier needs >= 2 classes, got {num_classes}")
        self.num_classes = num_classes
        rng = np.random.default_rng(seed)
        self.body = _encoder_net(rng, filters, kernels)
        self.head = Dense(filters[-1], num_classes, rng, name="head")

    def _nets(self):
        return [self.body, self.head]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Logits (B, num_classes) for a batch of frames (B, 128, 3)."""
        feats = self.body.forward(x, train)
        return self.head.forward(feats, train)

    def loss_only(self, x, y, train: bool = False) -> float:
        logits = self.forward(x, train)
        loss, _ = ops.softmax_crossentropy(logits, y)
        return loss

    def loss_and_backward(self, x, y) -> float:
        self.zero_grads()
        logits = self.forward(x, train=True)
        loss, dlogits = ops.softmax_crossentropy(logits, y)
        self.body.backward(self.head.backward(dlogits), input_grad=False)
        return loss


class Encoder(_Model):
    """Universal feature extractor: conv blocks ending in global average pooling."""

    def __init__(self, net: Sequential):
        self.net = net

    def _nets(self):
        return [self.net]

    @property
    def filters(self) -> tuple[int, ...]:
        return tuple(block.conv.out_channels for block in self.blocks())

    @property
    def kernels(self) -> tuple[int, ...]:
        return tuple(block.conv.kernel_size for block in self.blocks())

    def transform(self, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Inference-mode feature matrix (N, 128) for frames (N, 128, 3).

        The batches of net.forward(x, train=False): each block runs as one
        convolution with its batch norm folded in, reading the current
        parameters and running statistics and changing neither.

        Frames run in batches of ``batch_size`` rows, by default the 32 of
        a training step, so the working set (activations and the block
        copies of the convolutions, about 9 MB for the default encoder:
        8.7 MiB traced) is bounded whatever N is.
        Within one batch size the result is deterministic; other batch
        sizes may round differently. An empty x still runs one (empty)
        batch, so the result has the encoder's dtype.
        """
        if self.batches_tracked == 0:
            raise InvalidStateError(
                "encoder has no finalized running statistics; train it first")
        return np.concatenate([self.net.forward(x[s:s + batch_size], train=False)
                               for s in range(0, len(x), batch_size) or [0]])


class Autoencoder(_Model):
    def __init__(self, seed: int, filters=DEFAULT_FILTERS, kernels=DEFAULT_KERNELS):
        self.num_classes = None
        rng = np.random.default_rng(seed)
        self.encoder = _encoder_net(rng, filters, kernels)
        self.decoder = Sequential([
            LatentBroadcast(FRAME_LEN, filters[-1], name="dec.expand"),
            ConvBlock(kernels[-1], filters[-1], filters[0], rng, name="dec.block1"),
            ConvBlock(kernels[-2], filters[0], filters[1], rng, name="dec.block2"),
            Conv1d(kernels[0], filters[1], N_CHANNELS, rng, name="dec.out"),
        ], "decoder")

    def _nets(self):
        return [self.encoder, self.decoder]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Reconstruction (B, 128, 3) of a batch of frames."""
        z = self.encoder.forward(x, train)
        return self.decoder.forward(z, train)

    def loss_only(self, x, y=None, train: bool = False) -> float:
        x_hat = self.forward(x, train)
        loss, _ = ops.mse_loss(x, x_hat)
        return loss

    def loss_and_backward(self, x, y=None) -> float:
        self.zero_grads()
        x_hat = self.forward(x, train=True)
        loss, dx_hat = ops.mse_loss(x, x_hat)
        self.encoder.backward(self.decoder.backward(dx_hat), input_grad=False)
        return loss

    def get_encoder(self) -> Encoder:
        """A new encoder holding copies of the encoder half's arrays, for feature extraction."""
        return _detach(self.encoder)


def strip_classifier(fcn: FCNClassifier) -> Encoder:
    """Drop the dense head; the result maps frames to the GAP activations."""
    return _detach(fcn.body)


def _detach(net: Sequential) -> Encoder:
    """A new encoder with copies of ``net``'s arrays and batch count, and none of its caches."""
    live = Encoder(net)
    return _encoder(live.filters, live.kernels, live.arrays(), live.batches_tracked)


def _encoder(filters, kernels, arrays: dict[str, np.ndarray], batches_tracked: int) -> Encoder:
    """A new encoder of this shape holding copies of ``arrays``, in their dtype.

    ``arrays`` must hold exactly the encoder's arrays(), by name and shape;
    a missing, extra or misshapen tensor (only a container can hold one)
    raises FormatError naming it, and every one is checked before any is
    written.
    """
    encoder = Encoder(_encoder_net(np.random.default_rng(0), filters, kernels))
    own = encoder.arrays()
    for name, a in own.items():
        if name not in arrays:
            raise FormatError(f"container lacks tensor {name!r}")
        if arrays[name].shape != a.shape:
            raise FormatError(f"container tensor {name!r} has shape {arrays[name].shape}, "
                              f"expected {a.shape}")
    extra = [name for name in arrays if name not in own]
    if extra:
        raise FormatError(f"container tensor {extra[0]!r} is not part of a "
                          f"{len(filters)}-block encoder")
    dtype = arrays[next(iter(own))].dtype  # always float32 from a container
    encoder.cast(dtype).load_snapshot(arrays)
    for block in encoder.blocks():
        block.bn.batches_tracked = batches_tracked
    return encoder


def frames_to_array(frames: Frames, dtype=np.float32) -> np.ndarray:
    """The (N, 128, 3) model input: the frame values cast to ``dtype``."""
    return frames.values.astype(dtype)


def raw_features(values: np.ndarray) -> np.ndarray:
    """(N, 384) channel-major rows [ax(0..127), ay(0..127), az(0..127)] of (N, 128, 3) frames."""
    return values.transpose(0, 2, 1).reshape(len(values), -1)


# --- serialization ------------------------------------------------------

_ARCH_ENCODER = "fcn-encoder"


def to_container(encoder: Encoder, extra_metadata: dict[str, str] | None = None) -> ModelContainer:
    """The encoder's arrays(), in order, with its architecture as metadata."""
    container = ModelContainer(metadata={
        "arch": _ARCH_ENCODER,
        "filters": ",".join(str(f) for f in encoder.filters),
        "kernels": ",".join(str(k) for k in encoder.kernels),
        "feature_dim": str(encoder.filters[-1]),
    })
    if extra_metadata:
        container.metadata.update(extra_metadata)
    for name, arr in encoder.arrays().items():
        container.add(name, arr)
    container.metadata["batches_tracked"] = str(encoder.batches_tracked)
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


def from_container(container: ModelContainer) -> Encoder:
    """Rebuild an encoder from a container produced by to_container.

    Missing or malformed metadata, and a missing, extra or misshapen
    tensor, raise FormatError naming the key or tensor. Every tensor is
    checked against the encoder's arrays() before any is written.
    """
    meta = container.metadata
    if meta.get("arch") != _ARCH_ENCODER:
        raise FormatError(f"container metadata 'arch' is {meta.get('arch')!r}, "
                          f"expected {_ARCH_ENCODER!r}")
    filters = _ints(meta, "filters")
    kernels = _ints(meta, "kernels")
    if len(filters) != len(kernels) or min(filters + kernels) < 1:
        raise FormatError(f"container metadata 'filters' {meta['filters']!r} and 'kernels' "
                          f"{meta['kernels']!r} must be equally many positive integers")
    if _ints(meta, "feature_dim") != filters[-1:]:
        raise FormatError(f"container metadata 'feature_dim' {meta['feature_dim']!r} "
                          f"is not the last filter count {filters[-1]}")
    return _encoder(filters, kernels, {name: container.get(name) for name in container.names()},
                    _ints(meta, "batches_tracked", "0")[0])
