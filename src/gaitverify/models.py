"""FCN classifier, mirrored convolutional autoencoder, and feature extractors.

All models consume (B, 128, 3) z-scored frames. The classifier is three
conv/batch-norm/ReLU blocks (128 filters kernel 8, 256 kernel 5, 128
kernel 3) into global average pooling and a dense softmax head. The
autoencoder reuses the same encoder and mirrors the blocks in reverse
order for the decoder; the final convolution maps back to 3 channels with
no batch norm or ReLU so reconstructions can be negative. Each block is
one ``ConvBlock``; ``nn/layers.py`` says which arrays a training step
keeps between its forward and backward, and which pass may overwrite
them.

A model's whole state is ``arrays()``: name -> live array, every
parameter value and then every batch-norm running statistic. Training
snapshots, their restore and the saved file all read it, so it also fixes
the file's tensor order. Only encoders are saved: both training modes
exist to produce one, and ``train`` ships only the encoder of the FCN or
the autoencoder. A saved encoder is a (metadata, arrays) pair whose
arrays' shapes are its architecture: ``to_container`` gives an
encoder's, and ``from_container`` is the only place an ``Encoder`` is
built from one. Every encoder handed out (``strip_classifier``,
``get_encoder``, and ``extract`` through a file) comes from it, so each
holds copies of the arrays and none of the caches a training-mode
forward leaves in the layers.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidInputError
from .nn import ops
from .nn.layers import (
    Conv1d,
    ConvBlock,
    Dense,
    GlobalAveragePool,
    LatentBroadcast,
    Sequential,
)
from .signal import FRAME_LEN, N_CHANNELS

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
        feats = self.body.forward(x, train=True)
        loss, dlogits = ops.softmax_crossentropy(self.head.forward(feats, train=True), y)
        self.body.backward(self.head.backward(dlogits, feats), x, input_grad=False)
        return loss


class Encoder(_Model):
    """Universal feature extractor: conv blocks ending in global average pooling."""

    def __init__(self, net: Sequential):
        self.net = net

    def _nets(self):
        return [self.net]

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
        z = self.encoder.forward(x, train=True)
        loss, dx_hat = ops.mse_loss(x, self.decoder.forward(z, train=True))
        self.encoder.backward(self.decoder.backward(dx_hat, z), x, input_grad=False)
        return loss

    def get_encoder(self) -> Encoder:
        """A new encoder holding copies of the encoder half's arrays, for feature extraction."""
        return _detach(self.encoder)


def strip_classifier(fcn: FCNClassifier) -> Encoder:
    """Drop the dense head; the result maps frames to the GAP activations."""
    return _detach(fcn.body)


def _detach(net: Sequential) -> Encoder:
    """A new encoder with copies of ``net``'s arrays and none of its caches."""
    return from_container(*to_container(Encoder(net)))


def frames_to_array(values: np.ndarray) -> np.ndarray:
    """The model input: (N, 128, 3) frame values cast to float32."""
    return values.astype(np.float32)


def raw_features(values: np.ndarray) -> np.ndarray:
    """(N, 384) channel-major rows [ax(0..127), ay(0..127), az(0..127)] of (N, 128, 3) frames."""
    return values.transpose(0, 2, 1).reshape(len(values), -1)


# --- serialization ------------------------------------------------------

_ARCH_ENCODER = "fcn-encoder"


def to_container(encoder: Encoder, extra_metadata: dict[str, str] | None = None):
    """The encoder's (metadata, arrays) pair: its 'arch' and ``extra_metadata``, and its
    live arrays() in order, whose shapes are the architecture."""
    return {"arch": _ARCH_ENCODER, **(extra_metadata or {})}, encoder.arrays()


def from_container(metadata: dict[str, str], arrays: dict[str, np.ndarray]) -> Encoder:
    """A new encoder shaped by ``arrays`` and holding copies of them in their dtype.

    Its blocks are block1, block2, ... up to the first missing
    ``block{i}.conv.w``; each takes its kernel size and filter count from
    that (kernel, in, filters) weight. Metadata other than 'arch' is not
    read, so a container that also states the architecture there loads
    the same. A wrong 'arch', a missing block1, a weight that is not 3-D,
    has a zero-length axis or whose ``in`` is not the previous block's
    filter count, a missing, extra or misshapen tensor, and a negative
    running variance raise FormatError naming it. The weights are checked
    before the encoder is built, so each array it allocates is no larger
    than the container's own; every tensor is checked before any is written.
    """
    if metadata.get("arch") != _ARCH_ENCODER:
        raise FormatError(f"container metadata 'arch' is {metadata.get('arch')!r}, "
                          f"expected {_ARCH_ENCODER!r}")
    kernels, filters = [], []
    while (name := f"block{len(kernels) + 1}.conv.w") in arrays:
        shape, chans = arrays[name].shape, filters[-1] if filters else N_CHANNELS
        if len(shape) != 3 or shape[1] != chans or 0 in (shape[0], shape[2]):
            raise FormatError(f"container tensor {name!r} has shape {shape}, expected "
                              f"(kernel, {chans}, filters) with kernel and filters above 0")
        kernels.append(shape[0])
        filters.append(shape[2])
    if not kernels:
        raise FormatError("container lacks tensor 'block1.conv.w'")
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
    negative = [name for name in own if name.endswith(".running_var") and (arrays[name] < 0).any()]
    if negative:
        raise FormatError(f"container tensor {negative[0]!r} holds a negative variance")
    encoder.cast(arrays["block1.conv.w"].dtype).load_snapshot(arrays)
    return encoder
