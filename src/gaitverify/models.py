"""FCN classifier, mirrored convolutional autoencoder, and feature extractors.

All models consume (B, 128, 3) z-scored frames. The classifier is three
conv/batch-norm/ReLU blocks (128 filters kernel 8, 256 kernel 5, 128
kernel 3) into global average pooling and a dense softmax head. The
autoencoder reuses the same encoder and mirrors the blocks in reverse
order for the decoder; the final convolution maps back to 3 channels with
no batch norm or ReLU so reconstructions can be negative. Each block is
one ``ConvBlock``, and every inference-mode pass (validation loss and
``Encoder.transform``) runs it with its batch norm folded into the
convolution. A training step (``loss_and_backward``) keeps the frames
and the encoder's output as locals and hands them back to backward.
Between its forward and backward each block keeps one activation-sized
array, the batch norm's ``xhat``: a new array each step, which the batch
norm's backward overwrites and frees, so no layer holds an activation
between steps. The block's output is recomputed from it when backward
reaches the next layer, as a new array, and a next block recomputes it
only after its own batch norm's backward; when that layer is a
convolution, its backward writes its input gradient over that array. So
a convolution makes a new input gradient only where its input is not a
block's output: in the autoencoder's first decoder block, whose input is
the latent broadcast. The step skips the input gradient of the first
convolution, which nothing reads.

A model's whole state is ``arrays()``: name -> live array, every
parameter value and then every batch-norm running statistic. Training
snapshots, their restore and the saved file all read it, so it also fixes
the file's tensor order. Only encoders are saved: both training modes
exist to produce one, and ``train`` ships only the encoder of the FCN or
the autoencoder. A saved encoder is a (metadata, arrays) pair:
``to_container`` gives an encoder's, and ``from_container`` is the only
place an ``Encoder`` is built from one. Every encoder handed out
(``strip_classifier``, ``get_encoder``, and ``extract`` through a file)
comes from it, so each holds copies of the arrays and none of the caches
a training-mode forward leaves in the layers.
"""

from __future__ import annotations

import numpy as np

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
    """A new encoder with copies of ``net``'s arrays and batch count, and none of its caches."""
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
    """The encoder's (metadata, arrays) pair: its architecture, ``extra_metadata`` and
    batch count, and its live arrays() in order."""
    convs = [block.conv for block in encoder.blocks()]
    metadata = {
        "arch": _ARCH_ENCODER,
        "filters": ",".join(str(conv.out_channels) for conv in convs),
        "kernels": ",".join(str(conv.kernel_size) for conv in convs),
        "feature_dim": str(convs[-1].out_channels),
        **(extra_metadata or {}),
        "batches_tracked": str(encoder.batches_tracked),
    }
    return metadata, encoder.arrays()


def _ints(meta: dict[str, str], key: str, default: str | None = None) -> tuple[int, ...]:
    """Comma-separated integers of one metadata key; FormatError if absent or malformed."""
    text = meta.get(key, default)
    if text is None:
        raise FormatError(f"container metadata lacks {key!r}")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError(f"container metadata {key!r} is not integers: {text!r}") from None


def _check_shapes(expected: dict[str, tuple[int, ...]], arrays: dict[str, np.ndarray]) -> None:
    """FormatError naming the first ``expected`` tensor ``arrays`` lacks or shapes otherwise."""
    for name, shape in expected.items():
        if name not in arrays:
            raise FormatError(f"container lacks tensor {name!r}")
        if arrays[name].shape != shape:
            raise FormatError(f"container tensor {name!r} has shape {arrays[name].shape}, "
                              f"expected {shape}")


def from_container(metadata: dict[str, str], arrays: dict[str, np.ndarray]) -> Encoder:
    """A new encoder of the shape ``metadata`` names, holding copies of ``arrays`` in their dtype.

    Missing or malformed metadata, a missing, extra or misshapen tensor,
    and a negative running variance raise FormatError naming it. The
    convolution weights, the bulk of an encoder, are checked before anything
    is built, so the metadata sizes nothing bigger than ``arrays``; every
    tensor is checked before any is written.
    """
    if metadata.get("arch") != _ARCH_ENCODER:
        raise FormatError(f"container metadata 'arch' is {metadata.get('arch')!r}, "
                          f"expected {_ARCH_ENCODER!r}")
    filters = _ints(metadata, "filters")
    kernels = _ints(metadata, "kernels")
    if len(filters) != len(kernels) or min(filters + kernels) < 1:
        raise FormatError(f"container metadata 'filters' {metadata['filters']!r} and 'kernels' "
                          f"{metadata['kernels']!r} must be equally many positive integers")
    if _ints(metadata, "feature_dim") != filters[-1:]:
        raise FormatError(f"container metadata 'feature_dim' {metadata['feature_dim']!r} "
                          f"is not the last filter count {filters[-1]}")
    # the convolutions of _encoder_net, by its block names
    _check_shapes({f"block{i}.conv.w": (k, c, f) for i, (f, k, c)
                   in enumerate(zip(filters, kernels, (N_CHANNELS, *filters[:-1])), start=1)},
                  arrays)
    encoder = Encoder(_encoder_net(np.random.default_rng(0), filters, kernels))
    own = encoder.arrays()
    _check_shapes({name: a.shape for name, a in own.items()}, arrays)
    extra = [name for name in arrays if name not in own]
    if extra:
        raise FormatError(f"container tensor {extra[0]!r} is not part of a "
                          f"{len(filters)}-block encoder")
    negative = [name for name in own if name.endswith(".running_var") and (arrays[name] < 0).any()]
    if negative:
        raise FormatError(f"container tensor {negative[0]!r} holds a negative variance")
    encoder.cast(arrays[next(iter(own))].dtype).load_snapshot(arrays)
    batches_tracked = _ints(metadata, "batches_tracked", "0")[0]
    for block in encoder.blocks():
        block.bn.batches_tracked = batches_tracked
    return encoder
