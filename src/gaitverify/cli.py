"""Command-line interface: synth, train, extract, evaluate, gradcheck.

Exit codes: 0 success, 1 usage/validation error, 2 runtime/convergence
error (including a failed gradient check). Every artifact-producing
command writes a JSON run manifest next to its primary output; identical
flags, seed, and input digests give byte-identical primary outputs, and
the manifests differ only in their timestamp/duration fields. The byte
identity holds on one BLAS build run with one thread count: the matrix
products round differently when either changes, so a trained model and
everything computed from it may differ in its last bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, models
from .augment import augment_dataset, normalize_kind
from .data.canonical import (
    export_features_csv,
    load_features_csv,
    write_canonical_csv,
)
from .data.container import load_model, save_model
from .data.synthetic import SyntheticConfig, generate_synthetic, recording_seconds_fit
from .errors import FormatError, GaitVerifyError, InvalidInputError
from .evaluate import ProtocolSpec, format_summary, run_protocol, write_report_csv
from .nn.gradcheck import gradient_check
from .nn.training import TrainConfig, train
from .ocsvm import DEFAULT_NU
from .pipeline import load_normalized_frames
from .signal import FRAME_LEN, MAX_SAMPLES, SAMPLE_HZ

GRADCHECK_TOLERANCE = 1e-4
VAL_FRACTION = 0.4  # share of the frames train holds out for validation


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    required_flags: tuple[str, ...] = ()

    def error(self, message):
        raise _UsageError(message)

    def add_required(self, flag, help=None, **kwargs):
        """An option that must be given, as a flag or in --config; main checks it."""
        self.required_flags += (flag,)
        note = "required, as a flag or in --config"
        self.add_argument(flag, help=f"{help}; {note}" if help else note, **kwargs)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_digest(args: argparse.Namespace, **replace) -> str:
    """Short SHA-256 of the parsed options; ``replace`` overrides some, e.g. a path by content."""
    items = {k: v for k, v in sorted({**vars(args), **replace}.items())
             if k not in ("func", "config")}
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _write_manifest(out_path, args, argv, input_digests: dict, started: float):
    """``input_digests`` maps each input path to its ``_sha256``."""
    manifest = {
        "command": " ".join(["gaitverify"] + list(argv)),
        "seed": getattr(args, "seed", None),
        "config_digest": _config_digest(args),
        "input_digests": input_digests,
        "toolkit_version": __version__,
        "duration_seconds": round(time.monotonic() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n")


def _parse_config_file(path) -> dict[str, tuple[int, str]]:
    """key = value lines, as key -> (line number, value); '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _UsageError(f"{path}: config file is not UTF-8 text") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise _UsageError(f"{path}:{lineno}: {key!r} is already set at line {values[key][0]}")
        values[key] = (lineno, val.strip())
    return values


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class _ConfigValue(NamedTuple):
    """An option's unconverted value from --config, as a subparser default."""

    where: str  # path:line: key
    raw: str
    flag: bool  # an option whose default is False, given as a boolean word


def _config_defaults(parsers: dict[str, _Parser], command: str, path) -> dict:
    """``command``'s options in --config FILE, as _ConfigValue defaults.

    Every key must be an option of some command, so that one file can
    serve every command; a key that is none is a usage error at its line.
    """
    known = {key for p in parsers.values() for key in vars(p.parse_args([]))} - {"func", "config"}
    own = vars(parsers[command].parse_args([]))
    defaults = {}
    for key, (lineno, raw) in _parse_config_file(path).items():
        if key not in known:
            raise _UsageError(f"{path}:{lineno}: unknown option {key!r}")
        if key in own:
            defaults[key] = _ConfigValue(f"{path}:{lineno}: {key}", raw, own[key] is False)
    return defaults


def _convert_config_values(parser: _Parser, args: argparse.Namespace):
    """Convert the options that still hold their --config value.

    Parsing replaced the value of every option given as a flag, so flags
    win in every spelling argparse accepts. ``parser`` converts each value
    left as ``--key=value``; a store-true option's must be 1/true/yes/on
    or 0/false/no/off (any case). A value that fails is a usage error
    that names the file, line and key.
    """
    for key, value in vars(args).items():
        if not isinstance(value, _ConfigValue):
            continue
        where, raw, flag = value
        if flag:
            if raw.lower() not in _TRUE + _FALSE:
                raise _UsageError(f"{where}: {raw!r} is not a boolean")
            setattr(args, key, raw.lower() in _TRUE)
            continue
        try:
            parsed = parser.parse_args([f"--{key.replace('_', '-')}={raw}"])
        except _UsageError as exc:
            raise _UsageError(f"{where}: {exc}") from None
        setattr(args, key, getattr(parsed, key))


def _check_out_dir(args: argparse.Namespace):
    """Fail before any work when the directory of --out does not exist."""
    out = getattr(args, "out", None)
    if out is not None and not Path(out).parent.is_dir():
        raise _UsageError(f"{out}: directory {Path(out).parent} does not exist")


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, and accept only a value that is ``ok``."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


# np.random.default_rng takes no negative seed
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seconds = _checked(float, recording_seconds_fit,
                    f"a duration of 1 to {MAX_SAMPLES} samples at {SAMPLE_HZ:g} Hz")
_drift = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_nu = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")

_gamma = _checked(lambda text: text if text == "auto" else float(text),
                  lambda v: v == "auto" or 0.0 < v < math.inf,
                  "'auto' or a positive finite number")


def _windows(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split("..", 1))
            out = list(range(lo, hi + 1)) if 1 <= lo <= hi <= 5 else []
        else:
            out = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window spec {text!r}")
    if not out or any(not 1 <= w <= 5 for w in out):
        raise argparse.ArgumentTypeError("windows must lie in 1..5")
    if len(set(out)) < len(out):
        raise argparse.ArgumentTypeError(f"expected distinct windows, got {text!r}")
    return out


# --- commands -----------------------------------------------------------

def cmd_synth(args, argv):
    started = time.monotonic()
    config = SyntheticConfig(
        num_subjects=args.subjects,
        recording_seconds=args.seconds,
        sessions=args.sessions,
        recordings_per_subject_per_session=args.recordings,
        seed=args.seed,
        cross_day_drift=args.drift,
    )
    recordings = generate_synthetic(config)
    write_canonical_csv(recordings, args.out)
    frames_per_rec = len(recordings[0]) // FRAME_LEN
    print(f"wrote {args.out}: {len(recordings)} recordings, "
          f"{frames_per_rec} frames each, {len(recordings) * frames_per_rec} frames total")
    _write_manifest(args.out, args, argv, {}, started)
    return 0


def cmd_train(args, argv):
    started = time.monotonic()
    frames = load_normalized_frames(args.data)
    if len(frames) < 10:
        raise InvalidInputError(f"{args.data}: need at least 10 frames to train, "
                                f"got {len(frames)}")
    augment_kind = normalize_kind(args.augment)
    config = TrainConfig(epochs=args.epochs, seed=args.seed,
                         batch_size=args.batch_size)

    # a seeded permutation split into training and validation rows
    perm = np.random.default_rng(args.seed).permutation(len(frames))
    n_train = len(frames) - int(round(len(frames) * VAL_FRACTION))
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    train_values, val_values = frames.values[train_idx], frames.values[val_idx]
    if augment_kind != "none":
        train_values = augment_dataset(train_values, augment_kind,
                                       np.random.default_rng(args.seed + 1))
        # augment_dataset keeps the originals first, then one copy of each
        train_idx = np.concatenate([train_idx, train_idx])
    print(f"training frames: {len(train_values)}"
          + (f" (augmented from {n_train})" if augment_kind != "none" else "")
          + f", validation frames: {len(val_values)}")

    x_train = models.frames_to_array(train_values)
    x_val = models.frames_to_array(val_values)
    sources = frames.sources
    del frames, train_values, val_values  # training reads only the float32 copies
    data_digest = _sha256(args.data)
    meta = {"mode": args.mode, "augment": augment_kind, "seed": str(args.seed),
            "epochs": str(args.epochs),
            "train_config_digest": _config_digest(args, data=data_digest, out=None)}

    if args.mode == "e2e":
        subjects = [s[0] for s in sources]
        classes = sorted(set(subjects))
        if len(classes) < 2:
            raise InvalidInputError(
                f"{args.data}: end-to-end training needs >= 2 subjects, got {len(classes)}")
        label_of = {c: i for i, c in enumerate(classes)}
        labels = np.array([label_of[s] for s in subjects])
        model = models.FCNClassifier(len(classes), seed=args.seed)
        model, history = train(model, (x_train, labels[train_idx]),
                               (x_val, labels[val_idx]), config)
        encoder = models.strip_classifier(model)
        meta["classes"] = ",".join(classes)
    else:
        model = models.Autoencoder(seed=args.seed)
        model, history = train(model, (x_train, None), (x_val, None), config)
        encoder = model.get_encoder()

    save_model(args.out, *models.to_container(encoder, meta))
    history_path = str(args.out) + ".history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,lr\n")
        for e in history.epochs:
            fh.write(f"{e.epoch},{e.train_loss:.10g},{e.val_loss:.10g},{e.lr:.10g}\n")
    first, last = history.epochs[0], history.epochs[-1]
    print(f"trained {args.mode} for {args.epochs} epochs: train loss "
          f"{first.train_loss:.4f} -> {last.train_loss:.4f}, best epoch {history.best_epoch} "
          f"(val loss {min(history.val_losses):.4f})")
    print(f"wrote {args.out} and {history_path}")
    _write_manifest(args.out, args, argv, {str(args.data): data_digest}, started)
    return 0


def cmd_extract(args, argv):
    started = time.monotonic()
    frames = load_normalized_frames(args.data)
    if not frames:
        raise InvalidInputError(f"{args.data}: no complete frames")
    inputs = [args.data]
    if args.raw:
        vectors = models.raw_features(frames.values)
    else:
        if not args.model:
            raise _UsageError("--model is required unless --raw is given")
        metadata, arrays = load_model(args.model)  # its errors name the file
        try:
            encoder = models.from_container(metadata, arrays)
            # finite but huge weights overflow, which the check after reports
            with np.errstate(over="ignore", invalid="ignore"):
                vectors = encoder.transform(models.frames_to_array(frames.values))
            if not np.isfinite(vectors).all():
                raise FormatError("the encoder's features are not finite (its weights "
                                  "overflow float32)")
        except FormatError as exc:
            raise FormatError(f"{args.model}: {exc}") from None
        inputs.append(args.model)
    export_features_csv(args.out, frames.sources, vectors)
    print(f"wrote {args.out}: {vectors.shape[0]} vectors of dimension {vectors.shape[1]}")
    _write_manifest(args.out, args, argv, {str(p): _sha256(p) for p in inputs}, started)
    return 0


def _windowed_out(base: str, window: int, multiple: bool) -> str:
    if not multiple:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.w{window}{path.suffix}"))


def cmd_evaluate(args, argv):
    started = time.monotonic()
    spec = ProtocolSpec(args.protocol, windows=tuple(args.window))
    sources, vectors = load_features_csv(args.features)
    feature_kind = args.label_features or ("raw" if vectors.shape[1] == 384 else "learned")
    try:
        reports = run_protocol(sources, vectors, spec, nu=args.nu, gamma=args.gamma,
                               feature_kind=feature_kind, augmentation=args.label_augment)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{args.features}: {exc}") from None
    for report in reports:
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        out = _windowed_out(args.out, report.window, len(reports) > 1)
        write_report_csv(report, out)
        print(f"wrote {out} ({len(report.users)} users)")
    summary = format_summary(reports)
    summary_path = str(args.out) + ".summary.txt"
    Path(summary_path).write_text(summary)
    print(summary, end="")
    _write_manifest(args.out, args, argv, {str(args.features): _sha256(args.features)}, started)
    return 0


def cmd_gradcheck(args, argv):
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((2, FRAME_LEN, 3))
    labels = rng.integers(0, 10, size=2)

    fcn = models.FCNClassifier(10, seed=args.seed).cast(np.float64)
    ae = models.Autoencoder(seed=args.seed).cast(np.float64)
    checks = [("fcn", fcn, labels), ("autoencoder", ae, None)]

    worst = 0.0
    for title, model, y in checks:
        report = gradient_check(model, x, y, max_exhaustive=16, probes=8,
                                seed=args.seed)
        print(f"[{title}]")
        for t in report.tensors:
            print(f"  {t.name:<24} size {t.size:<8} {t.method:<12} "
                  f"max rel err {t.max_relative_error:.3e}")
        print(f"  -> max {report.max_relative_error:.3e}")
        worst = max(worst, report.max_relative_error)
    if worst >= GRADCHECK_TOLERANCE:
        print(f"gradient check FAILED: {worst:.3e} >= {GRADCHECK_TOLERANCE:g}")
        return 2
    print(f"gradient check passed: max relative error {worst:.3e} < {GRADCHECK_TOLERANCE:g}")
    return 0


# --- parser -------------------------------------------------------------

def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="gaitverify",
                     description="Gait feature learning and one-class-SVM verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parsers: dict[str, _Parser] = {}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value file; explicit flags win")
        parsers[name] = p
        return p

    p = add("synth", cmd_synth, "generate a synthetic canonical-CSV dataset")
    p.add_required("--subjects", type=_count)
    p.add_required("--seconds", type=_seconds, help="seconds per recording")
    p.add_argument("--sessions", type=int, choices=(1, 2), default=2)
    p.add_argument("--recordings", type=_count, default=1,
                   help="recordings per subject per session")
    p.add_argument("--drift", type=_drift, default=0.0,
                   help="cross-day drift in [0,1]")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_required("--out")

    p = add("train", cmd_train, "train a feature extractor and save the encoder")
    p.add_required("--mode", choices=("e2e", "ae"))
    p.add_required("--data", help="canonical gait CSV")
    p.add_argument("--augment", choices=("none", "rnd", "cshift"), default="none")
    p.add_argument("--epochs", type=_count, default=100)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_required("--out", help="output model container")

    p = add("extract", cmd_extract, "extract features into a CSV")
    p.add_argument("--model", help="encoder container (omit with --raw)")
    p.add_required("--data", help="canonical gait CSV")
    p.add_required("--out", help="output features CSV")
    p.add_argument("--raw", action="store_true",
                   help="emit 384-d concatenated raw features instead")

    p = add("evaluate", cmd_evaluate, "run a verification protocol over features")
    p.add_required("--features", help="features CSV")
    p.add_required("--protocol", choices=("sd1", "sd2", "cd"))
    p.add_argument("--window", type=_windows, default=[1],
                   help="aggregation window, e.g. 3 or 1..5 or 1,3,5")
    p.add_argument("--nu", type=_nu, default=DEFAULT_NU)
    p.add_argument("--gamma", type=_gamma, default="auto")
    p.add_argument("--label-features", default=None,
                   help="feature-kind label for the report (default: inferred)")
    p.add_argument("--label-augment", default="none",
                   help="augmentation label for the report")
    p.add_required("--out", help="output per-user report CSV")

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of all backward passes")
    p.add_argument("--seed", type=_seed, default=0)

    return parser, parsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        command = parsers[args.command]
        if args.config:
            command.set_defaults(**_config_defaults(parsers, args.command, args.config))
            args = parser.parse_args(argv)
            _convert_config_values(command, args)
        missing = [flag for flag in command.required_flags
                   if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)} "
                              f"(as a flag or in --config)")
        _check_out_dir(args)
        return args.func(args, argv)
    except (_UsageError, InvalidInputError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GaitVerifyError, MemoryError) as exc:  # ConvergenceError among them
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
