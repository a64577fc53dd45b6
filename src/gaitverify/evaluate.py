"""Verification protocols, ROC-AUC / EER metrics, and score aggregation.

Scores follow the convention "higher = more genuine". AUC and EER are
returned as fractions; the CLI converts to percent for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ocsvm
from .data.canonical import csv_line
from .errors import InvalidInputError

PROTOCOL_KINDS = ("same_day_s1", "same_day_s2", "cross_day")
_PROTOCOL_ALIASES = {"sd1": "same_day_s1", "sd2": "same_day_s2", "cd": "cross_day"}

TRAIN_FRACTION = 2.0 / 3.0
# (training session, test session) of each protocol
_SESSIONS = {"same_day_s1": ("1", "1"), "same_day_s2": ("2", "2"), "cross_day": ("1", "2")}


def normalize_protocol(kind: str) -> str:
    kind = _PROTOCOL_ALIASES.get(kind, kind)
    if kind not in PROTOCOL_KINDS:
        raise InvalidInputError(f"unknown protocol {kind!r}")
    return kind


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol and the distinct aggregation windows to report, each in 1..5."""

    kind: str
    windows: tuple[int, ...] = (1,)

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_protocol(self.kind))
        windows = tuple(self.windows)
        if not windows or any(not 1 <= w <= 5 for w in windows):
            raise InvalidInputError(f"windows must lie in 1..5, got {windows}")
        if len(set(windows)) != len(windows):
            raise InvalidInputError(f"duplicate aggregation window in {windows}")
        object.__setattr__(self, "windows", windows)


@dataclass
class UserResult:
    """One user's AUC/EER and the number of scores they rest on.

    ``n_genuine`` and ``n_impostor`` count aggregated scores, after the
    aggregation window is applied, not frames. ``n_impostor`` sums over all
    other users with frames in the test session, skipped users included, and
    over all of their recordings.
    """

    user_id: str
    auc: float
    eer: float
    n_genuine: int
    n_impostor: int


@dataclass
class EvalReport:
    protocol: str
    feature_kind: str
    window: int
    users: list[UserResult]
    mean_auc: float
    stdev_auc: float
    mean_eer: float
    stdev_eer: float
    augmentation: str = "none"
    warnings: list[str] = field(default_factory=list)


def _score_counts(genuine, impostor):
    """Genuine and impostor counts at each distinct score, in ascending order.

    ``n_g[k]`` and ``n_i[k]`` count the scores of each list equal to the k-th
    smallest distinct value of both lists; -0.0 and 0.0 are one value.
    """
    g = np.asarray(genuine, dtype=np.float64)
    i = np.asarray(impostor, dtype=np.float64)
    if g.size == 0 or i.size == 0:
        raise InvalidInputError("genuine and impostor score lists must be non-empty")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(i))):
        raise InvalidInputError("scores must be finite")
    values, inverse = np.unique(np.concatenate([g, i]), return_inverse=True)
    return (np.bincount(inverse[:g.size], minlength=values.size),
            np.bincount(inverse[g.size:], minlength=values.size))


def roc_auc(genuine, impostor) -> float:
    """P(random genuine > random impostor), ties counted 1/2 (Mann-Whitney).

    Each genuine score wins against every lower impostor score and half of
    the equal ones; every count is exact until the final division.
    """
    n_g, n_i = _score_counts(genuine, impostor)
    return float(n_g @ (np.cumsum(n_i) - 0.5 * n_i) / (n_g.sum() * n_i.sum()))


def eer(genuine, impostor) -> float:
    """Equal error rate from a sweep over the union of observed scores.

    At threshold t, FAR is the share of impostor scores >= t and FRR that of
    genuine scores < t. FAR - FRR is non-increasing in t; the EER is read at
    the t minimizing |FAR - FRR|, interpolated linearly between the two
    bracketing thresholds when the difference changes sign strictly.
    """
    n_g, n_i = _score_counts(genuine, impostor)
    far = (n_i.sum() - (np.cumsum(n_i) - n_i)) / n_i.sum()
    frr = (np.cumsum(n_g) - n_g) / n_g.sum()
    diff = far - frr
    cross = np.flatnonzero((diff[:-1] > 0) & (diff[1:] < 0))
    if cross.size:
        k = int(cross[0])
        lam = diff[k] / (diff[k] - diff[k + 1])
        lo = (far[k] + frr[k]) / 2.0
        hi = (far[k + 1] + frr[k + 1]) / 2.0
        return float((1.0 - lam) * lo + lam * hi)
    k = int(np.argmin(np.abs(diff)))
    return float((far[k] + frr[k]) / 2.0)


def aggregate_scores(scores, segments, window: int) -> np.ndarray:
    """Means over consecutive non-overlapping windows within each segment.

    ``segments`` are (start, length) row ranges of ``scores``, one per
    recording, each ordered by frame index. A window never spans two
    segments, and each segment's trailing partial window is dropped.
    window=1 returns the segments' scores.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    seg = np.asarray(segments, dtype=np.intp).reshape(-1, 2)
    counts = seg[:, 1] // window
    nth = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = np.repeat(seg[:, 0], counts) + window * nth
    gathered = np.asarray(scores, dtype=np.float64)[starts[:, None] + np.arange(window)]
    return gathered.mean(axis=1)


def summarize(per_user: list[UserResult]) -> dict[str, float]:
    """Arithmetic mean and population stdev of per-user AUC/EER."""
    if not per_user:
        raise InvalidInputError("cannot summarize an empty result list")
    aucs = np.asarray([u.auc for u in per_user])
    eers = np.asarray([u.eer for u in per_user])
    return {
        "mean_auc": float(aucs.mean()),
        "stdev_auc": float(aucs.std()),
        "mean_eer": float(eers.mean()),
        "stdev_eer": float(eers.std()),
    }


def _session_layout(sources, session: str, users: list[str]):
    """Row order of one session's frames and each user's recording segments.

    Rows go user -> recording -> frame index, users in the given order and
    recordings in order of first appearance. Each user with frames in the
    session maps to (start, length) ranges of that order, one per recording,
    and a user's ranges are adjacent.
    """
    recordings: dict[str, dict[str, list[int]]] = {}
    for r, (subject, sess, recording, _) in enumerate(sources):
        if sess == session:
            recordings.setdefault(subject, {}).setdefault(recording, []).append(r)
    order: list[int] = []
    segments: dict[str, list[tuple[int, int]]] = {}
    for user in users:
        for rows in recordings.get(user, {}).values():
            segments.setdefault(user, []).append((len(order), len(rows)))
            order.extend(sorted(rows, key=lambda r: sources[r][3]))
    return np.asarray(order, dtype=np.intp), segments


def _span(segments) -> tuple[int, int]:
    """(start, stop) of the rows that adjacent segments cover."""
    return segments[0][0], segments[-1][0] + segments[-1][1]


def run_protocol(sources, vectors, spec: ProtocolSpec, nu: float = ocsvm.DEFAULT_NU,
                 gamma="auto", feature_kind: str = "unknown",
                 augmentation: str = "none") -> list[EvalReport]:
    """Train per-user one-class models and score genuine/impostor streams.

    Returns one report per window of ``spec.windows``, in that order.
    Same-day: the first 2/3 of the user's session frames (recording order)
    train the model, the rest are genuine; all frames of all other users
    in that session are impostor. Cross-day: all session-1 frames train,
    the user's session-2 frames are genuine, everyone else's session-2
    frames are impostor. Each user's model is fit once and scores the whole
    test session once; every window is aggregated from those scores.
    Aggregation treats genuine and impostor streams identically, windowed
    within each recording: a window never spans two recordings, and the
    trailing partial window of each recording is dropped. Raises
    InvalidInputError, before any report is returned, if some window leaves
    no user evaluable, naming the first test-session row (in file order)
    whose squared norm overflows, since every model scores it, and naming
    the user if a model cannot take its own data.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if len(sources) != vectors.shape[0]:
        raise InvalidInputError("sources and vectors length mismatch")
    users = list(dict.fromkeys(source[0] for source in sources))
    cross_day = spec.kind == "cross_day"
    train_session, test_session = _SESSIONS[spec.kind]
    test_rows, test_segments = _session_layout(sources, test_session, users)
    if cross_day:
        train_rows, train_segments = _session_layout(sources, train_session, users)
        if not train_segments:
            raise InvalidInputError("cross-day protocol needs session 1 data")
        if not test_segments:
            raise InvalidInputError("cross-day protocol needs session 2 data")
    elif not test_segments:
        raise InvalidInputError(f"no users have session {test_session} data")
    x_test = vectors[test_rows]
    with np.errstate(over="ignore"):
        huge = test_rows[~np.isfinite(np.einsum("ij,ij->i", x_test, x_test))]
    if huge.size:
        subject, session, recording, frame = sources[huge.min()]
        raise InvalidInputError(f"subject {subject}, session {session}, recording {recording}, "
                                f"frame {frame}: vector values too large for the RBF kernel")

    results: dict[int, list[UserResult]] = {w: [] for w in spec.windows}
    warnings: dict[int, list[str]] = {w: [] for w in spec.windows}
    for user, segments in test_segments.items():
        if cross_day:
            minimum = 2
            start, stop = _span(train_segments.get(user, [(0, 0)]))
            train = vectors[train_rows[start:stop]]
            genuine_segments = segments
        else:
            minimum = 3
            start, stop = _span(segments)
            cut = start + int((stop - start) * TRAIN_FRACTION)
            train = x_test[start:cut]
            genuine_segments = [(max(s, cut), s + n - max(s, cut))
                                for s, n in segments if s + n > cut]
        if stop - start < minimum:
            for window in spec.windows:
                warnings[window].append(f"user {user}: fewer than {minimum} "
                                        f"session-{train_session} frames, skipped")
            continue
        impostor_segments = [seg for other, segs in test_segments.items() if other != user
                             for seg in segs]
        try:
            model = ocsvm.train_ocsvm(train, nu=nu, gamma=gamma)
            scores = ocsvm.scores(model, x_test)
        except InvalidInputError as exc:
            raise InvalidInputError(f"user {user}: {exc}") from None
        for window in spec.windows:
            genuine = aggregate_scores(scores, genuine_segments, window)
            impostor = aggregate_scores(scores, impostor_segments, window)
            if genuine.size and impostor.size:
                results[window].append(UserResult(user, roc_auc(genuine, impostor),
                                                  eer(genuine, impostor),
                                                  genuine.size, impostor.size))
            else:
                warnings[window].append(f"user {user}: empty genuine or impostor stream after "
                                        f"aggregation window {window}, skipped")

    reports = []
    for window in spec.windows:
        if not results[window]:
            raise InvalidInputError(
                "no user could be evaluated: " + "; ".join(warnings[window] or ["no data"]))
        reports.append(EvalReport(
            protocol=spec.kind, feature_kind=feature_kind, window=window,
            users=results[window], augmentation=augmentation, warnings=warnings[window],
            **summarize(results[window])))
    return reports


# --- report output ------------------------------------------------------

def write_report_csv(report: EvalReport, path) -> None:
    """Per-user rows plus one __summary__ footer row with mean (stdev)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("user_id,auc,eer\n")
        for u in report.users:
            fh.write(f"{csv_line([u.user_id])},{u.auc:.10g},{u.eer:.10g}\n")
        fh.write(f"__summary__,{report.mean_auc:.10g} ({report.stdev_auc:.10g}),"
                 f"{report.mean_eer:.10g} ({report.stdev_eer:.10g})\n")


def format_summary(reports: list[EvalReport]) -> str:
    """Table-style text summary, AUC/EER in percent: '95.27 (7.66)'."""
    rows = [("features", "augmentation", "protocol", "window",
             "avg_auc[%]", "avg_eer[%]", "users")]
    for r in reports:
        rows.append((
            r.feature_kind, r.augmentation, r.protocol, str(r.window),
            f"{100 * r.mean_auc:.2f} ({100 * r.stdev_auc:.2f})",
            f"{100 * r.mean_eer:.2f} ({100 * r.stdev_eer:.2f})",
            str(len(r.users)),
        ))
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
