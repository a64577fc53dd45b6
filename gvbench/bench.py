"""One seeded benchmark run of the gaitverify CLI, and the command line around it.

Set-up caps BLAS threads at the CPUs this process may use, imports
``gaitverify.cli`` from the checkout's ``src/`` and writes the workload's
canonical CSVs with ``synth`` (three times; the median counts). The
measured part repeats the command sequence (``train`` -> ``extract`` ->
``evaluate`` per protocol), one command at a time in this process, until
the next sequence would end past ``--seconds`` (at least two sequences);
metrics are medians over sequences, and every output is checked. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

A traced run starts with one uncounted sequence, then alternates untraced
and traced sequences; per-layer metrics are medians over the traced ones, and ``trace.overhead_s`` is
traced minus untraced sequence time. End-to-end metrics come only from
untraced runs.

``--workload all`` (or a comma-separated list) or ``--repeat N`` runs each
workload N times with seeds seed..seed+N-1, each in a fresh process, and
prints each metric's median, quartiles and spread next to its bound (see
gvbench/repeat.py).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from . import harness, spans, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".gvbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3       # set-up repetitions per untraced run; setup_s takes their median
MIN_ITERATIONS = 2   # sequences per kind (untraced, traced), so digests and counts
                     # are compared within every run


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or BENCHMARK.json)."""


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; return the cap.

    Must run before numpy is imported.
    """
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def import_cli():
    """Import gaitverify.cli from this checkout's src/; returns (module, seconds)."""
    if not (SRC / "gaitverify" / "cli.py").is_file():
        raise BenchError("src/gaitverify/cli.py not found: run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("gaitverify.cli")
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != (SRC / "gaitverify").resolve():
        raise BenchError(f"imported {cli.__file__}, not this checkout's src/")
    return cli, seconds


def environment(cap: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": cap,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']}-{blas['version']}"}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _failed(it) -> bool:
    return not it.results or it.results[-1].exit_code != 0


class Run:
    """One benchmark process: set-up, measured sequences, checks and metrics."""

    def __init__(self, cli, workload: workloads.Workload, seed: int, seconds: float,
                 workdir: Path):
        self.cli = cli
        self.workload = workload
        self.seconds = seconds
        self.setup_steps = workloads.synth_steps(workload, seed, workdir)
        self.steps = workloads.pipeline_steps(workload, seed, workdir)
        self.attempted = 0
        self.failures: list[str] = []

    def _account(self, it: harness.Iteration) -> None:
        self.attempted += it.attempted
        self.failures.extend(it.failures)

    def setup(self, reps: int, recorder: spans.Recorder | None = None) -> list[float]:
        """Write the canonical CSVs ``reps`` times; seconds per repetition."""
        times, reference = [], None
        for _ in range(reps):
            gc.collect()
            it = harness.run_iteration(self.cli, self.setup_steps, recorder)
            it.attempted = len(self.setup_steps)
            harness.check_steps(it, self.setup_steps, reference)
            reference = reference or it.digests
            self._account(it)
            times.append(it.seconds())
            if _failed(it):
                break
        return times

    def iterate(self, traced: bool = False, reference: dict[str, str] | None = None):
        """Whole command sequences until the next one would end past ``seconds``.

        A traced run alternates untraced and traced sequences, so the
        tracing overhead is measured in the same process. Spreading every
        command's samples over the whole run averages out the machine's
        slow and fast spells, which last seconds. Returns (iteration,
        recorder or None) pairs; stops once a command fails. ``reference``
        holds digests every sequence's outputs must match, if known already.
        """
        kinds = (False, True) if traced else (False,)
        done, walls = [], []
        start = time.perf_counter()
        while True:
            recorder = spans.Recorder() if kinds[len(done) % len(kinds)] else None
            gc.collect()
            t0 = time.perf_counter()
            if recorder is None:
                it = harness.run_iteration(self.cli, self.steps)
            else:
                with spans.traced(recorder):
                    it = harness.run_iteration(self.cli, self.steps, recorder)
            harness.check_iteration(it, self.workload, self.steps, reference)
            reference = reference or it.digests
            self._account(it)
            done.append((it, recorder))
            walls.append(time.perf_counter() - t0)
            if _failed(it):
                break
            if (len(done) >= MIN_ITERATIONS * len(kinds) and len(done) % len(kinds) == 0
                    and time.perf_counter() - start + statistics.median(walls) > self.seconds):
                break
        return done

    def rates(self, its) -> dict:
        """Per-command throughputs, medians over the given sequences."""
        epochs = self.workload.training.epochs if self.workload.training else 0
        return {
            # epochs x augmented training frames / wall time of train; 0 without training
            "train_frames_per_s": _median(it.train_frames * epochs / it.seconds("train")
                                          for it in its) if epochs else 0.0,
            "extract_frames_per_s": _median(it.extracted_frames / it.seconds("extract")
                                            for it in its),
            "verify_user_windows_per_s": _median(it.user_windows / it.seconds("evaluate")
                                                 for it in its),
        }

    def e2e_metrics(self, import_s: float) -> dict:
        setup_times = self.setup(SETUP_REPS)
        done = self.iterate() if not self.failures else []
        its = [it for it, _ in done if not it.failures]
        for command in dict.fromkeys(r.command for it in its[:1] for r in it.results):
            print(f"{command:<9} s per sequence: "
                  + " ".join(f"{it.seconds(command):.3f}" for it in its))
        return {
            "setup_s": import_s + _median(setup_times),
            "pipeline_s": _median(it.seconds() for it in its),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_auc_pct": 100.0 * statistics.fmean(its[0].auc) if its else 0.0,
            # printed here, reported by the traced run (see gvbench/design.json)
            "mean_eer_pct": 100.0 * statistics.fmean(its[0].eer) if its else 0.0,
            **self.rates(its),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics: medians over the traced sequences of one run."""
        setup = spans.Recorder()
        with spans.traced(setup):
            self.setup(1, setup)
        if self.failures:
            return {}
        # an uncounted first sequence, so first-call costs land on neither side
        warmup = harness.run_iteration(self.cli, self.steps)
        harness.check_iteration(warmup, self.workload, self.steps, None)
        self._account(warmup)
        if _failed(warmup):
            return {}
        done = self.iterate(traced=True, reference=warmup.digests)
        plain = [it for it, r in done if r is None and not it.failures]
        traced = [(it, r) for it, r in done if r is not None and not it.failures]
        if not plain or not traced:
            return {}
        per = [spans.layer_metrics(r) for _, r in traced]
        values = {}
        for key, first in per[0].items():
            if not isinstance(first, int):
                values[key] = statistics.median(p[key] for p in per)
                continue
            values[key] = first  # counts must repeat exactly
            if any(p[key] != first for p in per):
                self.failures.append(f"count {key} differs between traced sequences: "
                                     f"{[p[key] for p in per]}")
        traced_s = statistics.median(it.seconds() for it, _ in traced)
        values["data.write_canonical.s"] = spans.layer_metrics(setup)["data.write_canonical.s"]
        values["trace.pipeline_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(it.seconds() for it in plain)
        values.update(self.rates(plain))
        values["mean_eer_pct"] = 100.0 * statistics.fmean(traced[0][0].eer)
        shares = [spans.layer_shares(r, it.seconds()) for it, r in traced]
        print(f"self-time share of traced pipeline_s ({traced_s:.3f} s), "
              f"median of {len(traced)} traced sequences:")
        for layer in spans.LAYERS:
            print(f"  {layer:<16} {statistics.median(s[layer] for s in shares):6.2f} %")
        return values


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    cap = cap_blas_threads()
    cli, import_s = import_cli()
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(cli, workloads.WORKLOADS[name], seed, seconds, workdir)
        values = run.layer_metrics() if trace else run.e2e_metrics(import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("env: " + " ".join(f"{k}={v}" for k, v in environment(cap).items()))
    failed = min(len(run.failures), run.attempted)
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    values["failed_frac"] = failed / run.attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "1"
    for key, value in values.items():
        print(f"{key:<28} {value:>14.6g} {units.get(key, '')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,  # set-up alone attempts one synth per population
        "failed": failed,
        # a failed run may lack values; a correct one must produce every metric
        "metrics": {m["name"]: {"value": values[m["name"]] if failed == 0
                                else values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gvbench/run.py", description="Seeded benchmark of the gaitverify CLI pipeline.")
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, several joined by "
                             "commas, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a fresh process with its own seed")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        names = (list(workloads.WORKLOADS) if args.workload == "all"
                 else args.workload.split(","))
        if len(names) > 1 or args.repeat > 1:
            from . import repeat
            return repeat.run_all(spec, names, args.seed, args.repeat, seconds, args.trace)
        return run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
