"""Repeat mode: every workload several times, each run in a fresh process.

Prints, for each workload and metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound. The benchmark is steady when every spread except ``setup_s``'s is
below a third of its bound. The last line is a JSON object with every
run's values, for comparing two sets of runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 900


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median); quartiles need two or more values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def run_all(spec: dict, names: list[str], seed: int, repeat: int, seconds: float,
            trace: int) -> int:
    metrics = spec["per_layer" if trace else "end_to_end"]
    values = {name: {m["name"]: [] for m in metrics} for name in names}
    bad = 0
    for i in range(repeat):
        for name in names:
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed + i),
                   "--seconds", f"{seconds:g}", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                bad += 1
                print(f"{name} seed {seed + i}: exit {proc.returncode}, "
                      f"correct {result and result['correct']}\n"
                      + "\n".join(lines[-25:]) + proc.stderr[-2000:], flush=True)
                continue
            for key, entry in result["metrics"].items():
                values[name][key].append(entry["value"])
            print(f"{name} seed {seed + i}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not trace or k in ("trace.pipeline_s", "trace.overhead_s")), flush=True)

    print(f"\n{'workload':<11} {'metric':<28} {'unit':<9} {'n':>2} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        for m in metrics:
            vals = values[name][m["name"]]
            if not vals:
                continue
            med, q1, q3, sp = spread(vals)
            bound = m.get("bound")
            flag = "" if bound is None else ("  ok" if sp < bound / 3 else "  WIDE")
            print(f"{name:<11} {m['name']:<28} {m['unit']:<9} {len(vals):>2} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {sp:>7.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    print(json.dumps({"seed": seed, "repeat": repeat, "seconds": seconds, "trace": trace,
                      "failed_runs": bad, "values": values}))
    return 1 if bad else 0
