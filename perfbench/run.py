#!/usr/bin/env python3
"""spinsym benchmark: time to verdict of the real command line.

Usage, from the root of a spinsym checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample spawns a fresh interpreter (``child.py``) that imports
``spinsym.cli`` and calls ``cli.run(argv)`` once, so the engine's
process-global caches start cold as they do for a command-line user.  Load
is a closed loop with one client: the next sample starts when the previous
one has exited.  Children get the caller's environment minus every
``SPINSYM_*`` variable, so ``--jobs`` and the term ceiling keep their
defaults, and minus ``PYTHONDONTWRITEBYTECODE``, so the untimed warm-up
leaves bytecode caches for the timed samples.

``--trace 0`` measures untraced samples and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced samples and reports
the per-layer metrics.  The timed metrics ``verdict_norm_s`` and
``setup_s`` are rescaled to a fixed machine speed with the reference
kernel in ``reference.py``; the raw wall and CPU times are printed beside
them.  Every verdict is checked against answers written
down by hand.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those listed in ``BENCHMARK.json`` at the repository root.
``--workload all`` runs every workload in ``BENCHMARK.json`` in turn.
See ``perfbench/README.md`` for the workloads and how to compare commits.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPANS_DIR = ROOT / ".perfbench"
CONTRACT = ROOT / "BENCHMARK.json"

# Every run replays this fixed panel of oracle seeds, starting at the
# benchmark seed's position in it.  The oracle's cost depends on its seed
# (one sp(2) Sutherland L=3 oracle took 1.8-2.8 s across seeds 1-6), so a
# fresh oracle seed per run would move time to verdict by a quarter with
# the input alone; a whole panel per run keeps runs comparable.  Metrics
# are the mean over the panel of each seed's median (see headline()).
ORACLE_PANEL = (1, 2, 3)

# A run must exit within 180 s: no sample starts after STOP_STARTING_S and
# none may run past HARD_STOP_S from the start of the run.
STOP_STARTING_S = 120.0
HARD_STOP_S = 170.0

TRIPLE_SL2 = ("both sides vanish identically for every triple: the cubic "
              "relation is degenerate for a three-dimensional algebra")
ORACLE_ZERO = "80 evaluations over 4 identity families, all exactly zero"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and the verdicts it must reach.

    ``checks`` maps every check the run reports to notes that must appear
    verbatim; each must also pass.  ``oracle`` workloads get ``--seed``
    from ORACLE_PANEL.  ``roots`` is the expected ``lambda_roots``.
    """

    name: str
    argv: Tuple[str, ...]
    checks: Dict[str, Tuple[str, ...]]
    oracle: bool = False
    roots: Optional[Tuple[str, ...]] = None


def _model(*args: str) -> Tuple[str, ...]:
    return ("model",) + args


CONFINED_SUITE = {
    "conservation-level0": ("3 generators conserved",),
    "conservation-level1": ("3 generators conserved",),
    "level-relation-0": ("9 bracket pairs verified",),
    "level-relation-1": ("9 bracket pairs verified",),
    "serre-yangian": (
        "27 triples verified under the committed convention",
        "nonvacuous triples: 0",
        "trap -> 0 reduction matched the zero-trap rebuild byte for byte "
        "on 27 triples"),
    "oracle-crosscheck": (ORACLE_ZERO,),
}

WORKLOADS = {w.name: w for w in (
    # The workloads in BENCHMARK.json, 1-3 s a sample on a 2-core box; the
    # reason for each is in README.md.
    Workload(
        "serre-sp2-L3",
        _model("--model", "sutherland", "--N", "2", "--theta0", "-1",
               "--L", "3", "--lambda", "star", "--checks", "serre"),
        {"serre-yangian": ("27 triples verified under the committed "
                           "convention", "nonvacuous triples: 0",
                           TRIPLE_SL2)}),
    Workload(
        "solve-so3-L3",
        ("solve-lambda", "--model", "sutherland", "--N", "3", "--theta0",
         "+1", "--L", "3"),
        {"coupling-solver": ("roots: -2",)},
        roots=("-2",)),
    Workload(
        "oracle-sp2-L3",
        _model("--model", "sutherland", "--N", "2", "--theta0", "-1",
               "--L", "3", "--checks", "oracle"),
        {"oracle-crosscheck": (ORACLE_ZERO,)},
        oracle=True),
    Workload(
        "confined-sp2-L2",
        _model("--model", "confined", "--N", "2", "--theta0", "-1",
               "--L", "2"),
        CONFINED_SUITE,
        oracle=True),
    # The full-size instances they stand in for, 10-50 s a sample: for runs
    # by hand and for the seed-count proof in selftest.py.
    Workload(
        "serre-sp4",
        _model("--model", "sutherland", "--N", "4", "--theta0", "-1",
               "--L", "2", "--lambda", "star", "--checks", "serre"),
        {"serre-yangian": ("1000 triples verified under the committed "
                           "convention", "nonvacuous triples: 660")}),
    Workload(
        "solve-sp4",
        ("solve-lambda", "--model", "sutherland", "--N", "4", "--theta0",
         "-1", "--L", "3"),
        {"coupling-solver": ("roots: 1/4",)},
        roots=("1/4",)),
    Workload(
        "oracle-sp2-confined",
        _model("--model", "confined", "--N", "2", "--theta0", "-1",
               "--L", "3", "--checks", "oracle"),
        {"oracle-crosscheck": (ORACLE_ZERO,)},
        oracle=True),
    Workload(
        "confined-so3",
        _model("--model", "confined", "--N", "3", "--theta0", "+1",
               "--L", "2"),
        CONFINED_SUITE,
        oracle=True),
    # Under 1 s, for selftest.py.
    Workload(
        "tiny",
        _model("--model", "calogero", "--N", "2", "--theta0", "-1",
               "--L", "2"),
        {"conservation-level0": ("3 generators conserved",),
         "conservation-level1": ("3 generators conserved",),
         "level-relation-0": ("9 bracket pairs verified",),
         "level-relation-1": ("9 bracket pairs verified",),
         "serre-halfloop": ("27 triples verified",
                            "triples with nonzero cyclic pieces: 18"),
         "oracle-crosscheck": (ORACLE_ZERO,)},
        oracle=True),
)}


# ---------------------------------------------------------------------------
# one sample


@dataclass
class Sample:
    oracle_seed: Optional[int]
    traced: bool
    attempted: int
    failed: int
    record: object = None          # the verdicts, for traced/untraced equality
    setup_s: float = math.nan
    verdict_s: float = math.nan
    verdict_cpu_s: float = math.nan
    kernel_cpu_s: float = math.nan
    rss_mb: float = math.nan
    layers: Optional[Dict[str, float]] = None
    bindings: Optional[Dict[str, List[str]]] = None
    unwrapped: Tuple[str, ...] = ()
    error: str = ""


def child_env() -> Dict[str, str]:
    """The caller's environment without SPINSYM_* settings, and with
    bytecode caching allowed, as for an installed package."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SPINSYM_") and k != "PYTHONDONTWRITEBYTECODE"}


def _spawn(config: dict, timeout: float) -> Tuple[float, dict]:
    """Run child.py; return the spawn time and its result object."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(config)], cwd=str(ROOT),
        env=child_env(), capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return start, json.loads(lines[-1])


def warm_up() -> None:
    """Untimed import in a child, so bytecode caches exist before timing."""
    _spawn({"src": str(SRC), "argv": [], "trace": 0, "spans": None,
            "sample": 0}, timeout=60)


def verdicts(output: str) -> Tuple[List[Tuple], Optional[List[str]]]:
    """(name, status, witness, notes) per check, and lambda_roots."""
    payload = json.loads(output)
    checks = [(c["name"], c["status"], tuple(c["witness"]), tuple(c["notes"]))
              for c in payload["checks"]]
    return checks, payload.get("lambda_roots")


def judge(w: Workload, rc: int, output: str) -> Tuple[int, int]:
    """(attempted, failed): expected checks plus any unexpected ones."""
    attempted = len(w.checks)
    if rc != 0:
        return attempted, attempted
    try:
        checks, roots = verdicts(output)
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    seen = {name: (status, notes) for name, status, _, notes in checks}
    extra = [name for name in seen if name not in w.checks]
    failed = len(extra)
    for name, notes in w.checks.items():
        status, got = seen.get(name, ("missing", ()))
        if status != "pass" or any(n not in got for n in notes):
            failed += 1
        elif w.roots is not None and name == "coupling-solver" \
                and tuple(roots or ()) != w.roots:
            failed += 1
    return attempted + len(extra), failed


def run_sample(w: Workload, oracle_seed: Optional[int], traced: bool,
               timeout: float, spans: Optional[Path] = None,
               sample: int = 0) -> Sample:
    argv = list(w.argv)
    if w.oracle:
        argv += ["--seed", str(oracle_seed)]
    argv += ["--format", "json"]
    config = {"src": str(SRC), "argv": argv, "trace": int(traced),
              "spans": str(spans) if spans else None, "sample": sample}
    attempted = len(w.checks)
    try:
        start, result = _spawn(config, timeout)
    except subprocess.TimeoutExpired:
        return Sample(oracle_seed, traced, attempted, attempted,
                      error=f"timed out after {timeout:.0f} s")
    except (RuntimeError, ValueError) as exc:
        return Sample(oracle_seed, traced, attempted, attempted,
                      error=str(exc))
    attempted, failed = judge(w, result["rc"], result["output"])
    try:
        record = (result["rc"],) + verdicts(result["output"])
        record = json.dumps(record)
    except (ValueError, KeyError, TypeError):
        record = None
    return Sample(
        oracle_seed, traced, attempted, failed, record,
        setup_s=result["imported"] - start, verdict_s=result["verdict_s"],
        verdict_cpu_s=result["verdict_cpu_s"],
        kernel_cpu_s=result["kernel_cpu_s"],
        rss_mb=result["maxrss_kb"] / 1024.0, layers=result.get("layers"),
        bindings=result.get("bindings"),
        unwrapped=tuple(result.get("unwrapped", ())))


# ---------------------------------------------------------------------------
# one run


def collect(w: Workload, seed: int, seconds: float, trace: bool
            ) -> List[Sample]:
    """Samples for ``seconds``; oracle workloads end on a whole panel.

    With ``trace`` each step is an untraced sample followed by a traced
    one on the same input; the first traced sample writes its spans.
    """
    samples: List[Sample] = []
    start = perf_counter()
    step = 0
    while True:
        oracle_seed = (ORACLE_PANEL[(seed + step) % len(ORACLE_PANEL)]
                       if w.oracle else None)
        for traced in ((False, True) if trace else (False,)):
            spans = None
            if traced and step == 0:
                SPANS_DIR.mkdir(exist_ok=True)
                spans = SPANS_DIR / f"spans-{w.name}-seed{seed}.tsv"
            left = HARD_STOP_S - (perf_counter() - start)
            samples.append(run_sample(w, oracle_seed, traced, max(left, 1.0),
                                      spans, len(samples)))
        step += 1
        elapsed = perf_counter() - start
        whole = not w.oracle or step % len(ORACLE_PANEL) == 0
        if (elapsed >= seconds and whole) or elapsed >= STOP_STARTING_S:
            return samples


def highest_percentile(values: List[float]) -> Optional[Tuple[int, float]]:
    """Highest of p99/p95/p90/p75 with ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def headline(by_input: Dict[Optional[int], List[float]]) -> float:
    """Median per input, then the mean over inputs.

    A workload without the oracle has one input, so this is the median of
    its samples.  Over an oracle panel, a plain median would fall inside
    the middle-cost seed's samples alone and ignore the other two thirds.
    """
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def describe(name: str, unit: str,
             by_input: Dict[Optional[int], List[float]]) -> str:
    pooled = [v for values in by_input.values() for v in values]
    if len(by_input) == 1:
        line = f"{name}: median {headline(by_input):.6g} {unit} (n={len(pooled)}"
    else:
        medians = ", ".join(f"seed {k}: {statistics.median(v):.6g}"
                            for k, v in sorted(by_input.items()))
        line = (f"{name}: {headline(by_input):.6g} {unit}, the mean of "
                f"per-oracle-seed medians ({medians}) (n={len(pooled)}")
    top = highest_percentile(pooled)
    if top:
        line += f", p{top[0]} {top[1]:.6g} {unit}"
    else:
        line += "; no percentile above the median has ten samples beyond it"
    return line + ")"


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def end_to_end(samples: List[Sample]
               ) -> Dict[str, Dict[Optional[int], List[float]]]:
    """Per metric, the values of the good samples grouped by oracle seed.

    ``verdict_norm_s`` and ``setup_s`` are rescaled to the reference
    speed: each is divided by the CPU time of the reference kernel run in
    the same child and multiplied by the kernel's nominal time.  The raw
    times are reported beside them.
    """
    out: Dict[str, Dict[Optional[int], List[float]]] = {}
    for s in samples:
        if not s.error:
            speed = NOMINAL_S / s.kernel_cpu_s
            for key, value in (("verdict_norm_s", s.verdict_cpu_s * speed),
                               ("setup_s", s.setup_s * speed),
                               ("peak_rss_mb", s.rss_mb),
                               ("verdict_s", s.verdict_s),
                               ("verdict_cpu_s", s.verdict_cpu_s),
                               ("setup_wall_s", s.setup_s),
                               ("kernel_cpu_s", s.kernel_cpu_s)):
                out.setdefault(key, {}).setdefault(
                    s.oracle_seed, []).append(value)
    return out


RATIOS = {  # ratio metric -> (numerator count, denominator count)
    "exact.poly_divexact_diff.hit_ratio": ("exact.poly_divexact_diff.hits",
                                           "exact.poly_divexact_diff.calls"),
    "exact.rf_sum.zero_ratio": ("exact.rf_sum.zeros", "exact.rf_sum.calls"),
    "operators.commutator.zero_ratio": ("operators.commutator.zeros",
                                        "operators.commutator.calls"),
}


def per_layer(pairs: List[Tuple[Sample, Sample]]) -> Dict[str, float]:
    """Per-sample means over the traced samples; ratios of summed counts."""
    traced = [t for _, t in pairs]
    out: Dict[str, float] = {}
    for key in traced[0].layers:
        values = [t.layers[key] for t in traced]
        out[key] = (max(values) if key.endswith("peak_terms")
                    else sum(values) / len(values))
    for ratio, (num, den) in RATIOS.items():
        total = sum(t.layers[den] for t in traced)
        out[ratio] = sum(t.layers[num] for t in traced) / total if total else 0.0
    out["trace.overhead_ratio"] = (sum(t.verdict_s for t in traced)
                                   / sum(u.verdict_s for u, _ in pairs))
    return out


def trace_problems(pairs: List[Tuple[Sample, Sample]]) -> List[str]:
    """Traced verdicts equal untraced ones; counts repeat per input."""
    problems = []
    counts: Dict[Optional[int], Dict[str, float]] = {}
    for untraced, traced in pairs:
        if traced.unwrapped:
            problems.append(f"unwrapped bindings: {list(traced.unwrapped)}")
        if traced.record != untraced.record:
            problems.append(f"traced verdicts differ from untraced ones "
                            f"(oracle seed {traced.oracle_seed})")
        mine = {k: v for k, v in traced.layers.items()
                if unit_of(k) == "count"}
        first = counts.setdefault(traced.oracle_seed, mine)
        if first != mine:
            problems.append(f"counts differ between traced samples of "
                            f"oracle seed {traced.oracle_seed}")
    return problems


def machine() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": commit}


def contract() -> dict:
    """BENCHMARK.json: run_seconds, workload names, and (name, unit) per
    metric group."""
    spec = json.loads(CONTRACT.read_text(encoding="utf-8"))
    out = {group: [(m["name"], m["unit"]) for m in spec[group]]
           for group in ("end_to_end", "per_layer")}
    out["workloads"] = [w["name"] for w in spec["workloads"]]
    out["run_seconds"] = spec["run_seconds"]
    return out


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            wanted: List[Tuple[str, str]]) -> dict:
    """One run: print the human report, return the result object."""
    load_before = os.getloadavg()
    try:
        warm_up()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"warm-up failed: {exc}")  # the samples will fail and count
    samples = collect(w, seed, seconds, trace)
    load_after = os.getloadavg()
    info = machine()
    info.update(load_before=[round(x, 2) for x in load_before],
                load_after=[round(x, 2) for x in load_after])
    print(f"workload: {w.name}  seed: {seed}  trace: {int(trace)}  "
          f"oracle seeds: {[s.oracle_seed for s in samples if not s.traced]}")
    print(f"command: spinsym {' '.join(w.argv)}"
          f"{' --seed <oracle seed>' if w.oracle else ''} --format json")
    print("machine: " + json.dumps(info))
    for s in samples:
        if s.error:
            print(f"sample error: {s.error}")
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    print(f"failed_share: {failed / attempted:.6g} share "
          f"({failed} of {attempted} checks)")
    correct = failed == 0
    values: Dict[str, float] = {}
    if trace:
        pairs = list(zip(samples[0::2], samples[1::2]))
        good = [(u, t) for u, t in pairs if not (u.error or t.error)]
        problems = trace_problems(good) if good else ["no traced sample"]
        for p in problems:
            print(f"trace problem: {p}")
        correct = correct and not problems
        if good:
            print("bindings: " + json.dumps(good[0][1].bindings))
            values = per_layer(good)
            for key in sorted(values):
                print(f"{key}: {values[key]:.6g} {unit_of(key)} "
                      f"(over {len(good)} traced samples)")
    else:
        series = end_to_end(samples)
        units = dict(wanted)
        for key, by_input in series.items():
            print(describe(key, units.get(key, unit_of(key)), by_input))
            if key in units:
                values[key] = headline(by_input)
    missing = [k for k, _ in wanted if k not in values]
    if missing:
        correct = False
        print(f"missing metrics: {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values.get(k, 0.0), "unit": u}
                        for k, u in wanted}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinsym" / "cli.py").is_file() or not CONTRACT.is_file():
        print(f"no spinsym source under {SRC} or no {CONTRACT.name}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    spec = contract()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload == "all":
        names = spec["workloads"]
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        results[name] = measure(WORKLOADS[name], args.seed, seconds,
                                bool(args.trace), wanted)
        if len(names) > 1:
            print(f"result {name}: " + json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
