"""Run one kodlat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the library is imported from ``src``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run measures half its time
untraced and half traced, and reports the per-layer ones.  A run record
(Python version, CPU count, commit, seed, tail percentile, output digest)
goes to ``perfbench/results/``, and the spans of a traced run next to it.

Seed 1 is the default.  Seed 2 is held out: do not tune on it, use it to
check a claim.  ``--smoke`` runs every workload at a tiny size, untraced
and traced, in a few seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 3  # before the timed loop, and again after it in an untraced run
IMPORT_REPEATS = 5
MAX_ERRORS_SHOWN = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_metrics(targets) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for target in targets:
        out.append((f"{target}.calls_per_op", "count", "lower"))
        out.append((f"{target}.self_ms_per_op", "ms", "lower"))
    out += [
        ("chamber.walk_steps_per_op", "count", "lower"),
        ("chamber.us_per_step", "us", "lower"),
        ("chamber.walk_steps_per_s", "1/s", "higher"),
        ("exact.operand_bits_max", "bits", "lower"),
        ("roots.box_roots_per_op", "count", "higher"),
        ("roots.fundamental_roots.setup_self_ms", "ms", "lower"),
        ("catalog.curve_from_label.setup_self_ms", "ms", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.stdout_bytes_per_op", "bytes", "lower"),
        ("cli.batch_lines_per_s", "1/s", "higher"),
        ("tracing.overhead_frac", "frac", "lower"),
    ]
    return out


class Library(NamedTuple):
    workloads: object
    tracing: object
    import_s: float


def load_library() -> Library:
    """Import kodlat from this checkout's src and the workload code; exit if absent.

    ``kodlat.cli`` imports every module of the library.  It is imported
    IMPORT_REPEATS times, each time after dropping the library's modules, and
    ``import_s`` is the median: the first import may compile bytecode.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "kodlat" or m.startswith("kodlat.")]:
            del sys.modules[name]
        start = time.perf_counter()
        try:
            importlib.import_module("kodlat.cli")
        except ImportError as exc:
            sys.exit(f"perfbench: cannot import kodlat from {src}: {exc}")
        times.append(time.perf_counter() - start)
    import_s = statistics.median(times)
    import kodlat
    if not Path(kodlat.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: kodlat was imported from {kodlat.__file__}, not from {src}")
    import tracing
    import workloads
    return Library(workloads, tracing, import_s)


class Phase:
    """Latencies, failures and counts of one timed loop over whole passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, int] = {}
        self.bits: list[int] = []
        self.passes = 0
        self.digest = hashlib.sha256()

    @property
    def ops(self) -> int:
        return len(self.latencies)


def measure(wl, pool, replay: bool, stop, tracer=None) -> Phase:
    """Run ops over the pool in order, pass after pass, until ``stop(phase)``
    holds after an op.  Only the op is timed; its output is checked after the
    timer stops: against the oracle the first time a slot runs, and on later
    passes its canonical form must equal that of the first output."""
    op = wl.replay_op if replay else wl.op
    phase = Phase()
    first = [None] * len(pool)
    gc.collect()
    while True:
        idx = phase.ops % len(pool)
        item = pool[idx]
        error = None
        start = time.perf_counter()
        try:
            out = tracer.run_op(phase.ops, op, item) if tracer else op(item)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        phase.latencies.append(elapsed)
        phase.busy += elapsed
        if error is None:
            canon = wl.canonical(out)
            if first[idx] is None:
                error = wl.verify(item, out)
                first[idx] = canon
                phase.digest.update(canon.encode("utf-8") + b"\n")
                if tracer is not None:
                    phase.bits.append(_max_bits(wl.input_text(item) + canon))
            elif canon != first[idx]:
                error = "output differs from the first pass on the same input"
            for key, val in wl.counts(out).items():
                phase.counts[key] = phase.counts.get(key, 0) + val
        if error is not None:
            phase.failed += 1
            phase.errors.append(f"{wl.name} slot {idx}: {error}")
        if phase.ops % len(pool) == 0:
            phase.passes += 1
        if stop(phase):
            return phase


def whole_passes(seconds: float, n: int):
    """Stop at the end of a pass when the next pass would exceed ``seconds`` of op time."""
    return lambda ph: ph.ops % n == 0 and ph.busy * (ph.passes + 1) / ph.passes > seconds


def _max_bits(text: str) -> int:
    return max((int(tok).bit_length() for tok in re.findall(r"\d+", text)), default=0)


def slot_means(latencies, n: int) -> list[float]:
    """The mean latency of each of the pool's n slots over the passes run.

    The mean, not the median: the machine's speed may switch between levels
    during a run, and a median over a few passes flips with it.
    """
    return [statistics.fmean(latencies[i::n]) for i in range(n)]


def percentile(xs, pct: float) -> float:
    """The pct-th percentile, interpolated linearly between closest ranks."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup(wl, seed: int, replay: bool) -> tuple[list, list[float]]:
    """Set up SETUP_REPEATS times; return (pool, seconds of each set-up)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool, warm = wl.setup(seed)
        (wl.replay_op if replay else wl.op)(warm)
        times.append(time.perf_counter() - start)
    return pool, times


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_workload(lib: Library, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    tracing, import_s = lib.tracing, lib.import_s
    wl = lib.workloads.WORKLOADS[name](ROOT, tiny=tiny)
    pool, setup_times = setup(wl, seed, replay=trace)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
        "platform": platform.platform(), "import_s": import_s, "setup_runs_s": setup_times,
        "pool_size": len(pool),
    }
    if not trace:
        phase = measure(wl, pool, False, whole_passes(seconds, len(pool)))
        extras, extra_attempted, extra_failed = wl.finish(traced=False)
        # set up again at the end, so the median samples the machine at two times
        setup_times += setup(wl, seed, replay=False)[1]
        slots = slot_means(phase.latencies, len(pool))
        metrics = {
            "ops_per_s": phase.ops / phase.busy,
            "op_p50_ms": statistics.median(slots) * 1e3,
            "op_tail_ms": percentile(slots, wl.TAIL_PCT) * 1e3,
            "peak_rss_mb": peak_rss_mb(wl),
            "setup_s": import_s + statistics.median(setup_times),
        }
        units = dict(END_TO_END)
        n = len(pool)
        phases = [phase]
        record.update(tail_percentile=wl.TAIL_PCT, tail_samples=phase.ops,
                      latencies_ms=[x * 1e3 for x in phase.latencies],
                      pass_s=[sum(phase.latencies[k * n:(k + 1) * n]) for k in range(phase.passes)],
                      walk_steps_per_s=phase.counts.get("walk_steps", 0) / phase.busy)
    else:
        # the plain half stops between ops; the traced half runs the same ops
        plain = measure(wl, pool, True, lambda ph: ph.busy >= seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, pool, True, lambda ph: ph.ops == plain.ops, tracer)
            tracer.op = tracing.SETUP_OP
            pool, warm = wl.setup(seed)
            wl.replay_op(warm)
            tracer.op = None
        finally:
            tracer.uninstall()
        extras, extra_attempted, extra_failed = wl.finish(traced=True)
        metrics = layer_metrics(tracing, tracer, plain, traced, extras)
        units = {m: u for m, u, _ in per_layer_metrics(tracing.TARGETS)}
        phases = [plain, traced]
        record["absent_targets"] = tracer.absent
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"spans-{name}.jsonl", {"workload": name, "seed": seed})
    attempted = sum(p.ops for p in phases) + extra_attempted
    failed = sum(p.failed for p in phases) + extra_failed
    errors = [e for p in phases for e in p.errors]
    for err in errors[:MAX_ERRORS_SHOWN]:
        print(err, file=sys.stderr)
    record.update(
        ops=[p.ops for p in phases], passes=[p.passes for p in phases],
        fail_frac=failed / attempted, digest=phases[0].digest.hexdigest(),
        extras=extras, errors=errors[:50],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record["result"] = result
    return result, record


def layer_metrics(tracing, tracer, plain: Phase, traced: Phase, extras: dict) -> dict:
    ops = traced.ops
    spans = tracer.summary(lambda op: isinstance(op, int))
    setup_spans = tracer.summary(lambda op: op == tracing.SETUP_OP)
    metrics = {}
    for target in tracing.TARGETS:
        metrics[f"{target}.calls_per_op"] = spans["calls"].get(target, 0) / ops
        metrics[f"{target}.self_ms_per_op"] = spans["self_ns"].get(target, 0) / 1e6 / ops
    walk = spans["walk"]
    metrics["chamber.walk_steps_per_op"] = walk["steps"] / ops
    metrics["chamber.us_per_step"] = \
        (walk["walk_ns"] - walk["membership_ns"]) / 1e3 / walk["steps"] if walk["steps"] else 0.0
    metrics["chamber.walk_steps_per_s"] = plain.counts.get("walk_steps", 0) / plain.busy
    metrics["exact.operand_bits_max"] = statistics.median(traced.bits)
    metrics["roots.box_roots_per_op"] = traced.counts.get("box_roots", 0) / ops
    for target in ("roots.fundamental_roots", "catalog.curve_from_label"):
        metrics[f"{target}.setup_self_ms"] = setup_spans["self_ns"].get(target, 0) / 1e6
    metrics["cli.interpreter_ms"] = extras.get("cli.interpreter_ms", 0.0)
    metrics["cli.import_ms"] = extras.get("cli.import_ms", 0.0)
    metrics["cli.stdout_bytes_per_op"] = plain.counts.get("stdout_bytes", 0) / plain.ops
    metrics["cli.batch_lines_per_s"] = extras.get("cli.batch_lines_per_s", 0.0)
    metrics["tracing.overhead_frac"] = 1.0 - (traced.ops / traced.busy) / (plain.ops / plain.busy)
    return metrics


def save_record(record: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{record['workload']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def smoke(lib: Library) -> int:
    """Every workload at tiny size, untraced and traced; 0 when all are correct."""
    expected = {0: [m for m, _ in END_TO_END],
                1: [m for m, _, _ in per_layer_metrics(lib.tracing.TARGETS)]}
    ok = True
    for name in lib.workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(lib, name, DEFAULT_SEED, 0.5, bool(trace), True)
            complete = sorted(result["metrics"]) == sorted(expected[trace])
            ok = ok and result["correct"] and complete
            print(json.dumps({"workload": name, "trace": trace, "correct": result["correct"],
                              "complete": complete, "attempted": result["attempted"],
                              "digest": record["digest"][:16]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for checking claims)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    lib = load_library()
    if args.smoke:
        return smoke(lib)
    if args.workload not in lib.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(lib.workloads.WORKLOADS)}")
    result, record = run_workload(lib, args.workload, args.seed, args.seconds,
                                  bool(args.trace), False)
    save_record(record)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "python", "nproc", "commit",
                                             "fail_frac", "digest", "passes", "ops")}))
    if not args.trace:
        print(json.dumps({"tail_percentile": record["tail_percentile"],
                          "tail_samples": record["tail_samples"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
