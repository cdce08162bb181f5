#!/usr/bin/env python3
"""pickgen benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload train_synth --seed 0 --seconds 45 --trace 0

Run from anywhere inside a pickgen checkout; the package is imported from
the checkout's src/ directory. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The line
before it carries the run's details: machine and library versions, thread
settings, seed, quality figures and any failed check. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes every span to
perfbench/out/. See perfbench/README.md for what each metric means.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy loads. The
# library otherwise sizes its pool to the machine, and on a small shared
# box the benchmark would then measure thread contention, not pickgen.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up runs MIN_SETUPS times before measuring. With tracing off it runs
# again between measured calls while set-ups have taken less than
# SETUP_SHARE of the measured time, so that a cheap set-up is sampled across
# the whole run, as the calls are, not in one stretch of machine load.
MIN_SETUPS = 3
SETUP_SHARE = 0.05


class Setups:
    """Builds a workload's set-up and records how long each build took."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.times: list[float] = []
        self.label_times: list[float] = []
        self.fingerprints: set[str] = set()

    def build(self):
        t0 = time.perf_counter()
        st = self.workload.setup(self.seed)
        self.times.append(time.perf_counter() - t0)
        self.label_times.append(getattr(st, "label_corpus_s", 0.0))
        self.fingerprints.add(self.workload.fingerprint(st))
        return st

    def between_calls(self, measured_s: float) -> None:
        if sum(self.times) < SETUP_SHARE * measured_s:
            self.build()


@dataclass
class Phase:
    wall_s: float
    records: list
    tracer: Tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_synth", "restore_synth", "restore_widevocab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment(np, seed: int) -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def measure(workload, st, seconds: float, install, setups=None) -> Phase:
    """Closed loop: run calls back to back until seconds have passed (at
    least one call), with the bindings install() patches timed. Set-ups
    interleaved between calls count toward seconds, not toward any call."""
    tracer = Tracer()
    install(tracer)
    records = []
    try:
        t0 = time.perf_counter()
        while True:
            records.append(workload.op(st, tracer, len(records)))
            if time.perf_counter() - t0 >= seconds:
                break
            if setups is not None:
                setups.between_calls(sum(r.wall_s for r in records))
        wall = time.perf_counter() - t0
    finally:
        tracer.close()
    return Phase(wall, records, tracer)


def samples_per_s(phase: Phase) -> float:
    """Samples processed per second of call time, over every call of the
    phase.

    On a shared machine the speed drifts by up to a quarter, in stretches
    of 10 to 30 s. Every call of a run repeats the same work, so the total
    over the whole run averages the stretches out; it varied less between
    runs than the fastest call's rate or the median op latency did.
    """
    wall = sum(r.wall_s for r in phase.records)
    return sum(r.samples for r in phase.records) / wall if wall else 0.0


def all_calls(phase: Phase) -> dict:
    """Median and the highest percentile with at least ten ops beyond it,
    over every op of the phase, with the op count."""
    ms = sorted(x for r in phase.records for x in r.latencies_ms)
    rates = [r.samples / r.wall_s for r in phase.records if r.samples]
    out = {
        "ops_timed": len(ms),
        "samples_per_s_median": statistics.median(rates) if rates else None,
        "op_ms_p50": statistics.median(ms) if ms else None,
    }
    for pct in (99, 90, 75):
        if len(ms) * (100 - pct) >= 1000:
            out[f"op_ms_p{pct}"] = ms[min(len(ms) - 1, len(ms) * pct // 100)]
            break
    return out


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": samples_per_s(phase),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: Phase, traced: Phase, label_times: list[float]) -> dict:
    stats = traced.tracer.stats()
    counts = traced.tracer.counts
    ops = max(1, sum(r.attempted for r in traced.records))

    def total_ms(name):
        return 1e3 * stats[name].total_s / ops if name in stats else 0.0

    def self_ms(name):
        return 1e3 * stats[name].self_s / ops if name in stats else 0.0

    plain_rate = samples_per_s(plain)
    traced_rate = samples_per_s(traced)
    candidates = counts["decoding.candidates"]
    return {
        "autodiff.backward_ms": total_ms("autodiff.backward"),
        "autodiff.graph_nodes": counts["autodiff.tensors"] / ops,
        "model.encode_ms": total_ms("model.encode"),
        "model.decode_forward_ms": total_ms("model.decode_forward"),
        "model.decode_forward_calls": counts["model.decode_forward_calls"] / ops,
        "model.decoder_positions": counts["model.decoder_positions"] / ops,
        "model.picker_forward_ms": total_ms("model.picker_forward"),
        "model.save_checkpoint_ms": total_ms("model.save_checkpoint"),
        "training.loss_ms": total_ms("training.loss"),
        "training.clip_gradients_ms": total_ms("training.clip_gradients"),
        "training.optimizer_step_ms": total_ms("training.optimizer_step"),
        "training.train_self_ms": self_ms("training.train"),
        "training.skipped_steps": sum(r.skipped_steps for r in traced.records),
        "encoding.encode_sample_ms": total_ms("encoding.encode_sample"),
        "encoding.collate_ms": total_ms("encoding.collate"),
        "encoding.build_input_ms": total_ms("encoding.build_input"),
        "decoding.beam_self_ms": self_ms("decoding.beam_search"),
        "decoding.restore_self_ms": self_ms("decoding.restore"),
        "decoding.candidates": candidates / ops,
        "decoding.candidate_keep_ratio": (
            counts["decoding.survivors"] / candidates if candidates else 0.0
        ),
        "metrics.evaluate_ms": total_ms("metrics.evaluate"),
        "labeling.label_sample_ms": total_ms("labeling.label_sample"),
        "labeling.label_corpus_s": statistics.median(label_times),
        "trace.samples_per_s": traced_rate,
        "trace.overhead_pct": (
            100.0 * (plain_rate / traced_rate - 1.0) if traced_rate else 0.0
        ),
        "trace.top_span_coverage": traced.tracer.top_level_s() / traced.wall_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pickgen" / "__init__.py").is_file():
        print(f"error: pickgen sources not found under {SRC}; run the "
              f"benchmark from a pickgen checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from spec import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, install_clock, install_layers

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.scale, str(OUT))
    problems: list[str] = []

    setups = Setups(workload, args.seed)
    for _ in range(MIN_SETUPS):
        st = setups.build()

    if args.trace:
        plain = measure(workload, st, args.seconds / 2, install_clock)
        traced = measure(workload, st, args.seconds / 2, install_layers)
        phases = [plain, traced]
        values = per_layer(plain, traced, setups.label_times)
        spec = PER_LAYER
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced.tracer.write(str(trace_file))
    else:
        phases = [measure(workload, st, args.seconds, install_clock, setups)]
        values = end_to_end(phases[0], setups.times)
        spec = END_TO_END
        trace_file = None

    if len(setups.fingerprints) != 1:
        problems.append("repeated set-ups with one seed built different inputs")
    checks = workload.check(st)
    quality, quality_problems = workload.quality(st, args.scale)
    problems += checks.problems + quality_problems
    records = [r for phase in phases for r in phase.records]
    attempted = sum(r.attempted for r in records) + checks.attempted
    failed = sum(r.failed for r in records) + checks.failed
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, args.seed),
        "setup_runs": len(setups.times),
        "calls": len(records),
        "ops": sum(r.attempted for r in records),
        "all_calls": all_calls(phases[-1]),
        "error_rate": failed / attempted,
        "quality": quality,
        "problems": problems,
        "absent_bindings": sorted({a for p in phases for a in p.tracer.absent}),
        "trace_file": str(trace_file.relative_to(HERE.parent)) if trace_file else None,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _, _ in spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
