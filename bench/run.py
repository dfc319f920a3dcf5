"""dunklkg benchmark: one workload, one closed-loop client, checked outputs.

Usage (from the root of a source checkout; nothing needs installing):

    python3 bench/run.py --workload verify_suite|bulk_export|cli_cold \
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced decks of the same ops and reports the per-layer
metrics of the traced ones, the tracing overhead, and the import cost
split from ``python -X importtime``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
whose names and units come from BENCHMARK.json.  Each run also writes a
record with its provenance (and, when traced, its spans) to .bench_out/.

The loop stops at the first deck boundary after S seconds of op time, so
every run executes whole decks of identical composition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_source_tree() -> None:
    """Put src/ first on sys.path and insist that dunklkg is imported from it."""
    package = SRC / "dunklkg"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no dunklkg source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import dunklkg

    found = Path(dunklkg.__file__).resolve().parent
    if found != package.resolve():
        raise BenchError(f"dunklkg resolves to {found}, not the source tree {package}")


def check_child_resolution(env: dict) -> None:
    """A child interpreter with the benchmark's environment must see src/ too."""
    proc = subprocess.run(
        [sys.executable, "-c", "import dunklkg; print(dunklkg.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    found = Path(proc.stdout.strip()).resolve().parent if proc.returncode == 0 else None
    if found != (SRC / "dunklkg").resolve():
        raise BenchError(f"child interpreters import dunklkg from {found}, not {SRC}")


def provenance(seed: int) -> dict:
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time for a fresh interpreter to import dunklkg and run the set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def import_times(env: dict) -> dict:
    """Median cumulative import cost of numpy, click and dunklkg's own modules."""
    samples = {"numpy": [], "click": [], "dunklkg": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dunklkg.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        cumulative = {}
        top_level_us = 0  # modules imported directly by the -c statement
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].strip()
                cumulative[name] = int(fields[1])
                if name.startswith("dunklkg") and fields[2][1:2] != " ":
                    top_level_us += int(fields[1])
        numpy_us = cumulative.get("numpy", 0)
        click_us = cumulative.get("click", 0)
        samples["numpy"].append(numpy_us / 1e3)
        samples["click"].append(click_us / 1e3)
        samples["dunklkg"].append((top_level_us - numpy_us - click_us) / 1e3)
    return {f"cli.import.{name}_ms": statistics.median(v) for name, v in samples.items()}


@dataclass
class LoopResult:
    latency_s: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    child_rss_kb: int = 0
    failed: int = 0
    busy_s: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    ops: dict = field(default_factory=lambda: {False: 0, True: 0})

    @property
    def attempted(self) -> int:
        return len(self.latency_s)


def run_loop(workload, seconds: float, tracer=None) -> LoopResult:
    """Repeat the deck until ``seconds`` of op time have passed.

    With a tracer, decks alternate untraced/traced and the loop ends on a
    traced deck, so both halves hold the same ops.
    """
    deck = workload.deck()
    res = LoopResult()
    n_decks = 0
    while True:
        traced = tracer is not None and n_decks % 2 == 1
        for op in deck:
            if traced:
                tracer.op_id = res.attempted
                if workload.in_process:
                    tracer.install()
            outcome = None
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                outcome = workload.execute(op, tracer if traced else None)
            except Exception:
                traceback.print_exc()
            finally:
                elapsed = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                if traced and workload.in_process:
                    tracer.uninstall()
            ok = outcome is not None and _checked(workload, op, outcome)
            # the check allocates as much as the op; collect it so the next op
            # starts from the same heap state whatever the check left behind
            gc.collect()
            if outcome is not None:
                cpu += outcome.child_cpu_s
                res.child_rss_kb = max(res.child_rss_kb, outcome.child_rss_kb)
                if traced and outcome.spans:
                    tracer.merge(outcome.spans)
            res.latency_s.append(elapsed)
            res.cpu_s.append(cpu)
            res.failed += not ok
            res.busy_s[traced] += elapsed
            res.ops[traced] += 1
        n_decks += 1
        if sum(res.busy_s.values()) >= seconds and (tracer is None or n_decks % 2 == 0):
            return res


def _checked(workload, op, outcome) -> bool:
    try:
        return bool(workload.check(op, outcome))
    except Exception:
        traceback.print_exc()
        return False


def end_to_end(res: LoopResult, setup_s: list, workload) -> tuple:
    lat_ms = np.array(res.latency_s) * 1e3
    n = len(lat_ms)
    pct = workload.tail_percentile
    beyond = n * (1.0 - pct / 100.0)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
              else res.child_rss_kb)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_ops_s": n / sum(res.latency_s),
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": float(np.percentile(lat_ms, pct)),
        "cpu_ms_per_op": 1e3 * sum(res.cpu_s) / n,
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_frac": res.failed / n,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} fresh set-ups",
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{pct:g}, n={n}, {beyond:.1f} samples beyond"
                           + ("" if beyond >= 10 else " -- fewer than ten"),
        "peak_rss_mb": "benchmark process" if workload.in_process else "largest child",
        "failed_frac": f"{res.failed} of {n}",
    }
    return metrics, notes


def traced_metrics(res: LoopResult, tracer, env: dict) -> dict:
    metrics = tracer.layer_metrics(res.ops[True])
    per_op = {traced: res.busy_s[traced] / res.ops[traced] for traced in (False, True)}
    metrics["trace.overhead_frac"] = per_op[True] / per_op[False] - 1.0
    metrics.update(import_times(env))
    return metrics


def declared(spec: dict, key: str, computed: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``key``, with its units."""
    missing = [m["name"] for m in spec[key] if m["name"] not in computed]
    if missing:
        raise BenchError(f"BENCHMARK.json declares metrics this run did not compute: {missing}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_source_tree()
    from tracer import Tracer
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe:
        workload.prepare()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    check_child_resolution(env)
    setup_s = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workload.prepare()

    tracer = Tracer() if args.trace else None
    res = run_loop(workload, args.seconds, tracer)
    if tracer is None:
        computed, notes = end_to_end(res, setup_s, workload)
        metrics = declared(spec, "end_to_end", computed)
    else:
        computed, notes = traced_metrics(res, tracer, env), {}
        metrics = declared(spec, "per_layer", computed)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": computed,
        "notes": notes,
        "setup_samples_s": setup_s,
        "latency_s": res.latency_s,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={res.attempted} failed={res.failed}")
    for name, value in computed.items():
        unit = metrics[name]["unit"] if name in metrics else "1"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>14.6g} {unit}{note}")
    print(f"record: {OUT_DIR / stem}.json")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
