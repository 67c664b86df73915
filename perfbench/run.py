"""Cold-process benchmark of ballharmonics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh interpreter (``perfbench/worker.py``), because every CLI
invocation pays for imports and cold ``lru_cache``s.  The load is one
closed-loop client: the next item is issued when the previous one returns.

``--trace 0`` repeats passes with the same seed while another one and the
import-only probes fit in S seconds (at least two passes), runs the probes,
and reports the end-to-end metrics: medians over passes, item percentiles
over the items of all passes, set-up time as the median over every
interpreter started.  These timings are scaled to the speed of a
reference box by a kernel timed in every interpreter (see ``speed.py``);
the unscaled figures are in the metadata line.
``--trace 1`` runs one untraced and one traced pass with the same seed and
reports the per-layer metrics of the traced one, plus the tracing overhead.
The last stdout line is the JSON result; the line before it holds the run's
metadata, also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "ballharmonics"
OUT = HERE / "out"

SETUP_PROBES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 150.0  # hard stop for starting passes; a run must end within 180 s
PASS_TIMEOUT_S = 170.0

# items beyond the tail percentile, at least
TAIL_ITEMS = 10

# BLAS and OpenMP pools pinned to one thread: the Monte Carlo workers are the
# only parallelism, and they are capped at nproc
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

WORKLOAD_NAMES = ("identities-cached", "fresh-maps", "numeric-crosschecks")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"
    }
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_ITEMS items beyond it."""
    return math.floor(100 * (count - TAIL_ITEMS) / count)


def nearest_rank(sorted_values: list, percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_worker(workload: str, seed: int, trace: bool, probe: bool, deadline: float) -> dict:
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    env = child_env()
    launched = time.monotonic()
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), workload, str(seed)]
    cmd += ["1" if trace else "0", repr(launched), str(OUT)] + (["--probe"] if probe else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # timeout, interrupt or SIGTERM: never leave the pass running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} pass printed no result")
    return json.loads(lines[-1])


def metadata_of(workload: str, seed: int, trace: bool) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit or "unknown",
        "src_lines": lines,
        "src_sha256": src_hash.hexdigest(),
    }


def timings(passes: list, probes: list, scaled: bool) -> dict:
    """Median set-up time over every interpreter, median pass wall time and
    pooled item percentiles; if ``scaled``, each figure is multiplied by
    REFERENCE_S over the median of the kernel timings taken with it (see
    speed.py)."""

    def scale(run: dict, key: str) -> float:
        return REFERENCE_S / statistics.median(run[key]) if scaled else 1.0

    pct = tail_percentile(len(passes[0]["items"]))
    pooled = sorted(
        1000.0 * i["latency_s"] * scale(p, "speed_s") for p in passes for i in p["items"]
    )
    setup = [r["setup_s"] * scale(r, "setup_speed_s") for r in passes + probes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] * scale(p, "speed_s") for p in passes), "s"),
        "item_ms_p50": (nearest_rank(pooled, 50), "ms"),
        "item_ms_tail": (nearest_rank(pooled, pct), "ms"),
    }


def end_to_end(passes: list, probes: list) -> dict:
    attempted = sum(len(p["items"]) for p in passes)
    passed = sum(item["ok"] for p in passes for item in p["items"])
    return {
        **timings(passes, probes, scaled=True),
        "pass_frac": (passed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.stderr.write(f"no ballharmonics sources under {SRC}; run from a source checkout\n")
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    # users pay for imports on every run, not for compilation
    if not compileall.compile_dir(str(PACKAGE_DIR), quiet=1) or not compileall.compile_dir(
        str(HERE), quiet=1, maxlevels=0
    ):
        sys.stderr.write("byte-compiling the sources failed\n")
        return 1

    trace = bool(args.trace)
    try:
        if trace:
            plain = run_worker(args.workload, args.seed, False, False, deadline)
            traced = run_worker(args.workload, args.seed, True, False, deadline)
            passes, probes = [plain, traced], []
            metrics = dict(traced["per_layer"])
            metrics["tracing.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        else:
            passes = []
            while True:
                passes.append(run_worker(args.workload, args.seed, False, False, deadline))
                per_pass = statistics.median(p["setup_s"] + p["wall_s"] for p in passes)
                setup = statistics.median(p["setup_s"] for p in passes)
                # the next pass and the set-up probes still have to fit in S
                finish = time.monotonic() - start + per_pass + SETUP_PROBES * setup
                if finish > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and finish > args.seconds):
                    break
            probes = [
                run_worker(args.workload, args.seed, False, True, deadline)
                for _ in range(SETUP_PROBES)
            ]
            metrics = end_to_end(passes, probes)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    digests = sorted({p["report_sha256"] for p in passes})
    unexpected = sum(
        not item["ok"] and not item["known_failure"] for p in passes for item in p["items"]
    )
    known = sorted(
        {
            item["label"]
            for p in passes
            for item in p["items"]
            if not item["ok"] and item["known_failure"]
        }
    )
    first = passes[0]["items"]
    attempted = sum(len(p["items"]) for p in passes)
    meta = metadata_of(args.workload, args.seed, trace)
    meta.update(
        {
            "passes": len(passes),
            "setup_probes": len(probes),
            "items_per_pass": len(first),
            "tail_percentile": tail_percentile(len(first)),
            "mc_workers": passes[0]["mc_workers"],
            "report_sha256": digests[0] if len(digests) == 1 else digests,
            "known_failures": known,
            # 1 - pass_frac, known failure included; a metric of its own it
            # would be 0 on two workloads, where no relative bound applies
            "failed_frac": {
                "value": sum(not i["ok"] for p in passes for i in p["items"]) / attempted,
                "unit": "ratio",
            },
            "mc_within_3_sigma": passes[0]["mc_within_3_sigma"],
            "unexpected_failures": unexpected,
        }
    )
    if not trace:
        meta["speed_s"] = [statistics.median(p["speed_s"]) for p in passes]
        meta["setup_speed_s"] = [statistics.median(r["setup_speed_s"]) for r in passes + probes]
        meta["unscaled"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in timings(passes, probes, scaled=False).items()
        }
    if trace:
        meta["spans"] = passes[1]["spans"]
        meta["spans_file"] = passes[1]["spans_file"]
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(meta))

    result = {
        "correct": unexpected == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
