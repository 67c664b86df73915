"""One benchmark pass in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/worker.py WORKLOAD SEED TRACE LAUNCHED OUT_DIR [--probe]

LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until the workload's library modules
are imported.  With ``--probe`` the pass stops after that.  The pass prints
one JSON object on stdout; a traced pass (TRACE = 1) also writes its spans
to OUT_DIR.
"""

import time  # first, so set-up time is measured against the parent's clock

import hashlib
import importlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "ballharmonics"
# kernel timings taken right after the imports, to scale set-up time
SETUP_SPEED_SAMPLES = 5


def _import_library(workload: str) -> SimpleNamespace:
    import workloads

    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in workloads.MODULES[workload]}
    )


def _run_items(items, tracer, probe) -> tuple[list, list]:
    """Run items back to back, timing the speed probe between them when due;
    return (per-item records, report entries)."""
    from tracing import ITEM

    records, entries = [], []
    for index, item in enumerate(items):
        probe.maybe_sample()
        error = ""
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.call()
            else:
                tracer.item = index
                out = tracer.span(item.label, ITEM, item.call)
        except Exception:  # an item that raises counts as failed; the pass goes on
            out, error = None, traceback.format_exc()
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.item = -1
        ok, entry = False, None
        if not error:
            try:
                ok, entry = item.check(out)
            except Exception:
                error = traceback.format_exc()
        if error:
            sys.stderr.write(f"item {item.label} raised:\n{error}")
        records.append(
            {
                "label": item.label,
                "latency_s": latency,
                "ok": bool(ok),
                "known_failure": item.known_failure,
            }
        )
        entries.append({"item": item.label, "ok": bool(ok), "output": entry, "error": bool(error)})
    return records, entries


def _three_sigma_hits(entries: list) -> list[int]:
    """[hits, Monte Carlo items]: the suite's 3-sigma agreement, for the record."""
    flags = [
        e["output"]["within_3_sigma"]
        for e in entries
        if isinstance(e["output"], dict) and "within_3_sigma" in e["output"]
    ]
    return [sum(flags), len(flags)]


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    launched, out_dir = float(argv[3]), argv[4]
    lib = _import_library(workload)
    setup_s = time.monotonic() - launched
    from speed import SpeedProbe

    # the kernel runs faster in a fresh interpreter than between items, so
    # set-up time is scaled by timings taken right after the imports
    at_setup = SpeedProbe()
    for _ in range(SETUP_SPEED_SAMPLES):
        at_setup.sample()
    if "--probe" in argv[5:]:
        print(json.dumps({"setup_s": setup_s, "setup_speed_s": at_setup.samples}))
        return 0

    import workloads

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install(PACKAGE)
        if missing:
            sys.stderr.write(f"not traced (names gone): {', '.join(missing)}\n")
    workers = min(2, os.cpu_count() or 1)
    probe = SpeedProbe()

    start = time.perf_counter()
    items = workloads.WORKLOADS[workload](lib, seed, workers)
    records, entries = _run_items(items, tracer, probe)
    report = lib.reporting.render_json(
        {"workload": workload, "seed": seed, "items": entries}
    )
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    wall_s = time.perf_counter() - start - probe.total_s

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": records,
        "report_sha256": digest,
        "speed_s": probe.samples,
        "setup_speed_s": at_setup.samples,
        "mc_workers": workers,
        "mc_within_3_sigma": _three_sigma_hits(entries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import per_layer_metrics

        result["per_layer"] = per_layer_metrics(tracer, PACKAGE)
        spans = Path(out_dir).resolve() / f"spans-{workload}-seed{seed}.csv"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
