"""Benchmark of the sdcontrol toolkit: three workloads, checked, timed.

    python3 bench/run.py --workload case-study --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-check

One run measures one workload in this process and prints, as the last line
of standard output, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs each workload in a fresh process.  ``--self-check`` runs one checked
operation of each workload.  Every run writes a record to bench/out/.
See bench/README.md.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()

# one BLAS/OpenMP thread: the machine has two cores and a second thread only
# adds scheduling noise; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the program's info lines would interleave with the benchmark's output
os.environ["SDC_LOG"] = "error"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3
SPANS_PER_NAME = 50


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _load_program():
    """Import sdcontrol from this checkout's src/; return the import time."""
    if not (SRC / "sdcontrol" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'sdcontrol'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sdcontrol  # noqa: F401
    return time.perf_counter() - start


def _setup(workload: str, seed: int):
    """Import the program and build the workload's fixed inputs."""
    import_s = _load_program()
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, OUT / "tmp"), import_s


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process: from spawn until the first operation
    is ready.  Returns (setup seconds, import seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - start, report["import_s"]


def _checker(workload: str):
    import checks
    import workloads
    if workload == "case-study":
        return checks.check_case_study
    if workload == "design-sweep":
        compute = workloads.certificates.compute_constants
        return lambda r: checks.check_design(r, compute)
    return checks.check_ensemble


def _attempt(wl, op, check, log, tracer=None):
    """Run one operation (timed, traced if a tracer is given), then check
    it (untimed).

    Returns (seconds, failed, check message or None, result).
    """
    patch = tracer.patched() if tracer is not None else contextlib.nullcontext()
    with patch:
        start = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a program error is a failed operation
            log.append(f"operation failed: {exc!r}")
            return time.perf_counter() - start, True, None, None
        elapsed = time.perf_counter() - start
    message = None
    if check is not None:
        try:
            check(result)
        except Exception as exc:  # a malformed output is an incorrect one
            message = str(exc) if isinstance(exc, AssertionError) \
                else repr(exc)
            log.append(f"check failed: {message}")
    wl.cleanup(result)
    return elapsed, False, message, result


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "cpus": os.cpu_count()}


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(args, seconds: float) -> tuple[dict, dict]:
    """One run of one workload; returns the printed result and the record."""
    from spans import Tracer, aggregate, case_study_validate_s, \
        layer_metrics, merge

    wl, import_s = _setup(args.workload, args.seed)
    first_setup_s = time.perf_counter() - _T0
    # the warm-up operation is discarded; peak memory is read after it and
    # before the check libraries load, so it is the program's alone
    _attempt(wl, wl.round[0], None, [])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [_probe_setup(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]
    check = _checker(args.workload)

    tracer = Tracer() if args.trace else None
    plain, traced, log = [], [], []
    totals, spans_kept = {}, None
    validate_s = 0.0
    sim_steps = sim_s = inv_samples = inv_s = 0.0
    attempted = failed = incorrect = rounds = 0
    start = time.monotonic()
    # a traced run traces every other operation, shifted by one each round,
    # and runs rounds in pairs: every operation is traced equally often, so
    # per-operation counts repeat exactly, and the traced and untraced
    # medians (whose ratio is the tracing overhead) see the same machine
    step = 2 if tracer is not None else 1
    while True:
        for i, op in enumerate(wl.round):
            tracing = tracer is not None and (i + rounds) % 2 == 1
            elapsed, bad, message, result = _attempt(
                wl, op, check, log, tracer if tracing else None)
            if tracing:
                spans = tracer.take()
                merge(totals, aggregate(spans))
                validate_s += case_study_validate_s(spans)
                if spans_kept is None:
                    spans_kept = spans
            attempted += 1
            failed += bad
            incorrect += message is not None
            if not bad:
                (traced if tracing else plain).append(elapsed)
                if hasattr(result, "sim_s") and not tracing:
                    sim_steps += len(result.traj) - 1
                    sim_s += result.sim_s
                    inv_samples += result.u_inv.shape[0]
                    inv_s += result.inv_s
        rounds += 1
        used = time.monotonic() - start
        if rounds % step == 0 and used * (rounds + step) / rounds > seconds:
            break

    setup_s = statistics.median(p[0] for p in probes)
    if tracer is None:
        metrics = {"setup_s": setup_s,
                   "op_s_p50": statistics.median(plain),
                   "peak_rss_mb": peak_rss_mb}
    else:
        metrics = layer_metrics(totals, len(traced), validate_s)
        metrics["setup.import_s"] = statistics.median(p[1] for p in probes)
        metrics["trace.overhead_ratio"] = \
            statistics.median(traced) / statistics.median(plain)
        metrics["sim_steps_per_s"] = sim_steps / sim_s if sim_s else 0.0
        metrics["inv_samples_per_s"] = inv_samples / inv_s if inv_s else 0.0

    manifest = _manifest()
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    result = {"correct": incorrect == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "commit": _commit(), "versions": _versions(),
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "rounds": rounds, "round_size": len(wl.round),
        "first_setup_s": first_setup_s, "import_s": import_s,
        "setup_probes_s": [p[0] for p in probes],
        "import_probes_s": [p[1] for p in probes],
        "op_s_untraced": plain, "op_s_traced": traced,
        "sim_steps_per_s_untraced": sim_steps / sim_s if sim_s else None,
        "inv_samples_per_s_untraced": inv_samples / inv_s if inv_s else None,
        "log": log, "result": result,
        "layers": totals,
        "spans_first_traced_op": _compact(spans_kept),
    }
    return result, record


def _compact(spans):
    """The first traced operation's spans, at most SPANS_PER_NAME of each
    name (later calls of a name are summed in ``layers``); times are
    seconds from the operation's first span."""
    if not spans:
        return None
    t0 = min(s[1] for s in spans)
    seen: dict[str, int] = {}
    kept = []
    for i, (name, start, end, parent, ok, work) in enumerate(spans):
        seen[name] = seen.get(name, 0) + 1
        if seen[name] <= SPANS_PER_NAME:
            kept.append({"id": i, "name": name, "start": start - t0,
                         "end": end - t0, "parent": parent, "ok": ok,
                         "work": work})
    return kept


def _write_record(record: dict) -> Path:
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    path = OUT / "records" / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def self_check() -> int:
    """One checked operation per workload, in this process."""
    _load_program()
    from workloads import WORKLOADS
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    status = 0
    for name, cls in WORKLOADS.items():
        wl = cls(1, OUT / "tmp")
        log = []
        elapsed, bad, message, _ = _attempt(wl, wl.round[0], _checker(name),
                                            log)
        ok = not bad and message is None
        status |= not ok
        print(f"{name:13s} {'ok' if ok else 'FAIL'}  {elapsed:.3f} s"
              + "".join(f"\n  {line}" for line in log))
    return status


def run_all(args, seconds: float) -> int:
    """Each workload in a fresh process; one JSON line per workload."""
    results = {}
    for name in [w["name"] for w in _manifest()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                            for k, v in results[name]["metrics"].items())
        print(f"{name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}; {metrics}", flush=True)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _, import_s = _setup(args.workload, args.seed)
        print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
        return 0
    if args.self_check:
        return self_check()
    seconds = args.seconds if args.seconds is not None else \
        float(_manifest()["run_seconds"])
    if args.workload == "all":
        return run_all(args, seconds)
    result, record = measure(args, seconds)
    path = _write_record(record)
    for line in record["log"]:
        print(line, file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
