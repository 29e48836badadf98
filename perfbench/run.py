"""End-to-end benchmark of hierdde.

One workload per process, single-threaded (BLAS pinned to one thread):

    python3 perfbench/run.py --workload validate-dense --seed 1 \
        --seconds 25 --trace 0

runs set-up, then passes over the workload's operations until the next
pass would overrun ``--seconds`` (at least one pass), checks every result
against its oracle outside the timed sections, and prints the metrics; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
A results file with provenance goes to ``.perfbench_out/results/``.

Without ``--workload`` it runs every workload untraced and traced and prints
one table, with the tracing overhead.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters
DEFAULT_SECONDS = 25
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
             "op_p90_s": "s", "peak_rss_mb": "MB"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
from speed import NoProbe, SpeedProbe  # noqa: E402
from stats import highest_supported_percentile, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _prepare_process():
    """Pin BLAS to one thread and make the checkout's library importable,
    before anything imports numpy.  Refuses to fall back to another copy."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "hierdde", "__init__.py")):
        sys.exit(f"run.py: no library source at {SRC}/hierdde")
    sys.path.insert(0, SRC)


def _timed_setup(wl, seed, out_dir):
    """Set-up time at the nominal host speed, and as measured."""
    with SpeedProbe() as probe:
        busy, t0 = probe.busy, time.perf_counter()
        wl.setup(seed, out_dir)
        t1 = time.perf_counter()
    return probe.normalise(t1 - t0, probe.busy - busy, t0, t1), t1 - t0


def _fresh_setup_seconds(name, seed):
    """Set-up time of the workload in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _dir_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(path):
        dirnames.sort()
        for fname in sorted(files):
            full = os.path.join(dirpath, fname)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def _clear(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy
    import scipy
    from hierdde import _backend
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "lane": _backend.backend_name(), "commit": _git_commit(),
            "seed": seed}


def run_passes(wl, api, work, seconds, probe):
    """Timed passes; returns pass times and op latencies (at the nominal
    host speed, ``probe`` normalising them, and as measured), items per
    pass, attempted and failed op counts, and the first few problems."""
    pass_s, raw_pass_s, latencies, items = [], [], [], []
    attempted = failed = 0
    problems, first_digest = [], None
    start = time.perf_counter()
    while True:
        _clear(work)
        ops = wl.ops(api)
        results = []
        busy_pass, t_pass = probe.busy, time.perf_counter()
        for op in ops:
            busy, t0 = probe.busy, time.perf_counter()
            try:
                res, err = op(), None
            except Exception:  # an op that raises counts as failed
                res, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            latencies.append(probe.normalise(t1 - t0, probe.busy - busy,
                                             t0, t1))
            results.append((res, err))
        t_end = time.perf_counter()
        raw_pass_s.append(t_end - t_pass)
        pass_s.append(probe.normalise(t_end - t_pass, probe.busy - busy_pass,
                                      t_pass, t_end))
        # oracle checks, outside the timed pass
        digest = _dir_digest(work)
        first_digest = first_digest or digest
        done = 0
        for res, err in results:
            attempted += 1
            found = [err] if err else wl.check(res)
            if digest != first_digest:
                found.append("output files differ from the first pass")
            if found:
                failed += 1
                problems.extend(found[:2])
            else:
                done += wl.items(res)
        items.append(done)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(raw_pass_s) > seconds:
            break
    return dict(pass_s=pass_s, raw_pass_s=raw_pass_s, latencies=latencies,
                items=items, attempted=attempted, failed=failed,
                problems=problems[:10])


def run_workload(name, seed, seconds, trace):
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    wl = WORKLOADS[name]()
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setups = [_timed_setup(wl, seed, work)]
        wl.prepare_oracle()
        api, tracer = wl.api, None
        if trace:
            tracer = Tracer()
            tracer.install()
            api = tracer.wrap_api(api)
        try:
            with (NoProbe() if trace else SpeedProbe()) as probe:
                r = run_passes(wl, api, work, seconds, probe)
        finally:
            if tracer:
                tracer.remove()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(r["pass_s"])
    if trace:
        bulk_s, bulk_n = tracer.bulk_seconds()
        metrics = layer_metrics(tracer.spans, len(r["pass_s"]), wall,
                                bulk_s, bulk_n)
        units = LAYER_UNITS
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [_fresh_setup_seconds(name, seed)
                   for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": wall,
            "items_per_s": statistics.median(
                n / s for n, s in zip(r["items"], r["pass_s"])),
            "op_p90_s": percentile(r["latencies"], 90.0),
            "peak_rss_mb": peak,
        }
        units = E2E_UNITS
        r["setup_samples"] = setups
    attempted, failed = r["attempted"], r["failed"]
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "item": wl.item, "provenance": provenance(seed),
              "passes": len(r["pass_s"]), "pass_s": r["pass_s"],
              "raw_pass_s": r["raw_pass_s"],
              "op_samples": len(r["latencies"]),
              "op_tail_percentile": highest_supported_percentile(
                  len(r["latencies"])),
              "setup_samples": r.get("setup_samples"),
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "problems": r["problems"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracer.dump(stem + ".spans.jsonl")
    return record


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    print(f"{record['workload']}: {record['passes']} pass(es), "
          f"{record['op_samples']} ops, {record['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:.3g}; highest percentile with "
          f"10 op samples beyond it: {record['op_tail_percentile']}")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip().splitlines()[-1]}")
    for k, m in record["metrics"].items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


def suite(seed, seconds):
    """Every workload untraced and traced, one process each; one table."""
    rows = []
    for name in WORKLOADS:
        out = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode:
                sys.exit(f"{name} (trace {trace}) failed:\n{proc.stderr}")
            out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, out))
    names = list(E2E_UNITS)
    print(f"{'workload':16s}" + "".join(f"{n + ' [' + E2E_UNITS[n] + ']':>20s}"
                                        for n in names)
          + f"{'fail_ratio':>12s}{'trace overhead [s]':>20s}")
    for name, out in rows:
        e2e, layer = out[0], out[1]
        # both sides as measured: the traced run does not normalise
        with open(os.path.join(OUT, "results",
                               f"{name}-seed{seed}-trace0.json")) as fh:
            raw_wall = statistics.median(json.load(fh)["raw_pass_s"])
        overhead = layer["metrics"]["trace.wall_s"]["value"] - raw_wall
        print(f"{name:16s}"
              + "".join(f"{e2e['metrics'][n]['value']:>20.6g}" for n in names)
              + f"{e2e['failed'] / e2e['attempted']:>12.3g}"
              + f"{overhead:>20.4g}")
    print(f"\n{'per-layer (traced)':38s}"
          + "".join(f"{name:>18s}" for name, _ in rows))
    for k, m in rows[0][1][1]["metrics"].items():
        print(f"{k + ' [' + m['unit'] + ']':38s}"
              + "".join(f"{out[1]['metrics'][k]['value']:>18.6g}"
                        for _, out in rows))
    return all(out[t]["correct"] for _, out in rows for t in out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used internally)")
    args = ap.parse_args(argv)
    _prepare_process()
    if args.workload is None:
        return 0 if suite(args.seed, args.seconds) else 1
    if args.setup_only:
        print(json.dumps({"setup_s": _timed_setup(
            WORKLOADS[args.workload](), args.seed, OUT)}))
        return 0
    report(run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
