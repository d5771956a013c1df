#!/usr/bin/env python3
"""planarcasimir benchmark runner.

    python3 perfbench/run.py --workload mirror-cavity-0K --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one thread, one caller in a closed loop: the next operation is
issued when the previous one has returned. The library is imported from
``src/`` of the checkout this file sits in, and sees only the inputs the
workload generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start until the inputs are ready),
``wall_s`` (median time of one pass, the workload's set of results at its
stated tolerance) and ``peak_rss_mb``. ``--trace 1`` runs the same first
pass alternately untraced and traced, reports per-layer self times and
counters per pass, the tracing overhead, and the layer probes, and writes
the spans to ``perfbench/out/trace-<workload>.npz``.

Every result is checked before any timing is printed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check also goes to standard error and
makes the exit code 1. See ``perfbench/README.md``.
"""

import os
import sys

# Pin every BLAS / OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing library, bad arguments)."""


def load_library():
    """Import planarcasimir from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "planarcasimir")):
        raise BenchError(f"no library source under {SRC}")
    sys.path.insert(0, SRC)
    import planarcasimir
    import planarcasimir.cli  # noqa: F401  (the stack-cli entry point)

    where = os.path.dirname(os.path.abspath(planarcasimir.__file__))
    if os.path.dirname(where) != SRC:
        raise BenchError(f"planarcasimir imported from {where}, not from {SRC}")
    return planarcasimir


def setup(name: str, seed: int):
    """Import the library and generate the workload; returns (pc, wl, tmpdir)."""
    pc = load_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    return pc, workloads.BUILDERS[name](pc, seed, tmpdir), tmpdir


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh interpreter until its inputs are ready.

    Returns (set-up seconds, reference-speed set-up seconds). The child times
    the reference kernel right after its set-up, on the core it ran on,
    which need not be this process's core.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        kernel = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code}): {ready.strip()!r}")
    return elapsed, elapsed * speed.factor([float(kernel)])


# -- running and checking passes ---------------------------------------------

def run_pass(ops, tracer=None, calibrate=False):
    """Run one pass; returns (seconds, reference-speed seconds, outputs).

    A raised call is its own output. With ``calibrate`` the reference
    kernel is timed before the first operation and after every operation,
    outside the pass time, and each operation's time is rescaled by the
    kernel times on either side of it; otherwise the two times are equal.
    """
    outs = []
    elapsed = scaled = 0.0
    before = speed.kernel_seconds() if calibrate else None
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            outs.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            outs.append(exc)
        dt = time.perf_counter() - t0
        elapsed += dt
        if calibrate:
            after = speed.kernel_seconds()
            scaled += dt * speed.factor([before, after])
            before = after
    return elapsed, (scaled if calibrate else elapsed), outs


def check_pass(ops, outs, failures: list) -> tuple[int, int]:
    """Gate every result of a pass; returns (attempted, failed)."""
    attempted = failed = 0
    for op, out in zip(ops, outs):
        attempted += op.results
        if isinstance(out, Exception):
            failed += op.results
            failures.append(f"{op.label}: raised {type(out).__name__}: {out}")
            continue
        checks = op.check(out)
        bad = [ch for ch in checks if not ch.ok]
        failed += min(op.results, len(bad))
        failures.extend(f"{ch.label}: {ch.detail}" for ch in bad)
    return attempted, failed


def _more(start: float, seconds: float, last: float) -> bool:
    # Start another pass only if it is expected to end inside the window.
    return time.perf_counter() - start + last <= seconds


def measure(wl, seconds: float, max_ops=None) -> dict:
    """Untraced passes for ``seconds``; end-to-end wall time per pass."""
    failures: list[str] = []
    attempted = failed = 0
    raw, scaled = [], []
    start = time.perf_counter()
    for ops in wl.passes:
        ops = ops[:max_ops]
        dt, dt_scaled, outs = run_pass(ops, calibrate=True)
        raw.append(dt)
        scaled.append(dt_scaled)
        a, f = check_pass(ops, outs, failures)
        attempted += a
        failed += f
        if not _more(start, seconds, dt):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "pass_s": raw, "scaled_pass_s": scaled,
        "metrics": {
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }


def measure_traced(pc, wl, seconds: float, max_ops=None) -> dict:
    """Pass 0 alternately untraced and traced; per-layer metrics per pass."""
    import probes
    import tracing

    ops = wl.passes[0][:max_ops]
    tracer = tracing.Tracer()
    failures: list[str] = []
    attempted = failed = 0
    plain, traced = [], []
    bytes_out = 0
    start = time.perf_counter()
    while True:
        dt, _, outs = run_pass(ops)
        plain.append(dt)
        a, f = check_pass(ops, outs, failures)
        with tracing.Patch(tracer, pc):
            dt, _, outs = tracer.wrap("bench", "bench.pass", run_pass,
                                      count=lambda args: None)(ops, tracer)
        traced.append(dt)
        b, g = check_pass(ops, outs, failures)
        attempted += a + b
        failed += f + g
        bytes_out += sum(op.bytes_out(out) for op, out in zip(ops, outs)
                         if op.bytes_out and not isinstance(out, Exception))
        if not _more(start, seconds, plain[-1] + traced[-1]):
            break
    probe_metrics, probe_failures = probes.run_probes(pc)
    failures.extend(probe_failures)
    failed += len(probe_failures)

    n = len(traced)
    layer = tracing.layer_metrics(tracer, n)
    wall = statistics.fmean(traced)
    untraced = statistics.fmean(plain)
    layer.update({
        "cli.bytes_out": bytes_out / n,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_frac": wall / untraced - 1.0,
        **probe_metrics,
    })
    accounted = sum(v for k, v in layer.items()
                    if k.endswith(".self_s")) / wall
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "pass_s": traced, "untraced_pass_s": plain,
        "accounted_frac": accounted, "tracer": tracer,
        "metrics": layer,
    }


# -- provenance ---------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": trace, "rel_tol": wl.rel_tol, **wl.info,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "loadavg": os.getloadavg(), "git_sha": _git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- entry points -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int,
                 max_ops=None, setup_repeats: int = SETUP_REPEATS) -> int:
    """Run, check and report one workload; returns the exit code.

    ``max_ops`` keeps only the first operations of each pass (the smoke
    test's tiny scale); the benchmark itself always runs whole passes.
    """
    setup_raw, setup_scaled = [], []
    for _ in range(0 if trace else setup_repeats):
        raw, scaled = child_setup_seconds(name, seed)
        setup_raw.append(raw)
        setup_scaled.append(scaled)
    pc, wl, tmpdir = setup(name, seed)
    try:
        if trace:
            result = measure_traced(pc, wl, seconds, max_ops)
        else:
            result = measure(wl, seconds, max_ops)
            result["metrics"]["setup_s"] = statistics.median(setup_scaled)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    prov = provenance(wl, seed, seconds, trace)
    prov["pass_s"] = result["pass_s"]
    if trace:
        prov["untraced_pass_s"] = result["untraced_pass_s"]
        prov["accounted_frac"] = result["accounted_frac"]
        tracer = result["tracer"]
        prov["spans_kept"] = tracer.spans_kept
        prov["spans_dropped"] = tracer.spans_dropped
        tracer.save(os.path.join(OUT_DIR, f"trace-{wl.name}.npz"), prov)
    else:
        prov["scaled_pass_s"] = result["scaled_pass_s"]
        prov["setup_raw_s"] = setup_raw
        prov["setup_scaled_s"] = setup_scaled

    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in result["metrics"].items()}
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0
    for line in result["failures"]:
        print(f"GATE FAILED [{wl.name}] {line}", file=sys.stderr)
    print(f"workload {wl.name} seed {seed}: {len(result['pass_s'])}"
          f" pass(es), {attempted} results checked, {failed} failed"
          f" (failed_frac {failed / max(attempted, 1):.4g})")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    if trace:
        print(f"  layer self times + bench residual ="
              f" {100 * result['accounted_frac']:.2f}% of traced wall time;"
              " tracing overhead"
              f" {100 * result['metrics']['trace.overhead_frac']:.1f}%")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def metric_units() -> dict:
    """Unit of every metric named in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _run_all(args) -> int:
    """Each workload in its own process; prints one table of every metric."""
    results = {}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise BenchError(f"{name}: no result (exit {proc.returncode})")
        print(lines[-2])
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<44}" + "".join(f"{w:>22}" for w in results))
    for metric in names + ["failed_frac"]:
        row = f"{metric:<44}"
        for res in results.values():
            if metric == "failed_frac":
                row += f"{res['failed'] / res['attempted']:>20.4g}  "
            else:
                m = res["metrics"][metric]
                row += f"{m['value']:>15.6g} {m['unit']:<6}"
        print(row)
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planarcasimir benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            _, _, tmpdir = setup(args.workload, args.seed)
            print("ready", flush=True)
            print(repr(speed.kernel_seconds()), flush=True)
            shutil.rmtree(tmpdir, ignore_errors=True)
            return 0
        if args.workload == "all":
            return _run_all(args)
        return run_workload(args.workload, args.seed, args.seconds,
                            args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
