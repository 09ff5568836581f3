"""ringconv benchmark: time to a verified result, one closed-loop client.

Run from the root of a ringconv checkout:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 18 --trace 0

One process drives ringconv in a closed loop with one client: each operation
(a ``ringconv.cli.main(argv)`` command or a public library call) starts only
after the previous one has been verified.  A round is one pass over the
workload's operations; rounds repeat, with the same seeded inputs, until
``--seconds`` have passed, and a fresh interpreter is launched before each.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of the fresh interpreters, each running only ``import ringconv``),
``wall_s`` (median round time, program only; verification runs between
operations and is not timed) and ``peak_rss_mb`` (after the first round).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of BENCHMARK.json, the ``-X importtime`` breakdown and
the tracing overhead; traced and untraced rounds must give the same
verdicts and byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 1
when any output fails verification and 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import io
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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import verify
import workloads

MIN_LAUNCHES = 5  # fresh interpreters per run, at least; one starts before each round
# Work counts derived from call arguments or file sizes, not measured inside ringconv.
COMPUTED = {"oracle.mc.draws", "oracle.mc.unique_draw_ratio", "oracle.fftconvolve.points_per_call",
            "special.bessel_j0.points", "core.eval_conv.points", "cli.bytes_written"}
CLI_COMMANDS = ("profile", "surface", "mc-check", "grid-check", "hankel-check", "neumann-check",
                "mass-check", "roots-check", "circle-average")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(src: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that only runs ``import ringconv``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ringconv"], env=child_env(src),
                   check=True, timeout=120)
    return time.perf_counter() - start


def import_breakdown(src: Path) -> dict:
    """One ``-X importtime`` launch, reduced to the ``import.*`` metrics.

    numpy and scipy.signal are cumulative (everything first imported on their
    behalf, which for scipy.signal includes scipy.special); scipy.special and
    ringconv are the self time of their own modules.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringconv"],
                          env=child_env(src), check=True, timeout=120,
                          capture_output=True, text=True)
    rows = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.setdefault(fields[2].strip(), (int(fields[0]), int(fields[1])))

    def own(package):
        return sum(s for name, (s, _) in rows.items()
                   if name == package or name.startswith(package + "."))

    return {
        "import.numpy_s": rows.get("numpy", (0, 0))[1] * 1e-6,
        "import.scipy_special_s": own("scipy.special") * 1e-6,
        "import.scipy_signal_s": rows.get("scipy.signal", (0, 0))[1] * 1e-6,
        "import.ringconv_own_s": own("ringconv") * 1e-6,
        "import.total_s": rows.get("ringconv", (0, 0))[1] * 1e-6,
    }


def openblas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    counts = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                counts[Path(lib).name] = getattr(handle, symbol)()
                break
    return counts


def process_threads() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all its threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_round(ops, index, tracer=None):
    """Run one pass over the operations; each is verified before the next starts."""
    seconds, cpu, checks = [], 0.0, []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            for path in op.artifacts:
                path.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            error = None
            if tracer is not None:
                tracer.op_id = (index, i)
            cpu0 = cpu_seconds()
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    result = (op.call if tracer is None else tracer.wrap(op.name, op.call))()
                except SystemExit as exc:
                    result = exc.code
                except Exception:
                    error = traceback.format_exc()
                seconds.append(time.perf_counter() - start)
            cpu += cpu_seconds() - cpu0
            if error is None:
                try:
                    check = op.check(result, out.getvalue())
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                check = verify.Check(problems=[f"raised:\n{error}"])
            if err.getvalue():
                check.signature.append(("stderr", err.getvalue()))
            checks.append(check)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"seconds": seconds, "wall": sum(seconds), "checks": checks, "traced": tracer is not None,
            "cpu": cpu}


def layer_metrics(agg: dict, streams, round_) -> dict:
    """Per-layer values of one traced round, from its span table."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for name, row in agg.items():
        m[f"{name}.self_s"] = row["self_s"]
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.points"] = row["points"]
    for layer in tracing.LAYERS + ("cli",):
        m[f"{layer}.self_s"] = sum(r["self_s"] for n, r in agg.items() if n.startswith(layer + "."))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = get(f"cli.{command}", "total_s")
    draws = get("oracle.mc_conv_histogram", "points") + get("oracle.mc_radiality_check", "points")
    m["oracle.mc.draws"] = draws
    m["oracle.mc.unique_draw_ratio"] = tracing.unique_draws(streams) / draws if draws else 0.0
    calls = get("oracle.fftconvolve", "calls")
    m["oracle.fftconvolve.points_per_call"] = get("oracle.fftconvolve", "points") / calls if calls else 0
    m["cli.bytes_written"] = sum(c.bytes_written for c in round_["checks"])
    m["trace.spans"] = sum(r["calls"] for r in agg.values())
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "ringconv" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a ringconv checkout "
              "(needs src/ringconv and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import ringconv
    import ringconv.cli

    if Path(ringconv.__file__).resolve().parent != (src / "ringconv").resolve():
        print(f"perfbench: imported ringconv from {ringconv.__file__}, not {src}", file=sys.stderr)
        return 2

    out = root / ".perfbench" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # Fresh-interpreter launches alternate with rounds, so both sample the
    # whole window rather than one stretch of a machine whose speed drifts.
    launch = (lambda: import_breakdown(src)) if args.trace else (lambda: setup_seconds(src))
    launches = []
    ops = workloads.build(args.workload, args.seed, out, ringconv)
    tracer = tracing.Tracer() if args.trace else None
    rounds, traced_aggs, spans = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(rounds) < (2 if tracer else 1):
        launches.append(launch())
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ops, len(rounds), tracer if traced else None))
        if len(rounds) == 1:
            # A user's command runs once per process; later rounds reuse a heap
            # that earlier rounds fragmented, so the peak is read after round 0.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            spans, streams = tracer.take()
            traced_aggs.append(layer_metrics(tracing.aggregate(spans), streams, rounds[-1]))
    while len(launches) < MIN_LAUNCHES:
        launches.append(launch())

    # Accounting: every operation of every round, with the reason it failed.
    attempted = failed = 0
    incorrect = []
    reference = [c.signature for c in rounds[0]["checks"]]
    for r, round_ in enumerate(rounds):
        for op, check, ref in zip(ops, round_["checks"], reference):
            attempted += 1
            if check.signature != ref:
                check.problems.append(f"round {r} {'(traced) ' if round_['traced'] else ''}"
                                      "output differs from round 0")
            if check.problems or check.fails:
                failed += 1
            wrong = check.problems + [f"FAIL {x}" for x in check.fails if x not in check.statistical]
            incorrect += [f"{op.name} round {r}: {w}" for w in wrong]

    walls = [r["wall"] for r in rounds if not r["traced"]]
    values = {}
    if args.trace:
        for name in launches[0]:
            values[name] = statistics.median(i[name] for i in launches)
        for name in set().union(*traced_aggs):
            values[name] = statistics.median(a.get(name, 0) for a in traced_aggs)
        # A function the workload never called has no spans: its metrics are 0.
        for name in tracer.names:
            for key in ("self_s", "calls", "points"):
                values.setdefault(f"{name}.{key}", 0)
        untraced = [r for r in rounds if not r["traced"]]
        values["process.cpu_s"] = statistics.median(r["cpu"] for r in untraced)
        values["process.cpu_per_wall"] = statistics.median(r["cpu"] / r["wall"] for r in untraced)
        traced_wall = statistics.median(r["wall"] for r in rounds if r["traced"])
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        wanted = spec["per_layer"]
        with open(out / "spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    else:
        values["setup_s"] = statistics.median(launches)
        values["wall_s"] = statistics.median(walls)
        values["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        raise KeyError(f"BENCHMARK.json names metrics this benchmark does not compute: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(), "process_threads": process_threads(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mode": "closed loop, 1 client", "rounds": len(rounds),
    }
    print("env " + json.dumps(env))
    for i, op in enumerate(ops):
        times = [r["seconds"][i] for r in rounds if not r["traced"]]
        labels = sorted({x + (" (statistical)" if x in c.statistical else "")
                         for r in rounds for c in [r["checks"][i]] for x in c.fails})
        print(f"op {i} {op.name}: median {statistics.median(times):.4f} s over {len(times)} untraced"
              f" rounds{'; FAIL ' + ', '.join(labels) if labels else ''}")
    for problem in incorrect:
        print(f"incorrect: {problem}")
    print(f"ops_failed {failed} / ops_attempted {attempted} (count)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}"
              + (" (computed)" if name in COMPUTED else ""))
    print(json.dumps({"correct": not incorrect, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
