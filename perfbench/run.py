"""Run one wernerkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from ./src.
Every op is one in-process `wernerkit.cli.main(argv)` call with stdout and
stderr captured, issued in a closed loop by one client on one thread.  The
first op's output goes through the workload's independent checker; every
later op must reproduce its bytes exactly.

--trace 0 reports the end-to-end metrics.  Each program op is paired with an
op of the frozen control copy in perfbench/control, in alternating order, and
each fresh-interpreter set-up with a set-up of the control; the timings are
reported as program time / control time x the control's reference time, so a
change in the host's speed during or between runs cancels.  --trace 1 alternates untraced ops
with ops during which every public function is wrapped in a span, reports the
per-layer metrics and writes the spans to perfbench/out/spans-NAME.npz.
`--workload all` runs every workload both ways in fresh processes and writes
perfbench/out/summary.json.  The last stdout line is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONTROL = ROOT / "perfbench" / "control"
OUT = ROOT / "perfbench" / "out"
SETUP_PAIRS = 6
CHILD_TIMEOUT_S = 60
SETUP_CODE = "import {}.cli as cli; cli.build_parser()"
RSS_CODE = """\
import contextlib, io, json, resource, sys
import wernerkit.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cap_threads() -> int:
    """Cap native thread pools at the CPUs this process may run on.  Must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def environment(cap: int, workload: str, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "thread_cap": cap,
        "workload": workload,
        "seed": seed,
    }


def child_env(path: Path = SRC) -> dict:
    return {**os.environ, "PYTHONPATH": str(path)}


def setup_once(package: str, path: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI of `package`
    from `path` and builds its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(package)], env=child_env(path),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_pair(control_first: bool) -> tuple[float, float]:
    """(program, control) set-up times, taken back to back."""
    runs = [("wernerkit", SRC), ("wernerkit_control", CONTROL)]
    if control_first:
        runs.reverse()
    times = dict((package, setup_once(package, path)) for package, path in runs)
    return times["wernerkit"], times["wernerkit_control"]


def peak_rss(argv: list[str]) -> tuple[int, float]:
    """Exit code and peak RSS (MB) of a fresh interpreter running one op."""
    done = subprocess.run(
        [sys.executable, "-c", RSS_CODE, json.dumps(argv)],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
    )
    code, kib = done.stdout.split()
    return int(code), int(kib) / 1024.0


def run_op(cli, argv: list[str]) -> tuple[tuple[int, str, str], float]:
    """One CLI call: ((exit code, stdout, stderr), seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a benchmark crash
            code = -1
            traceback.print_exc()
    elapsed = time.perf_counter() - t0
    return (code, out.getvalue(), err.getvalue()), elapsed


def paired_ops(cli, control, argv, seconds, reference, setup_pairs):
    """Program and control ops in pairs, alternating which goes first, while
    the next pair is expected to end within `seconds` of wall time (at least
    one pair).  `setup_pairs` pairs of set-ups are spread evenly over the
    run.  Returns (program latencies, control latencies, program ops whose
    bytes differ from the reference, program set-up times, control set-up
    times)."""
    lat, setups, differ = ([], []), ([], []), 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if lat[0] and elapsed + lat[0][-1] + lat[1][-1] > seconds:
            break
        if len(setups[0]) < setup_pairs * elapsed / seconds:
            for side, t in enumerate(setup_pair(len(setups[0]) % 2 == 1)):
                setups[side].append(t)
        order = (0, 1) if len(lat[0]) % 2 == 0 else (1, 0)
        for side in order:
            output, t = run_op(control if side else cli, argv)
            lat[side].append(t)
            if side == 0:
                differ += output != reference
    while len(setups[0]) < setup_pairs:
        for side, t in enumerate(setup_pair(len(setups[0]) % 2 == 1)):
            setups[side].append(t)
    return lat[0], lat[1], differ, setups[0], setups[1]


def ratios(program, control) -> list[float]:
    """Per-pair program / control time, sorted."""
    return sorted(p / c for p, c in zip(program, control, strict=True))


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the sorted values (all of them below four)."""
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def alternating_ops(cli, argv, seconds, reference, tracer):
    """Untraced and traced ops in turn until they have taken `seconds`, so both
    kinds sample the same machine state.  Returns (untraced latencies, traced
    latencies, ops whose bytes differ from the reference)."""
    latencies, differ = ([], []), 0
    while True:
        for traced in (0, 1):
            with tracer.installed() if traced else contextlib.nullcontext():
                tracer.op_id = len(latencies[1])
                output, elapsed = run_op(cli, argv)
            latencies[traced].append(elapsed)
            differ += output != reference
        if sum(latencies[0]) + sum(latencies[1]) >= seconds:
            return latencies[0], latencies[1], differ


def q_points(argv: list[str]) -> int:
    for flag in ("--sweep", "--grid"):
        if flag in argv:
            return int(argv[argv.index(flag) + 3])
    return 1


def layer_metrics(tracer, argv, n_ops, overhead_frac) -> dict:
    selfs, calls, counts = tracer.self_seconds(), tracer.calls(), tracer.counts

    def ratio(a, b):  # 0 when the layer is not called on this workload
        return a / b if b else 0.0

    samples = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0
    derived = {
        "hiddenvar.draws_per_sample": ratio(counts["hiddenvar.draws"], n_ops * samples),
        "linalg.eig_calls_per_ppt": ratio(
            calls["linalg.hermitian_eigenvalues"], calls["separability.ppt_test"]),
        "states.werner_calls_per_q": ratio(calls["states.werner"], n_ops * q_points(argv)),
        "states.product_states_per_node": ratio(
            calls["states.product_state"], counts["decomposition.nodes_reconstructed"]),
        "decomposition.nodes_built": counts["decomposition.nodes_built"] / n_ops,
        "cli.output_bytes": counts["cli.output_bytes"] / n_ops,
        "trace.overhead_frac": overhead_frac,
    }
    values = {}
    for metric in spec.PER_LAYER:
        name = metric.name
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = selfs.get(name.removesuffix(".self_s"), 0.0) / n_ops
        elif name.endswith(".calls"):
            values[name] = calls[name.removesuffix(".calls")] / n_ops
        else:
            values[name] = counts[name]
    return values


def run_workload(args, cap: int) -> dict:
    import numpy as np

    import checks
    import tracing
    import wernerkit.cli as cli
    import wernerkit_control.cli as control

    workload = spec.WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    print("env:", json.dumps(environment(cap, workload.name, args.seed)))
    print("workload:", json.dumps(workload.record()))
    print("argv:", " ".join(argv))

    attempted = failed = 0
    if not args.trace:
        # Also the first import of this checkout, which fills the bytecode
        # caches before any set-up is timed.
        rss_code, rss_mb = peak_rss(argv)
        attempted += 1
        failed += rss_code != 0

    reference, _ = run_op(cli, argv)
    attempted += 1
    problem = checks.failure(workload.name, argv, *reference[:2])
    if problem:
        print(f"check failed: {problem}")
    print("digest: sha256", hashlib.sha256(repr(reference).encode()).hexdigest())

    if args.trace:
        tracer = tracing.Tracer()
        lat_u, lat_t, differ = alternating_ops(cli, argv, args.seconds, reference, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{workload.name}.npz")
        latencies = lat_u + lat_t
        overhead = statistics.median(lat_t) / statistics.median(lat_u) - 1.0
        values = layer_metrics(tracer, argv, len(lat_t), overhead)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in spec.PER_LAYER}
    else:
        # Warms the control up, as the reference op did the program.
        (code, _, err), _ = run_op(control, argv)
        if code != 0:
            raise RuntimeError(f"the control exited with {code} on this argv:\n{err}")
        latencies, ctl, differ, setups, ctl_setups = paired_ops(
            cli, control, argv, args.seconds, reference, SETUP_PAIRS)
        op, ref_s = ratios(latencies, ctl), workload.control_s
        values = {
            "items_per_s": workload.items_per_op / (middle_mean(op) * ref_s),
            "op_p50_s": statistics.median(op) * ref_s,
            "op_tail_s": float(np.percentile(op, workload.tail_pct)) * ref_s,
            "setup_s": statistics.median(ratios(setups, ctl_setups)) * spec.CONTROL_SETUP_S,
            "peak_rss_mb": rss_mb,
        }
        print("raw medians (s): op", statistics.median(latencies), "control op",
              statistics.median(ctl), "set-up", statistics.median(setups), "control set-up",
              statistics.median(ctl_setups))
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in spec.END_TO_END}

    attempted += len(latencies)
    if differ:
        print(f"{differ} ops differ from the reference op's bytes")
    # Every in-process op either repeats the reference bytes or differs from them.
    failed = attempted if problem else failed + differ
    print(f"ops: {attempted} attempted, {failed} failed, fail_frac {failed / attempted} fraction")
    if not args.trace:
        print(f"op_tail_s is p{workload.tail_pct} of {len(latencies)} timed op pairs")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args, cap: int) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"environment": environment(cap, "all", args.seed), "workloads": {}}
    attempted = failed = 0
    for name, workload in spec.WORKLOADS.items():
        results = workload.record()
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, capture_output=True, text=True, timeout=180,
            )
            lines = done.stdout.splitlines()
            print(f"== {name} --trace {trace}")
            print("\n".join(lines[:-1]))
            results[f"trace{trace}"] = json.loads(lines[-1])
            attempted += results[f"trace{trace}"]["attempted"]
            failed += results[f"trace{trace}"]["failed"]
        summary["workloads"][name] = results
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wernerkit" / "cli.py").is_file():
        print(f"error: no wernerkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap = cap_threads()
    sys.path[:0] = [str(SRC), str(CONTROL)]
    result = run_all(args, cap) if args.workload == "all" else run_workload(args, cap)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
