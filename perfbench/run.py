"""gpgamma benchmark: times the public API and the CLI on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload regime-grid --seed 1 --seconds 60 --trace 0

Workloads (see README.md for why each exists): ``regime-grid`` and
``cli``.  All load comes from this one process, one op at a time in a
closed loop: each op starts when the previous one has finished.  Inputs
are generated from ``--seed`` before timing starts; every output is
checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a run that records spans around every public
function, and writes the spans to ``perfbench/out/``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PER_PASS = 2
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import gpgamma; "
    "print(time.perf_counter() - t)"
)


def import_gpgamma():
    """Import gpgamma from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gpgamma

    if Path(gpgamma.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"gpgamma imported from {gpgamma.__file__}, not {SRC}")
    return gpgamma


def environment() -> dict:
    """The software and machine settings a result depends on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus_in_affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def import_seconds() -> float:
    """Time of ``import gpgamma`` in a fresh interpreter, numpy included."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cp = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return float(cp.stdout)


def attempt(run, op):
    """One op; a typed library error is a refusal, anything else a failure."""
    from workloads import REFUSALS, Outcome

    try:
        return run(op)
    except REFUSALS as exc:
        return Outcome("refused", None, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # the loop must go on; the failure is counted
        traceback.print_exc(file=sys.stderr)
        return Outcome("failed", None, repr(exc))


def run_pass(wl, run, rec=None, index: int = 0) -> dict:
    """One closed-loop pass over ``wl.ops``.

    Records every op's seconds and a tally of outcomes; with a recorder,
    also the per-layer numbers of the pass.
    """
    if rec is not None:
        rec.reset()
    times, tally = [], Counter()
    for i, op in enumerate(wl.ops):
        if rec is not None:
            rec.op_id = f"{index}:{i}"
        t0 = perf_counter()
        out = attempt(run, op)
        times.append(perf_counter() - t0)
        tally_outcome(wl, op, out, tally)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "times": times,
        "tally": tally,
        "layers": rec and layer_metrics(rec),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def timed_passes(wl, run, seconds: float, rec=None, between=None) -> list[dict]:
    """Whole passes over ``wl.ops`` that fit in ``seconds``, at least MIN_PASSES.

    ``between``, if given, is called before each pass, outside its timing.
    """
    start = perf_counter()
    passes: list[dict] = []
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        if between is not None:
            between()
        passes.append(run_pass(wl, run, rec, len(passes)))
        last = perf_counter() - t0
    return passes


def median_times(passes: list[dict]) -> list[float]:
    """Each op's median time over the passes.

    The CPU throughput of a shared machine flips between speeds about 1.5x
    apart, for fractions of a second to minutes.  The best of a run's few
    tries of a multi-second op is an extreme value and moves with the
    luckiest stretch; the median moves only with the run's mix of speeds.
    """
    return [statistics.median(col) for col in zip(*(p["times"] for p in passes))]


_reported: set[str] = set()


def _note(text: str) -> None:
    """Print each distinct refusal or problem once, to stderr."""
    if text not in _reported:
        _reported.add(text)
        print(text, file=sys.stderr)


def tally_outcome(wl, op, out, tally: Counter) -> None:
    """Count one outcome and check its output."""
    tally["attempted"] += 1
    tally[out.status] += 1
    if out.error:
        _note(f"{wl.name}: {out.status}: {out.error}")
    if wl.name == "cli" and out.value is not None:
        code, stdout, _ = out.value
        tally["stdout_bytes"] += len(stdout)
        tally["exit_nonzero"] += code != 0
    if out.status == "failed":
        return
    problems = wl.check(op, out)
    for p in problems:
        _note(f"{wl.name}: wrong output: {p}")
    tally["wrong"] += bool(problems)
    tally["ok_checked"] += out.status == "ok" and not problems


def end_to_end(wl, passes: list[dict], setup: float) -> dict[str, float]:
    per_op = median_times(passes)
    total = sum((p["tally"] for p in passes), Counter())
    return {
        "setup_s": setup,
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "ok_frac": total["ok_checked"] / total["attempted"],
        # After the first pass: later passes only add heap fragmentation.
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer numbers of the recorder's current pass."""
    m: dict[str, float] = {}
    calls, busy, _ = rec.busy("posterior.exact_posterior")
    work = rec.work["posterior.exact_posterior"]
    m["posterior.exact_posterior.calls"] = calls
    m["posterior.exact_posterior.busy_s"] = busy
    m["posterior.exact_posterior.terms"] = work["terms"]
    m["posterior.exact_posterior.us_per_term"] = 1e6 * busy / work["terms"] if work["terms"] else 0.0
    m["posterior.exact_posterior.max_terms"] = work["max_terms"]
    calls, busy, _ = rec.busy("posterior.posterior_moments")
    m["posterior.posterior_moments.calls"] = calls
    m["posterior.posterior_moments.busy_s"] = busy
    calls, busy, self_s = rec.busy("approximation.discretize_gamma")
    work = rec.work["approximation.discretize_gamma"]
    m["approximation.discretize_gamma.calls"] = calls
    m["approximation.discretize_gamma.busy_s"] = busy
    m["approximation.discretize_gamma.self_s"] = self_s
    m["approximation.discretize_gamma.windows"] = work["windows"]
    m["approximation.discretize_gamma.us_per_window"] = (
        1e6 * busy / work["windows"] if work["windows"] else 0.0
    )
    m["approximation.discretize_gamma.zero_windows"] = work["zero_windows"]
    for kernel in ("special.reg_lower_inc_gamma", "special.lerch_phi"):
        m[f"{kernel}.calls"], m[f"{kernel}.busy_s"] = rec.kernel(kernel)
    calls, busy, self_s = rec.busy("validation.compare")
    m["validation.compare.calls"] = calls
    m["validation.compare.busy_s"] = busy
    m["validation.compare.self_s"] = self_s
    m["validation.compare.failed"] = rec.failed["validation.compare"]
    m["model.derive_params.busy_s"] = rec.busy("model.derive_params")[1]
    _, m["cli.main_busy_s"], m["cli.main_self_s"] = rec.busy("cli.main")
    return m


def traced_run(wl, seconds: float, env: dict, seed: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics: untraced passes, then traced passes of the same ops.

    For ``cli`` the traced code runs in-process through ``gpgamma.cli.main``;
    the subprocesses are timed separately for ``cli.process_s``.
    """
    from spans import Recorder

    is_cli = wl.name == "cli"
    run = wl.run_inprocess if is_cli else wl.run
    share = seconds / (3 if is_cli else 2)
    subprocess_passes = timed_passes(wl, wl.run, share) if is_cli else []
    untraced = timed_passes(wl, run, share)
    rec = Recorder()
    rec.install()
    try:
        traced = timed_passes(wl, run, share, rec)
    finally:
        rec.uninstall()
    rec.dump(ROOT / "perfbench" / "out" / f"trace-{wl.name}-{seed}.jsonl", env)

    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = sum(median_times(traced)) - sum(median_times(untraced))
    metrics["cli.process_s"] = sum(median_times(subprocess_passes)) if is_cli else 0.0
    for key in ("stdout_bytes", "exit_nonzero"):
        metrics[f"cli.{key}"] = (
            subprocess_passes[0]["tally"][key] if is_cli else 0
        )
    return metrics, subprocess_passes + untraced + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    import_gpgamma()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")

    env = environment()
    print("environment " + json.dumps(env))
    wl = workloads.build(args.workload, args.seed, ROOT)
    wl.prepare()

    if args.trace:
        metrics, passes = traced_run(wl, args.seconds, env, args.seed)
    else:
        # Import timings are spread over the run, between passes, so that
        # their median sees the same machine speeds as the passes do.
        import_seconds()  # warms the file cache; not counted
        setup_times: list[float] = []

        def time_setup() -> None:
            setup_times.extend(import_seconds() for _ in range(SETUP_PER_PASS))

        passes = timed_passes(wl, wl.run, args.seconds, between=time_setup)
        metrics = end_to_end(wl, passes, statistics.median(setup_times))

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    total = sum((p["tally"] for p in passes), Counter())
    attempted = total["attempted"]
    print(
        f"{args.workload}: {len(passes)} passes of {len(wl.ops)} ops; "
        f"attempted={attempted} ok={total['ok']} refused={total['refused']} "
        f"failed={total['failed']} wrong={total['wrong']} "
        f"failed_frac={(total['refused'] + total['failed']) / attempted:.4f} "
        f"wrong_frac={total['wrong'] / attempted:.4f}"
    )
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    result = {
        "correct": total["wrong"] == 0,
        "attempted": attempted,
        "failed": total["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
