"""bellqkd benchmark: one closed-loop client drives ``bellqkd.cli.main``.

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/`` and nowhere else. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: load comes from one
# process with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
WORKLOADS = ("sweep_grid", "state_mix", "sim_stream")
SETUP_REPEATS = 9
# command times are CPU times; a run whose steady wall time exceeds its steady
# CPU time by more than this factor has work the CPU clock does not see (an
# unreaped worker process, a wait on I/O) and is not correct. Host steal on a
# shared 2-core VM gave ratios of 1.05-1.3.
WALL_CPU_LIMIT = 2.5


def use_source_tree():
    """Import bellqkd from this checkout's src/, or fail without a result."""
    if not (SRC / "bellqkd" / "__init__.py").is_file():
        raise SystemExit(f"error: no bellqkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellqkd
    if Path(bellqkd.__file__).resolve().parent != SRC / "bellqkd":
        raise SystemExit(f"error: bellqkd imported from {bellqkd.__file__}")
    return bellqkd


# ---------------------------------------------------------------------------
# one command, one closed loop

def cpu_ns() -> int:
    """CPU time of this process, every thread, plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round(
        (children.ru_utime + children.ru_stime) * 1e9)


def run_command(cli, cmd):
    """Call cli.main once; returns (exit code or 'raise:<type>', cpu ns,
    wall ns, output).

    An exception escaping cli.main is a failed command, counted and never
    allowed to stop the run.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    c0 = cpu_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        code = f"raise:{type(exc).__name__}"
    cpu = cpu_ns() - c0
    wall = time.perf_counter_ns() - t0
    if cmd.out_file is None:
        text = out.getvalue()
    elif code == 0:
        text = Path(cmd.out_file).read_text(encoding="utf-8")
    else:
        text = ""
    return code, cpu, wall, text


class Loop:
    """Results of a closed loop: per-command latency, first output per key."""

    def __init__(self):
        self.cpu_ns: list[int] = []
        self.wall_ns: list[int] = []
        self.codes: list = []
        self.keys: list[str] = []
        self.groups: list[str] = []
        self.first: dict[str, tuple] = {}
        self.nondeterministic: set[str] = set()
        self.units = self.states = self.rounds = 0
        self.wall_s = 0.0

    def record(self, cmd, code, cpu, wall, text):
        self.cpu_ns.append(cpu)
        self.wall_ns.append(wall)
        self.codes.append(code)
        self.keys.append(cmd.key)
        self.groups.append(cmd.group or cmd.key)
        seen = self.first.setdefault(cmd.key, (code, text))
        if seen != (code, text):
            self.nondeterministic.add(cmd.key)


def drive(cli, units, seconds=None, count=None, loop=None) -> Loop:
    """Run units in order (wrapping round) for ``seconds`` or ``count`` units,
    adding to ``loop`` if given."""
    loop = loop if loop is not None else Loop()
    t0 = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() - t0 < seconds):
        unit = units[i % len(units)]
        for cmd in unit.commands:
            loop.record(cmd, *run_command(cli, cmd))
        loop.states += unit.states
        loop.rounds += unit.rounds
        i += 1
    loop.wall_s += time.perf_counter() - t0
    loop.units += i
    return loop


def steady_ns(loop, samples) -> list[float]:
    """Each command's time replaced by the median of its cost group.

    The host shares its cores, so single commands stall at random; the
    median over a group's repeats keeps those stalls out of the metrics
    while every group, slow or fast, still counts as often as it ran.
    """
    by_group: dict[str, list[int]] = {}
    for g, dt in zip(loop.groups, samples):
        by_group.setdefault(g, []).append(dt)
    med = {g: statistics.median(v) for g, v in by_group.items()}
    return [med[g] for g in loop.groups]


# ---------------------------------------------------------------------------
# correctness

def verify(wl, ref_outputs, loops) -> tuple[list[str], set[str]]:
    """Check every distinct output once; returns (problems, bad keys)."""
    import workloads
    problems, bad = [], set()
    for loop in loops:
        for key in loop.nondeterministic:
            problems.append(f"{key}: output differs between repeats")
            bad.add(key)
        for key, (code, text) in loop.first.items():
            errs = workloads.check(wl.name, key, ref_outputs.get(key), code, text)
            if errs:
                bad.add(key)
                problems += [f"{key}: {e}" for e in errs]
    return problems, bad


def failures(loop, bad_keys) -> int:
    import workloads
    return sum(1 for code, key in zip(loop.codes, loop.keys)
               if not workloads.outcome_ok(code) or key in bad_keys)


# ---------------------------------------------------------------------------
# set-up time, memory, environment

def measure_setup(argv) -> list[float]:
    """CPU seconds of a fresh interpreter that imports bellqkd, builds the
    parser and finishes one command; SETUP_REPEATS times."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from bellqkd import cli; raise SystemExit(cli.main(sys.argv[2:]))")
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              cwd=ROOT, check=False)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime
                     + after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command {argv} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-500:]}")
    return times


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def _blas_threads():
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            check=False).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# one workload run

def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, build_kwargs=None):
    """Run one workload; returns (result dict, info dict)."""
    from bellqkd import cli
    import workloads
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        wl = workloads.BY_NAME[name](seed, workdir, **(build_kwargs or {}))
        ref_outputs = workloads.load_reference(wl.name, wl.definition)
        info = {"workload": name, "seed": seed, "seconds": seconds,
                "trace": trace, "sizes": wl.sizes, "env": environment()}
        if not trace:
            setup = measure_setup(wl.setup_argv)
            info["setup_s_samples"] = setup
        # warm-up: the workload's first command, once, untimed
        run_command(cli, wl.units[0].commands[0])
        if trace:
            # the same fixed units, untraced then traced, until --seconds
            import tracing
            tracer = tracing.Tracer()
            plain, traced = Loop(), Loop()
            t0 = time.perf_counter()
            while not traced.units or time.perf_counter() - t0 < seconds:
                drive(cli, wl.units, count=wl.trace_units, loop=plain)
                with tracer.installed():
                    drive(cli, wl.units, count=wl.trace_units, loop=traced)
            loops = [plain, traced]
            main_loop = traced
        else:
            main_loop = drive(cli, wl.units, seconds=seconds)
            loops = [main_loop]
        problems, bad_keys = verify(wl, ref_outputs, loops)
        wall_cpu = (sum(steady_ns(main_loop, main_loop.wall_ns))
                    / sum(steady_ns(main_loop, main_loop.cpu_ns)))
        if wall_cpu > WALL_CPU_LIMIT:
            problems.append(f"steady wall time is {wall_cpu:.2f}x the CPU time "
                            "of the commands: work outside the CPU clock")
        failed = failures(main_loop, bad_keys)
        attempted = len(main_loop.codes)
        info.update(_loop_info(ref_outputs, main_loop, failed))
        info["wall_cpu_ratio"] = wall_cpu
        if problems:
            info["problems"] = problems[:20]
        if trace:
            reps = traced.units // wl.trace_units
            per_layer, trace_info = tracer.per_layer(reps)
            plain_s, traced_s = sum(plain.cpu_ns) / 1e9, sum(traced.cpu_ns) / 1e9
            overhead = traced_s - plain_s
            per_layer["trace.overhead_frac"] = metric(overhead / plain_s, "ratio")
            info["trace"] = {"untraced_cpu_s": plain_s, "traced_cpu_s": traced_s,
                             "untraced_wall_s": plain.wall_s,
                             "traced_wall_s": traced.wall_s,
                             "wall_overhead_s": traced.wall_s - plain.wall_s,
                             "overhead_s": overhead,
                             "overhead_frac": overhead / plain_s,
                             "replays": reps, "units_per_replay": wl.trace_units,
                             **trace_info}
            info["trace"]["file"] = str(tracer.write(
                OUT_DIR / f"trace-{name}.json.gz", name, seed).relative_to(ROOT))
            metrics = per_layer
        else:
            steady = steady_ns(main_loop, main_loop.cpu_ns)
            lat = sorted(steady)
            metrics = {
                "states_per_s": metric(main_loop.states / (sum(steady) / 1e9),
                                       "states/s"),
                "op_p50_ms": metric(_percentile(lat, 50) / 1e6, "ms"),
                "op_p99_ms": metric(_percentile(lat, 99) / 1e6, "ms"),
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
                "ok_frac": metric((attempted - failed) / attempted, "ratio"),
            }
        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def _loop_info(ref, loop, failed) -> dict:
    import workloads
    raised = {}
    for code in loop.codes:
        if not workloads.outcome_ok(code):
            raised[str(code)] = raised.get(str(code), 0) + 1
    # share of commands whose recorded reference outcome was an exception
    known = sum(1 for k in loop.keys
                if isinstance(ref.get(k), dict)
                and not workloads.outcome_ok(ref[k]["exit"]))
    n = len(loop.codes)
    steady_s = sum(steady_ns(loop, loop.cpu_ns)) / 1e9
    return {"commands": n, "units": loop.units, "states": loop.states,
            "rounds": loop.rounds, "wall_s": loop.wall_s,
            "steady_cpu_s": steady_s,
            "rounds_per_s": loop.rounds / steady_s,
            "cost_groups": len(set(loop.groups)),
            "fail_frac": failed / n, "reference_fail_frac": known / n,
            "failures_by_outcome": raised, "latency_samples": n}


# ---------------------------------------------------------------------------

def _print_human(result, info):
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'correct':40s} {result['correct']}  "
          f"({result['failed']} of {result['attempted']} commands failed)")
    print("info " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    use_source_tree()
    if args.workload != "all":
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        _print_human(result, info)
        print(json.dumps(result))
        return 0
    # every workload in its own interpreter, so peak RSS stays per workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
