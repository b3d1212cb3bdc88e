"""Smoke test of the benchmark itself: tiny runs, checks and failure counting.

    python3 bench/smoke.py

Runs every workload at a tiny size in both modes, feeds a pure product
state that crashes bellqkd 0.1.0, and shows that the checks reject wrong,
changed or non-repeatable outputs. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

TINY = {"sweep_grid": {"tiny": True}, "state_mix": {"strata": 1},
        "sim_stream": {"cycles": 1}}
# |psi> = (0.6|0> + 0.8i|1>) (x) (|0> - i|1>)/sqrt 2: a complex pure product
# state; the normal form of bellqkd 0.1.0 raises on it past cli.main
_A = [0.6, 0.8j]
_B = [2 ** -0.5, -1j * 2 ** -0.5]
_KET = [a * b for a in _A for b in _B]
CRASHING_STATE = {"matrix": [[[(x * y.conjugate()).real, (x * y.conjugate()).imag]
                              for y in _KET] for x in _KET]}


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def check_workloads(bench) -> None:
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for name, kwargs in TINY.items():
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result, info = run.run_workload(name, 7, 0.01, trace, kwargs)
            assert result["correct"], (name, trace, info.get("problems"))
            assert sorted(result["metrics"]) == sorted(names), (name, trace)
            assert result["attempted"] >= 1
            assert result["failed"] == sum(info["failures_by_outcome"].values())
            print(f"ok   {name} trace={trace}: {result['attempted']} commands, "
                  f"{result['failed']} failed")


def check_trace_counts_fixed() -> None:
    # counts are per replay of fixed units, whatever --seconds allows
    counts = []
    for seconds in (0.01, 1.0):
        result, info = run.run_workload("state_mix", 7, seconds, 1, TINY["state_mix"])
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] == "count"})
        print(f"ok   state_mix traced for {seconds} s: "
              f"{info['trace']['replays']} replays")
    assert counts[0] == counts[1], counts


def check_crash_is_counted() -> None:
    result, info = run.run_workload("state_mix", 7, 0.01, 0,
                                    {"strata": 1, "extra": [CRASHING_STATE]})
    # the extra state runs first; the 20 pool states after it still run
    assert result["attempted"] == 3 * 21, result["attempted"]
    assert result["correct"], info.get("problems")
    raised = sum(n for k, n in info["failures_by_outcome"].items()
                 if k.startswith("raise:"))
    assert result["failed"] == raised
    # a stratum holds 3 pure product states; each crashes filter and simulate
    if raised != 2 * 3 + 2:
        print(f"note the crashing state no longer raises ({raised} raised)")
    print(f"ok   crash counted: {result['failed']} of {result['attempted']} failed")

    # the same, independent of the program: a cli whose main always raises
    import workloads
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        wl = workloads.state_mix(7, Path(tmp), strata=1)
        loop = run.drive(_RaisingCli, wl.units, count=1)
    assert len(loop.codes) == 60 and set(loop.codes) == {"raise:RuntimeError"}
    assert run.failures(loop, set()) == 60
    print("ok   exceptions escaping cli.main never stop the loop")


def check_checks_reject() -> None:
    import workloads
    sweep = _reference("sweep_grid")
    key, csv_text = next((k, v) for k, v in sweep.items() if isinstance(v, str))
    lines = csv_text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[6] = str(float(cells[6]) * 1.001)           # p_succ, 1e-3 off
    bad = "".join(lines[:1] + [",".join(cells)] + lines[2:])
    assert workloads.check("sweep_grid", key, csv_text, 0, csv_text) == []
    assert workloads.check("sweep_grid", key, csv_text, 0, bad)
    crash_key = next(k for k, v in sweep.items() if isinstance(v, dict))
    assert workloads.check("sweep_grid", crash_key, sweep[crash_key],
                           "raise:ValueError", "") == []
    # the edge cell may come to exit 0, with a well-formed CSV row
    fixed = ",".join(workloads.SWEEP_COLUMNS) + "\n" + \
        "0.002,1,1,1,ViolatingUsable,true,0.004,2,1.4,0.5\n"
    assert workloads.check("sweep_grid", crash_key, sweep[crash_key], 0, fixed) == []
    for wrong in (fixed.replace("0.004", "0"), fixed.replace("0.002,1,", "0.002,0.9,"),
                  fixed.replace("ViolatingUsable", "Usable"), ""):
        assert workloads.check("sweep_grid", crash_key, sweep[crash_key], 0, wrong)
    assert workloads.check("sweep_grid", key, csv_text, "raise:ValueError", "")

    sim = _reference("sim_stream")
    key, text = next(iter(sim.items()))
    assert workloads.check("sim_stream", key, text, 0, text) == []
    changed = text.replace('"key_bits": ', '"key_bits": 1', 1)
    assert workloads.check("sim_stream", key, text, 0, changed)
    # with no stored reference: schema and 5-sigma checks only
    assert workloads.check("sim_stream", key, None, 0, text) == []
    far = json.loads(text)
    far["q_emp"] = min(1.0, far["q_analytic"] + 0.01)
    assert workloads.check("sim_stream", key, None, 0, json.dumps(far))

    mix = _reference("state_mix")
    key = next(k for k, v in mix.items()
               if k.startswith("filter:") and v["exit"] == 0)
    want = mix[key]
    doc = {"kind": "Diagonal", "before": _summary(want["numbers"]["before"]),
           "after": _summary(want["numbers"]["after"]),
           "filters": {"m1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                       "n1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
           "p_succ": want["numbers"]["p_succ"],
           "r_filtered": want["numbers"]["r_filtered"]}
    assert workloads.check("state_mix", key, want, 0, json.dumps(doc)) == []
    doc["p_succ"] *= 1.0001
    assert workloads.check("state_mix", key, want, 0, json.dumps(doc))
    assert workloads.check("state_mix", key, want, "raise:RuntimeError", "")
    assert workloads.check("state_mix", key, want, 2, "")

    loop = run.Loop()
    cmd = workloads.Command("k", ("analyze", "x"))
    loop.record(cmd, 0, 1, 1, "a")
    loop.record(cmd, 0, 1, 1, "b")
    assert loop.nondeterministic == {"k"}
    print("ok   checks reject changed, wrong and non-repeatable outputs")


def _reference(name: str) -> dict:
    import gzip
    import workloads
    with gzip.open(workloads.reference_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def _summary(numbers: dict) -> dict:
    return {**numbers, "distillable": False, "region": "NonviolatingUnusable"}


def main() -> int:
    run.use_source_tree()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_checks_reject()
    check_crash_is_counted()
    check_workloads(bench)
    check_trace_counts_fixed()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
