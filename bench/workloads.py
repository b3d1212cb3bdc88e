"""Inputs, reference outputs and correctness checks of the three workloads.

Every workload draws its inputs from a fixed pool whose reference outputs
are stored in ``bench/reference/<workload>.json.gz``; the run seed only
chooses which pool members run and in what order. So every seed is checked
against recorded outputs, and ``make_reference.py`` is the one place that
writes them.

A workload is a list of units; a run only ends between units, so each run
holds whole units and their fixed mix of inputs. A unit is one pass over the
grid (``sweep_grid``), one stratum of 20 states, each through ``analyze``,
``filter`` and ``simulate`` (``state_mix``), or a pair of long ``simulate``
runs (``sim_stream``). A traced replay runs a fixed number of units
(``trace_units``), so its call counts do not depend on throughput.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bellqkd import states

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
SCHEMA_DIR = Path(states.__file__).resolve().parent / "schemas"

# exit codes of the CLI contract; anything else, or an exception escaping
# cli.main, is a failed command
CONTRACT_EXITS = (0, 1, 2, 64)


@dataclass(frozen=True)
class Command:
    key: str                 # names the reference output and the repeat check
    argv: tuple[str, ...]
    out_file: str | None = None  # sweep writes CSV here; others use stdout
    # commands of one cost group share a median latency; defaults to the key
    group: str | None = None


@dataclass(frozen=True)
class Unit:
    states: int
    rounds: int
    commands: tuple[Command, ...]


@dataclass
class Workload:
    name: str
    units: list[Unit]        # one seeded order; the run loop wraps round
    setup_argv: list[str]    # first command of a fresh interpreter (setup_s)
    trace_units: int         # units a traced replay runs, fixed per workload
    sizes: dict
    definition: dict         # what the stored reference was recorded for


def outcome_ok(code) -> bool:
    return code in CONTRACT_EXITS


# ---------------------------------------------------------------------------
# reference files

def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json.gz"


def load_reference(name: str, definition: dict) -> dict:
    with gzip.open(reference_path(name), "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["definition"] != definition:
        raise RuntimeError(
            f"{name}: the workload definition no longer matches its stored "
            "reference; re-record with bench/make_reference.py only if the "
            "change to the inputs is intended")
    return ref["outputs"]


def save_reference(name: str, definition: dict, outputs: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = json.dumps({"definition": definition, "outputs": outputs},
                     sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file bytes a function of its content
    with open(reference_path(name), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(doc.encode("utf-8"))


# ---------------------------------------------------------------------------
# sweep_grid: the Gisin family on the 50 x 50 grid that ROADMAP item 1 names
# for sweep throughput, alpha in [0.002, 0.998] and mu in [0.01, 1], which
# crosses every region boundary of the family and holds the mu = 1 row of
# pure states. (The 200 x 200 grid takes over a minute a pass, longer than a
# run.) One pass is the fewest commands that keep apart the edge cell
# (0.002, 1), which makes bellqkd 0.1.0 raise past cli.main: alpha[1:] x mu
# (2450 cells), alpha[0] x mu[:-1] (49 cells) and the edge cell alone.

SWEEP_ALPHAS = [float(a) for a in np.linspace(0.002, 0.998, 50)]
SWEEP_MUS = [float(m) for m in np.linspace(0.01, 1.0, 50)]
SWEEP_PASSES = 64          # units per run order; the loop wraps round
SWEEP_COLUMNS = ["alpha", "mu", "lam_sq_sum", "lam_sum", "region",
                 "filterable", "p_succ", "lam_sq_sum_after",
                 "lam_sum_after", "r_filtered"]
SWEEP_REGIONS = ("NonviolatingUnusable", "ViolatingUnusable", "ViolatingUsable")


def _range_arg(values: list[float]) -> str:
    return f"{values[0]!r}:{values[-1]!r}:{len(values)}"


def _sweep_grid_ranges() -> list[tuple[str, str, int]]:
    """(alpha range, mu range, cells) of every command of one grid pass."""
    a, m = SWEEP_ALPHAS, SWEEP_MUS
    return [(_range_arg(a[1:]), _range_arg(m), (len(a) - 1) * len(m)),
            (_range_arg(a[:1]), _range_arg(m[:-1]), len(m) - 1),
            (_range_arg(a[:1]), _range_arg(m[-1:]), 1)]


def _sweep_commands(workdir: Path) -> list[tuple[Command, int]]:
    out = []
    for i, (alpha, mu, cells) in enumerate(_sweep_grid_ranges()):
        path = str(workdir / f"sweep-{i}.csv")
        out.append((Command(key=f"{alpha}|{mu}", out_file=path,
                            argv=("sweep", "--family", "gisin", "--alpha", alpha,
                                  "--mu", mu, "--out", path)), cells))
    return out


def _sweep_definition() -> dict:
    return {"ranges": [list(r) for r in _sweep_grid_ranges()]}


def sweep_grid(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """One unit per pass over the grid, commands in a fresh seeded order.

    ``tiny`` leaves out the 2450-cell command, for the smoke test.
    """
    cmds = _sweep_commands(workdir)
    if tiny:
        cmds = cmds[1:]
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(SWEEP_PASSES):
        order = [cmds[i] for i in rng.permutation(len(cmds))]
        units.append(Unit(sum(n for _, n in order), 0,
                          tuple(c for c, _ in order)))
    return Workload(
        name="sweep_grid", units=units, trace_units=1,
        setup_argv=["sweep", "--family", "gisin", "--alpha", "0.9:0.9:1",
                    "--mu", "0.85:0.85:1", "--out",
                    str(workdir / "setup.csv")],
        sizes={"grid": [len(SWEEP_ALPHAS), len(SWEEP_MUS)],
               "commands_per_pass": len(cmds), "cells_per_pass": units[0].states},
        definition=_sweep_definition())


def sweep_reference_commands(workdir: Path) -> tuple[dict, list[Command]]:
    return _sweep_definition(), [c for c, _ in _sweep_commands(workdir)]


SWEEP_CATEGORICAL = ("alpha", "mu", "region", "filterable")


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _range_values(arg: str) -> np.ndarray:
    start, stop, n = arg.split(":")
    return np.linspace(float(start), float(stop), int(n))


def check_sweep_cells(key: str, out: str) -> list[str]:
    """A sweep whose reference raised but which now exits 0: the header, one
    row per cell with its alpha and mu, valid categories, and p_succ in
    (0, 1] where the cell is filterable."""
    alphas, mus = (_range_values(r) for r in key.split("|"))
    got = list(csv.reader(io.StringIO(out)))
    if not got or got[0] != SWEEP_COLUMNS or len(got) != 1 + len(alphas) * len(mus):
        return [f"CSV header or row count wrong ({len(got)} rows)"]
    bad = []
    cells = ((a, m) for a in alphas for m in mus)
    for row, (a, m) in zip(got[1:], cells):
        cell = dict(zip(SWEEP_COLUMNS, row))
        if not (_close(float(cell["alpha"]), a, 1.5e-5, 1e-12)
                and _close(float(cell["mu"]), m, 1.5e-5, 1e-12)):
            bad.append(f"row {row[:2]} is not cell ({a!r}, {m!r})")
        if cell["region"] not in SWEEP_REGIONS:
            bad.append(f"alpha={a} mu={m} region {cell['region']!r}")
        if cell["filterable"] not in ("true", "false"):
            bad.append(f"alpha={a} mu={m} filterable {cell['filterable']!r}")
        elif cell["filterable"] == "true" and not 0.0 < float(cell["p_succ"]) <= 1.0:
            bad.append(f"alpha={a} mu={m} p_succ {cell['p_succ']!r}")
    return bad[:5]


def check_sweep(ref: str, out: str) -> list[str]:
    """Categorical cells exactly; numbers within one unit of the 6th digit."""
    got = list(csv.reader(io.StringIO(out)))
    want = list(csv.reader(io.StringIO(ref)))
    if not got or got[0] != want[0] or len(got) != len(want):
        return [f"CSV header or row count differs ({len(got)} vs {len(want)} rows)"]
    header = want[0]
    bad = []
    for g, w in zip(got[1:], want[1:]):
        for col, x, y in zip(header, g, w):
            if col in SWEEP_CATEGORICAL or x == "" or y == "":
                ok = x == y
            else:
                ok = _close(float(x), float(y), 1.5e-5, 1e-12)
            if not ok:
                bad.append(f"alpha={w[0]} mu={w[1]} {col}: {x!r} != {y!r}")
    return bad[:5]


# ---------------------------------------------------------------------------
# state_mix: a pool of 240 states in 12 strata of 20, with fixed shares of
# the kinds below. A run takes 6 strata' worth (120 states), keeping the
# shares in every stratum, so any prefix of the run has the same mix.

POOL_SEED = 20200227
POOL_STRATA = 12
RUN_STRATA = 6
MIX_ROUNDS = 10_000
STRATUM = {                # kind -> states per stratum of 20
    "full_rank": 5,        # random full-rank (Ginibre)
    "rank2": 3,            # random rank-2
    "werner_sl": 2,        # Werner under random local SL(2,C) filters
    "gisin_sl": 2,         # Gisin under random local SL(2,C) filters
    "bell_diagonal": 2,    # the shortcut route; one matrix, one family file
    "near_x": 3,           # lam|Phi+><Phi+| + (1-lam)|00><00| + 1e-7 random
    "pure_product": 3,     # random complex pure product states
}

_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def _ginibre_rho(rng, rank: int) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _sl2(rng) -> np.ndarray:
    # U diag(e^t, e^-t) V with bounded squeeze t, so det = 1 and cond <= e^2
    t = rng.uniform(0.0, 1.0)
    return _unitary(rng) @ np.diag([np.exp(t), np.exp(-t)]) @ _unitary(rng)


def _sl_filtered(rng, rho: np.ndarray) -> np.ndarray:
    k = np.kron(_sl2(rng), _sl2(rng))
    out = k @ rho @ k.conj().T
    return out / np.trace(out).real


def _ket(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _matrix_doc(rho: np.ndarray) -> dict:
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return {"matrix": [[[float(z.real), float(z.imag)] for z in row]
                       for row in rho]}


def _make_state(rng, kind: str, slot: int) -> dict:
    """One state-file document; ``slot`` alternates the Bell-diagonal form."""
    if kind == "full_rank":
        return _matrix_doc(_ginibre_rho(rng, 4))
    if kind == "rank2":
        return _matrix_doc(_ginibre_rho(rng, 2))
    if kind == "werner_sl":
        w = states.make_family(states.FamilySpec("werner", p=rng.uniform(0.2, 0.95)))
        return _matrix_doc(_sl_filtered(rng, w.rho))
    if kind == "gisin_sl":
        g = states.make_family(states.FamilySpec(
            "gisin", alpha=rng.uniform(0.05, 0.95), mu=rng.uniform(0.1, 1.0)))
        return _matrix_doc(_sl_filtered(rng, g.rho))
    if kind == "bell_diagonal":
        if slot % 2:
            return {"family": {"variant": "bell",
                               "label": _BELL_LABELS[rng.integers(4)]},
                    "depolarize": float(rng.uniform(0.1, 1.0))}
        w = rng.dirichlet(np.ones(4))
        rho = sum(wi * states.bell_state(l).rho for wi, l in zip(w, _BELL_LABELS))
        return _matrix_doc(rho)
    if kind == "near_x":
        lam = rng.uniform(0.2, 0.9)
        x = lam * np.outer(_PHI_PLUS, _PHI_PLUS.conj())
        x[0, 0] += 1.0 - lam
        return _matrix_doc((1.0 - 1e-7) * x + 1e-7 * _ginibre_rho(rng, 4))
    if kind == "pure_product":
        k = np.kron(_ket(rng), _ket(rng))
        return _matrix_doc(np.outer(k, k.conj()))
    raise ValueError(kind)


def state_pool() -> list[tuple[str, dict]]:
    """The fixed pool: (kind, state-file document), POOL_STRATA x 20 states."""
    rng = np.random.default_rng(POOL_SEED)
    return [(kind, _make_state(rng, kind, j))
            for _ in range(POOL_STRATA)
            for kind, n in STRATUM.items() for j in range(n)]


def _pool_definition(pool) -> dict:
    digest = hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()
    return {"pool_seed": POOL_SEED, "stratum": STRATUM, "strata": POOL_STRATA,
            "rounds": MIX_ROUNDS, "pool_sha256": digest}


def _mix_commands(idx: int, path: Path) -> tuple[Command, ...]:
    p = str(path)
    return (
        Command(f"analyze:{idx}", ("analyze", p)),
        Command(f"filter:{idx}", ("filter", p)),
        Command(f"simulate:{idx}", ("simulate", p, "--rounds", str(MIX_ROUNDS),
                                    "--seed", str(idx), "--with-filtering")),
    )


def _mix_unit(workdir: Path, docs: dict[int, dict]) -> Unit:
    cmds = [c for idx, doc in docs.items()
            for c in _mix_commands(idx, _write_state(workdir, idx, doc))]
    return Unit(len(docs), MIX_ROUNDS * len(docs), tuple(cmds))


def _write_state(workdir: Path, idx: int, doc: dict) -> Path:
    path = workdir / f"state-{idx}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def state_mix(seed: int, workdir: Path, strata: int = RUN_STRATA,
              extra: tuple[dict, ...] = ()) -> Workload:
    """``strata`` strata of the pool, one unit each, in seeded order.

    ``extra`` state documents (no reference; index -1, -2, ...) run first in
    the first unit; the smoke test feeds a crashing state this way.
    """
    pool = state_pool()
    rng = np.random.default_rng(seed)
    by_kind = {k: [i for i, (kk, _) in enumerate(pool) if kk == k] for k in STRATUM}
    picked = {k: list(rng.choice(v, size=STRATUM[k] * strata, replace=False))
              for k, v in by_kind.items()}
    units = []
    for s in range(strata):
        stratum = [int(i) for k, n in STRATUM.items()
                   for i in picked[k][s * n:(s + 1) * n]]
        docs = {} if s else {-1 - j: doc for j, doc in enumerate(extra)}
        docs.update((stratum[j], pool[stratum[j]][1])
                    for j in rng.permutation(len(stratum)))
        units.append(_mix_unit(workdir, docs))
    setup = _write_state(workdir, 10**6, {"family": {
        "variant": "gisin", "alpha": 0.9, "mu": 0.85}})
    return Workload(
        name="state_mix", units=units, trace_units=strata,
        setup_argv=["analyze", str(setup)],
        sizes={"pool": len(pool), "states": sum(STRATUM.values()) * strata,
               "extra": len(extra), "stratum": STRATUM, "rounds": MIX_ROUNDS},
        definition=_pool_definition(pool))


def mix_reference_commands(workdir: Path) -> tuple[dict, list[Command]]:
    pool = state_pool()
    return _pool_definition(pool), list(
        _mix_unit(workdir, {i: doc for i, (_, doc) in enumerate(pool)}).commands)


def _summary_numbers(d: dict) -> dict:
    return {"spectrum": d["spectrum"], "s_max": d["s_max"], "q": d["q"],
            "r_min": d["r_min"]}


def mix_record(cmd: str, code, out: str):
    """What the reference keeps of one state_mix output."""
    rec = {"exit": code}
    if code != 0:
        return rec
    doc = json.loads(out)
    if cmd == "analyze":
        rec["numbers"] = {k: doc[k] for k in (
            "spectrum", "s_max", "q_L2", "q_L3", "r_min", "concurrence", "eof")}
    elif cmd == "filter":
        rec["numbers"] = {"before": _summary_numbers(doc["before"]),
                          "after": _summary_numbers(doc["after"]),
                          "p_succ": doc["p_succ"],
                          "r_filtered": doc["r_filtered"]}
    else:
        rec["numbers"] = {k: doc[k] for k in (
            "rounds_total", "q_analytic", "s_analytic", "p_succ_analytic")}
    return rec


def _allowed_exits(ref_exit) -> set:
    # exit 2 (X form) and escaped exceptions may become contract answers;
    # nothing that had a contract answer may become an exception
    if ref_exit == 2:
        return {0, 2}
    if not outcome_ok(ref_exit):
        return {0, 1, 2, ref_exit}
    return {ref_exit}


def _compare(path: str, got, want, bad: list) -> None:
    if isinstance(want, dict):
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], bad)
    elif isinstance(want, list):
        if len(got) != len(want):
            bad.append(f"{path}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, bad)
    elif not _close(float(got), float(want), 1e-6, 1e-9):
        bad.append(f"{path}: {got!r} != {want!r}")


def _sigma_checks(doc: dict) -> list[str]:
    """Empirical values within 5 sigma (binomial) of their analytic values."""
    bad = []
    n, sifted = doc["rounds_total"], doc["rounds_sifted"]
    p = doc["p_succ_analytic"]
    if abs(doc["accept_rate"] - p) > 5 * math.sqrt(p * (1 - p) / n) + 1e-12:
        bad.append(f"accept_rate {doc['accept_rate']} vs p_succ {p}")
    q = doc["q_analytic"]
    if sifted and abs(doc["q_emp"] - q) > 5 * math.sqrt(q * (1 - q) / sifted) + 1.0 / sifted:
        bad.append(f"q_emp {doc['q_emp']} vs q_analytic {q} ({sifted} sifted)")
    return bad


def check_mix(key: str, ref: dict | None, code, out: str) -> list[str]:
    cmd = key.split(":")[0]
    bad = []
    if code == 0:
        doc = json.loads(out)
        bad += schema_errors(SCHEMA_FOR[cmd], doc)
        if cmd == "simulate" and not bad:
            bad += _sigma_checks(doc)
    if ref is None:
        return bad
    if code not in _allowed_exits(ref["exit"]):
        return bad + [f"exit {code!r}, reference {ref['exit']!r}"]
    if code == 0 and "numbers" in ref and not bad:
        _compare(cmd, mix_record(cmd, code, out)["numbers"], ref["numbers"], bad)
    return bad[:5]


# ---------------------------------------------------------------------------
# sim_stream: long simulate runs on the worked example gisin(0.9, 0.85) with
# filtering and on werner(0.8) without, alternating, seeds from a pool of 24

SIM_ROUNDS = 2_000_000
SIM_SEEDS = 24
SIM_TRACE_PAIRS = 4
SIM_CONFIGS = {
    "gisin": ({"family": {"variant": "gisin", "alpha": 0.9, "mu": 0.85}},
              ("--with-filtering",)),
    "werner": ({"family": {"variant": "werner", "p": 0.8}}, ()),
}


def _sim_commands(workdir: Path) -> dict[str, list[Command]]:
    out = {}
    for name, (doc, flags) in SIM_CONFIGS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # the seed changes the draws, not the work: one cost group per state
        out[name] = [Command(f"{name}:{s}", ("simulate", str(path), "--rounds",
                                            str(SIM_ROUNDS), "--seed", str(s),
                                            *flags), group=name)
                     for s in range(SIM_SEEDS)]
    return out


def _sim_definition() -> dict:
    return {"rounds": SIM_ROUNDS, "seeds": SIM_SEEDS,
            "configs": {k: [d, list(f)] for k, (d, f) in SIM_CONFIGS.items()}}


def sim_stream(seed: int, workdir: Path, cycles: int = 16) -> Workload:
    """One unit per pair: gisin then werner, seeds in seeded order."""
    cmds = _sim_commands(workdir)
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(cycles):
        for g, w in zip(rng.permutation(SIM_SEEDS), rng.permutation(SIM_SEEDS)):
            units.append(Unit(2, 2 * SIM_ROUNDS,
                              (cmds["gisin"][g], cmds["werner"][w])))
    return Workload(
        name="sim_stream", units=units, trace_units=SIM_TRACE_PAIRS,
        setup_argv=list(cmds["gisin"][0].argv[:2]) + [
            "--rounds", "1000", "--seed", "0", "--with-filtering"],
        sizes={"rounds": SIM_ROUNDS, "seeds_per_config": SIM_SEEDS,
               "configs": list(SIM_CONFIGS)},
        definition=_sim_definition())


def sim_reference_commands(workdir: Path) -> tuple[dict, list[Command]]:
    return _sim_definition(), [c for v in _sim_commands(workdir).values() for c in v]


def check_sim(ref: str | None, code, out: str) -> list[str]:
    """Byte-identical to the reference: the Philox draw order is a contract."""
    if code != 0:
        return [f"exit {code!r}"]
    bad = schema_errors("sim_report", json.loads(out))
    if ref is None:
        return bad + _sigma_checks(json.loads(out))
    if out != ref:
        bad.append("report differs from the reference bytes")
    return bad


# ---------------------------------------------------------------------------

SCHEMA_FOR = {"analyze": "analysis_report", "filter": "filter_report",
              "simulate": "sim_report"}
_VALIDATORS: dict = {}


def schema_errors(name: str, doc) -> list[str]:
    if name not in _VALIDATORS:
        import jsonschema
        schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
        _VALIDATORS[name] = jsonschema.validators.validator_for(schema)(schema)
    return [f"schema {name}: {e.message}"
            for e in _VALIDATORS[name].iter_errors(doc)][:3]


BY_NAME = {"sweep_grid": sweep_grid, "state_mix": state_mix,
           "sim_stream": sim_stream}
REFERENCE_COMMANDS = {"sweep_grid": sweep_reference_commands,
                      "state_mix": mix_reference_commands,
                      "sim_stream": sim_reference_commands}


def check(workload: str, key: str, ref, code, out: str) -> list[str]:
    """Problems with one distinct command's output; empty means correct."""
    if workload == "sweep_grid":
        if isinstance(ref, dict):  # the reference command raised
            if code not in _allowed_exits(ref["exit"]):
                return [f"exit {code!r}"]
            return check_sweep_cells(key, out) if code == 0 else []
        if code != 0:
            return [f"exit {code!r}"]
        return check_sweep(ref, out)
    if workload == "state_mix":
        return check_mix(key, ref, code, out)
    return check_sim(ref, code, out)


def reference_record(workload: str, key: str, code, out: str):
    """What make_reference.py stores for one command's output."""
    if workload == "state_mix":
        return mix_record(key.split(":")[0], code, out)
    if workload == "sweep_grid" and not outcome_ok(code):
        return {"exit": code}
    if code != 0:
        raise RuntimeError(f"{workload} {key}: reference command exited {code!r}")
    return out
