"""Command-line front end: analyze, filter, simulate, and sweep.

Exit codes are a stable contract: 0 success, 1 invalid state, 2
non-filterable (X-pattern) normal form, 64 usage or input-parse error.
JSON floats carry 9 significant digits, CSV cells 6, so output files
diff cleanly across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import filtering, metrics, protocol_sim, states

EXIT_OK = 0
EXIT_INVALID_STATE = 1
EXIT_XFORM = 2
EXIT_USAGE = 64

SWEEP_COLUMNS = ["alpha", "mu", "lam_sq_sum", "lam_sum", "region",
                 "filterable", "p_succ", "lam_sq_sum_after",
                 "lam_sum_after", "r_filtered"]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; contract wants 64
        raise _CliError(EXIT_USAGE, message)


def _sig9(x: float) -> float:
    return float(f"{float(x):.9g}") + 0.0  # + 0.0 drops negative zero


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig9(obj)
    return obj


def _emit(doc: dict) -> None:
    print(json.dumps(_jsonify(doc), indent=2))


def _c2x2(f: np.ndarray):
    # complex entries as [re, im]
    return [[[float(f[i, j].real), float(f[i, j].imag)] for j in range(2)]
            for i in range(2)]


def _load_state(path: str) -> states.TwoQubitState:
    try:
        return states.load_state_file(path)
    except states.StateFileError as e:
        raise _CliError(EXIT_USAGE, f"malformed state file: {e}")


def _validated(path: str):
    """The state in ``path`` and its validity report; exit 1 if invalid."""
    st = _load_state(path)
    rep = states.validate(st)
    if not rep.ok:
        raise _CliError(EXIT_INVALID_STATE,
                        "invalid state: " + "; ".join(rep.failures))
    return st, rep


def _summary_doc(ms: filtering.MetricsSummary) -> dict:
    return {
        "spectrum": list(ms.spectrum.lambdas),
        "s_max": ms.s_max,
        "q": ms.q,
        "r_min": ms.r_min,
        "distillable": ms.distillable,
        "region": ms.region.value,
    }


def _cmd_analyze(args) -> int:
    st, rep = _validated(args.state_file)
    ms = filtering.summarize_metrics(st)
    try:
        s = metrics.optimal_chsh_settings(ms.spectrum)
        settings = {"a0": s.a0, "a1": s.a1, "b0": s.b0, "b1": s.b1}
    except ValueError:  # zero correlation block has no preferred settings
        settings = None
    ent = filtering.entanglement_report(st)
    _emit({
        "spectrum": list(ms.spectrum.lambdas),
        "s_max": ms.s_max,
        "optimal_settings": settings,
        "q_L2": ms.q,
        "q_L3": metrics.qber(ms.spectrum, 3),
        "r_min": ms.r_min,
        "region": ms.region.value,
        "concurrence": ent.concurrence,
        "eof": ent.eof,
        "validity": {
            "hermitian": rep.hermitian,
            "trace_dev": rep.trace_dev,
            "min_eig": rep.min_eig,
            "ok": rep.ok,
        },
    })
    return EXIT_OK


def _cmd_filter(args) -> int:
    st, _ = _validated(args.state_file)
    try:
        out = filtering.filtered_key_rate(st)
    except ValueError as e:  # the maximally mixed state, a vanishing p_succ
        raise _CliError(EXIT_INVALID_STATE, str(e))
    except filtering.XFormError as e:
        _emit({
            "kind": filtering.XFORM,
            "xform_params": {"a": e.a, "b": e.b, "c": e.c, "d": e.d},
            "separable": e.separable,
            "message": str(e),
        })
        return EXIT_XFORM
    _emit({
        "kind": filtering.DIAGONAL,
        "before": _summary_doc(out.before),
        "after": _summary_doc(out.after),
        "filters": {"m1": _c2x2(out.filters.m1), "n1": _c2x2(out.filters.n1)},
        "p_succ": out.p_succ,
        "r_filtered": out.r_filtered,
    })
    return EXIT_OK


def _cmd_simulate(args) -> int:
    st, _ = _validated(args.state_file)
    try:
        cfg = protocol_sim.SimConfig(
            rounds=args.rounds, seed=args.seed,
            with_filtering=args.with_filtering,
            chsh_test_fraction=args.chsh_fraction)
    except ValueError as e:
        raise _CliError(EXIT_USAGE, str(e))
    try:
        rep = protocol_sim.run_protocol(st, cfg)
    except filtering.XFormError as e:
        raise _CliError(EXIT_XFORM, str(e))
    except ValueError as e:  # trivial form, vanishing p_succ, no sifted rounds
        raise _CliError(EXIT_INVALID_STATE, str(e))
    _emit({f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)})
    return EXIT_OK


def _parse_range(text: str, lo: float, hi: float) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(EXIT_USAGE, f"range must be start:stop:count, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise _CliError(EXIT_USAGE, f"range must be start:stop:count, got {text!r}")
    if n < 1 or not (lo <= a <= b <= hi):
        raise _CliError(EXIT_USAGE,
                        f"range {text!r} outside [{lo:g}, {hi:g}] or empty")
    try:
        return np.linspace(a, b, n)
    except (ValueError, IndexError, MemoryError):  # numpy's size limits
        raise _CliError(EXIT_USAGE, f"range {text!r} has too many points")


# Cells per call of filtering._batch, written to the CSV before the next
# call, so a sweep of any size holds one chunk of states and rows. The
# temporaries of a call grow with its size: the 2,450-cell sweep in one call
# raised a fresh process's max RSS by 2.0 MiB, in calls of 256 by 0.9 MiB.
_SWEEP_CHUNK = 256


def _cmd_sweep(args) -> int:
    alphas = _parse_range(args.alpha, 0.0, 1.0)
    mus = _parse_range(args.mu, 0.0, 1.0)
    # mu leaves the family's domain only at 0, which is mus[0]: this meets
    # the first cell of the grid outside it
    for al in alphas:
        try:
            states.FamilySpec(variant="gisin", alpha=float(al),
                              mu=float(mus[0]))
        except states.StateFileError as e:
            raise _CliError(EXIT_USAGE, f"range outside family domain: {e}")
    # cell k of the grid is (alphas[k // len(mus)], mus[k % len(mus)]),
    # indexed chunk by chunk; each grid value is formatted once, and a cell
    # takes its text by index
    cells = len(alphas) * len(mus)
    al_text, mu_text = (np.array(["%.6g" % x for x in g.tolist()],
                                 dtype=object) for g in (alphas, mus))
    # rows go to a temporary file next to --out, which replaces --out only
    # once every cell is written: a failed sweep leaves --out as it was
    tmp = f"{args.out}.{os.getpid()}.part"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(SWEEP_COLUMNS) + "\r\n")
            for i in range(0, cells, _SWEEP_CHUNK):
                a, m = np.divmod(np.arange(i, min(i + _SWEEP_CHUNK, cells)),
                                 len(mus))
                out = filtering._batch(states._gisin_m(alphas[a], mus[m]))
                fh.write(_sweep_rows(al_text[a], mu_text[m], out))
        os.replace(tmp, args.out)
    except ValueError as e:  # a vanishing p_succ
        raise _CliError(EXIT_INVALID_STATE, str(e))
    except OSError as e:  # --out in a missing directory, or a directory
        raise _CliError(EXIT_USAGE, f"cannot write --out: {e}")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return EXIT_OK


# one CSV line per cell, in SWEEP_COLUMNS order: CRLF line ends and no
# quoting are the frozen byte format; alpha, mu and the region come as text
_ROW = "%s,%s,%.6g,%.6g,%s,true,%.6g,%.6g,%.6g,%.6g\r\n"
_ROW_NOT_FILTERABLE = "%s,%s,%.6g,%.6g,%s,false,,,,%.6g\r\n"
_REGION_TEXT = np.array([r.value for r in metrics.Region], dtype=object)


def _sweep_rows(al_text, mu_text, out: filtering.BatchOutcome) -> str:
    # the CSV lines of one chunk, from one template: a row's fields are
    # those of _ROW, less the after-cells where it is not filterable
    def sq_sum(lam):  # float_power rounds as the ** of one float does
        return np.float_power(lam[:, 0], 2) + np.float_power(lam[:, 1], 2)

    lb, la = out.lambdas_before, out.lambdas_after
    fields = np.empty((len(lb), 9), dtype=object)
    fields[:, 0], fields[:, 1] = al_text, mu_text
    fields[:, 4] = _REGION_TEXT[metrics._region_index(lb)]
    fields[:, [2, 3, 5, 6, 7, 8]] = np.column_stack(
        [sq_sum(lb), lb[:, 0] + lb[:, 1], out.p_succ, sq_sum(la),
         la[:, 0] + la[:, 1], out.r_filtered])
    template = "".join([_ROW if f else _ROW_NOT_FILTERABLE
                        for f in out.filterable.tolist()])
    keep = np.ones(fields.shape, dtype=bool)
    keep[~out.filterable, 5:8] = False  # the after-cells of _ROW
    return template % tuple(fields[keep].tolist())


# built once per process: parse_args keeps no state in the parser, and a
# fresh parser costs more than an in-process analyze or filter command
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="bellqkd",
                description="Two-qubit Bell-violation, filtering and QKD "
                            "analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="metrics report for a state file")
    pa.add_argument("state_file")
    pa.set_defaults(func=_cmd_analyze)

    pf = sub.add_parser("filter", help="optimal local filtering report")
    pf.add_argument("state_file")
    pf.set_defaults(func=_cmd_filter)

    ps = sub.add_parser("simulate", help="seeded protocol Monte Carlo")
    ps.add_argument("state_file")
    ps.add_argument("--rounds", type=int, required=True,
                    help="protocol rounds to sample, >= 1")
    ps.add_argument("--seed", type=int, default=0,
                    help="Philox seed, >= 0; a (state, rounds, seed, flags) "
                         "tuple gives the same report bytes (default 0)")
    ps.add_argument("--with-filtering", action="store_true",
                    help="pass each round through the optimal local filters "
                         "with probability p_succ and measure the filtered "
                         "state")
    ps.add_argument("--chsh-fraction", type=float, default=0.1,
                    help="share of rounds that measure the CHSH settings "
                         "instead of the key bases, in [0, 1) (default 0.1)")
    ps.set_defaults(func=_cmd_simulate)

    pw = sub.add_parser("sweep", help="family grid sweep to CSV")
    pw.add_argument("--family", choices=["gisin"], required=True)
    pw.add_argument("--alpha", required=True, metavar="A0:A1:N")
    pw.add_argument("--mu", required=True, metavar="M0:M1:N")
    pw.add_argument("--out", required=True)
    pw.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
