import csv
import importlib.resources
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bellqkd import cli, filtering, states

from conftest import (apply_filters, filtered,
                      filtered_nearly_product_pure_states, haar_su2,
                      random_density_matrix, random_filter, x_mixture)

RHO_X_ROWS = [[0.375, 0, 0, 0.375],
              [0, 0.25, 0, 0],
              [0, 0, 0, 0],
              [0.375, 0, 0, 0.375]]


def schema(name):
    path = importlib.resources.files("bellqkd") / "schemas" / name
    return json.loads(path.read_text())


def matrix_doc(rows):
    return {"matrix": [[[float(np.real(x)), float(np.imag(x))] for x in row]
                       for row in rows]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def singlet_file(tmp_path):
    return write(tmp_path, "singlet.json",
                 {"family": {"variant": "bell", "label": "psi-"}})


@pytest.fixture
def gisin_file(tmp_path):
    return write(tmp_path, "gisin.json",
                 {"family": {"variant": "gisin", "alpha": 0.9, "mu": 0.85}})


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_singlet(capsys, singlet_file):
    code, out, err = run(capsys, ["analyze", singlet_file])
    assert code == 0 and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, schema("analysis_report.schema.json"))
    assert list(doc) == ["spectrum", "s_max", "optimal_settings", "q_L2",
                         "q_L3", "r_min", "region", "concurrence", "eof",
                         "validity"]
    assert doc["s_max"] == 2.82842712
    assert abs(doc["q_L2"]) < 1e-12
    assert abs(doc["r_min"] - 1.0) < 1e-12
    assert doc["region"] == "ViolatingUsable"
    assert doc["concurrence"] == 1.0
    assert doc["validity"]["ok"] is True


@pytest.mark.parametrize("doc", [
    {"family": {"variant": "werner", "p": 0}},
    matrix_doc(np.diag([0.5, 0.5, 0, 0])),  # |0><0| x I/2
], ids=["werner-0", "product"])
def test_analyze_without_correlations_prints_null_settings(capsys, tmp_path,
                                                           doc):
    """A zero correlation block has no preferred CHSH settings: the report
    says null, and stays schema-valid."""
    code, out, err = run(capsys, ["analyze", write(tmp_path, "s.json", doc)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, schema("analysis_report.schema.json"))
    assert doc["optimal_settings"] is None and doc["s_max"] == 0.0


def test_analyze_gisin(capsys, gisin_file):
    code, out, _ = run(capsys, ["analyze", gisin_file])
    assert code == 0
    doc = json.loads(out)
    lam = doc["spectrum"]
    assert abs(lam[0] ** 2 + lam[1] ** 2 - 0.9347) < 5e-4
    assert doc["region"] == "NonviolatingUnusable"
    assert doc["s_max"] < 2.0
    s = doc["optimal_settings"]
    for key in ("a0", "a1", "b0", "b1"):
        v = s[key]
        assert abs(math.fsum(x * x for x in v) - 1.0) < 1e-7


def test_analyze_invalid_state(capsys, tmp_path):
    path = write(tmp_path, "bad.json", matrix_doc(
        [[0.45, 0, 0, 0], [0, 0.45, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    code, out, err = run(capsys, ["analyze", path])
    assert code == 1
    assert out == ""
    assert "trace" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == 64 and "error:" in err


def test_analyze_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(p)])
    assert code == 64 and "JSON" in err


@pytest.mark.parametrize("command", ["analyze", "filter"])
def test_non_utf8_state_file(capsys, tmp_path, command):
    p = tmp_path / "latin.json"
    p.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, [command, str(p)])
    assert code == 64 and out == ""
    assert err.startswith("error: malformed state file: ")


@pytest.mark.parametrize("doc, key", [
    ({"family": {"variant": "bell", "label": "psi-"}, "oops": 1}, "oops"),
    # white noise comes only from the top-level "depolarize"
    ({"family": {"variant": "werner", "p": 0.5, "depolarize_p": 0.5}},
     "depolarize_p"),
], ids=["top-level", "family"])
def test_analyze_unknown_keys(capsys, tmp_path, doc, key):
    path = write(tmp_path, "extra.json", doc)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 64 and out == "" and key in err


@pytest.mark.parametrize("doc", [
    {"family": {"variant": "gisin", "alpha": "x", "mu": 0.5}},
    {"family": {"variant": "gisin", "alpha": 0.5, "mu": [0.5]}},
    {"family": {"variant": "werner", "p": "0.5"}},
    {"family": {"variant": "werner", "p": True}},
    {"family": {"variant": "werner", "p": 0.5}, "depolarize": True},
    # nor is a family, a label or the whole document anything else
    {"family": 3},
    {"family": {"variant": "bell", "label": ["phi+"]}},
    [{"family": {"variant": "bell", "label": "phi+"}}],
])
def test_non_number_family_parameters_exit_64(capsys, tmp_path, doc):
    path = write(tmp_path, "state.json", doc)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 64 and out == ""
    assert err.startswith("error: malformed state file: ")


@pytest.mark.parametrize("command", ["analyze", "filter"])
@pytest.mark.parametrize("entry", [
    "Infinity", "-Infinity", "NaN", '"0.0"', "false",
    pytest.param("1" + "0" * 400, id="huge-int")])
def test_non_number_matrix_entries_exit_64(capsys, tmp_path, command, entry):
    text = json.dumps(matrix_doc(np.eye(4) / 4)).replace("0.0", entry, 1)
    assert entry in text
    p = tmp_path / "state.json"
    p.write_text(text)
    code, out, err = run(capsys, [command, str(p)])
    assert code == 64 and out == ""
    assert err.startswith("error: malformed state file: ")


@pytest.mark.parametrize("command", [["analyze"], ["filter"],
                                     ["simulate", "--rounds", "100"]])
def test_huge_matrix_entries_exit_1(capsys, tmp_path, command):
    """Finite entries near the largest float give an invalid state, not a
    traceback: validate's Hermitized matrix must not overflow."""
    rho = np.eye(4) / 4
    rho[0, 1] = rho[1, 0] = 1e308
    path = write(tmp_path, "huge.json", matrix_doc(rho))
    code, out, err = run(capsys, [command[0], path, *command[1:]])
    assert code == 1 and out == ""
    assert err.startswith("error: invalid state: ")
    assert "negative eigenvalue" in err


# ---------------------------------------------------------------------------
# filter

def test_filter_gisin(capsys, gisin_file):
    code, out, _ = run(capsys, ["filter", gisin_file])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("filter_report.schema.json"))
    assert doc["kind"] == "Diagonal"
    lam = doc["after"]["spectrum"]
    assert abs(lam[0] + lam[1] - 1.632763174576239) < 1e-6
    assert abs(doc["p_succ"] - 0.395648316) < 1e-9
    assert abs(doc["r_filtered"] - 0.0455153388) < 1e-9
    assert doc["before"]["region"] == "NonviolatingUnusable"
    assert doc["after"]["region"] == "ViolatingUsable"
    assert doc["after"]["distillable"] is True
    # filters serialize as 2x2 of [re, im]
    m1 = doc["filters"]["m1"]
    assert len(m1) == 2 and len(m1[0]) == 2 and len(m1[0][0]) == 2


def test_filter_bell_diagonal_identity(capsys, tmp_path):
    path = write(tmp_path, "werner.json",
                 {"family": {"variant": "werner", "p": 0.9}})
    code, out, _ = run(capsys, ["filter", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["p_succ"] == 1.0
    assert doc["before"]["spectrum"] == doc["after"]["spectrum"]
    m1 = doc["filters"]["m1"]
    assert m1 == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_filter_maximally_mixed(capsys, tmp_path):
    path = write(tmp_path, "mixed.json", matrix_doc(
        [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]))
    for argv in (["filter", path],
                 ["simulate", path, "--rounds", "100", "--with-filtering"]):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert "normal form undefined/trivial" in err


def test_filter_xform(capsys, tmp_path):
    path = write(tmp_path, "x.json", matrix_doc(RHO_X_ROWS))
    code, out, err = run(capsys, ["filter", path])
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, schema("filter_report.schema.json"))
    assert doc["kind"] == "XForm"
    p = doc["xform_params"]
    assert abs(p["a"] - 1.0) < 1e-9
    assert abs(p["b"] - 0.25) < 1e-9
    assert abs(p["c"] + 0.25) < 1e-9
    assert abs(p["d"] + 0.75) < 1e-9
    assert abs((p["a"] + p["c"]) * (p["a"] - p["b"]) - 0.5625) < 1e-9
    assert doc["separable"] is False


def test_filter_pure_products_exit_2(capsys, tmp_path):
    """Random complex pure products are separable X forms, never a crash."""
    rng = np.random.default_rng(67)
    for i in range(300):
        a, b = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in "ab")
        v = np.kron(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        path = write(tmp_path, f"prod{i}.json",
                     matrix_doc(np.outer(v, v.conj())))
        code, out, _ = run(capsys, ["filter", path])
        assert code == 2, i
        doc = json.loads(out)
        assert doc["separable"] is True
        assert doc["xform_params"] == {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}
        code, _, err = run(capsys, ["simulate", path, "--rounds", "100",
                                    "--with-filtering"])
        assert code == 2 and err.startswith("error: "), i


def test_filter_locally_filtered_x_states_exit_2(capsys, tmp_path):
    """Local filters keep a state X-patterned: exit 2, never a traceback."""
    rng = np.random.default_rng(73)
    for i in range(20):
        rho = filtered(x_mixture(rng.uniform(0.05, 0.95), 1 + i % 2),
                       random_filter(rng, 0.05), random_filter(rng, 0.05))
        path = write(tmp_path, f"x{i}.json", matrix_doc(rho))
        code, out, _ = run(capsys, ["filter", path])
        assert code == 2, i
        doc = json.loads(out)
        jsonschema.validate(doc, schema("filter_report.schema.json"))
        assert doc["kind"] == "XForm"
        assert doc["separable"] is False
        code, _, err = run(capsys, ["simulate", path, "--rounds", "100",
                                    "--with-filtering"])
        assert code == 2 and err.startswith("error: "), i


def test_filter_filtered_nearly_product_pure_states_exit_in_contract(
        capsys, tmp_path):
    """Filtered pure, nearly product states get filters: p_succ is the
    optimal single-copy concentration 2 lam_min^2 (Vidal, PRL 83, 1046,
    1999) and the filters whiten the marginals."""
    rhos = filtered_nearly_product_pure_states(np.random.default_rng(3), 10)
    for i, rho in enumerate(rhos):
        path = write(tmp_path, f"s{i}.json", matrix_doc(rho))
        code, out, err = run(capsys, ["filter", path])
        assert code == 0 and err == "", i
        doc = json.loads(out)
        psi = np.linalg.eigh(rho)[1][:, -1]
        lam_min = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)[-1]
        assert abs(doc["p_succ"] / (2.0 * lam_min ** 2) - 1.0) < 1e-6, i
        # the report rounds the filters to 9 digits: whiten with the library's
        st = states.TwoQubitState(rho)
        pair = filtering.filtered_key_rate(st).filters
        mo = states.to_mueller(apply_filters(st, pair)[0]).m
        assert max(np.abs(mo[0, 1:]).max(), np.abs(mo[1:, 0]).max()) <= 1e-7, i
        # the simulator samples the filtered state, whose Born entries carry
        # the boosts' round-off: an answer, never a traceback
        code, _, err = run(capsys, ["simulate", path, "--with-filtering",
                                    "--rounds", "2000"])
        assert code in (0, 1) and (code == 0 or err.startswith("error: ")), i


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic_output(capsys, singlet_file):
    argv = ["simulate", singlet_file, "--rounds", "20000", "--seed", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    jsonschema.validate(doc, schema("sim_report.schema.json"))
    assert doc["rounds_total"] == 20000
    assert doc["q_emp"] == 0.0
    assert doc["accept_rate"] == 1.0


def test_simulate_with_filtering(capsys, gisin_file):
    code, out, _ = run(capsys, ["simulate", gisin_file, "--rounds", "50000",
                                "--seed", "9", "--with-filtering"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("sim_report.schema.json"))
    assert doc["rounds_filter_accepted"] < doc["rounds_total"]
    assert abs(doc["p_succ_analytic"] - 0.395648316) < 1e-9
    assert abs(doc["accept_rate"] - 0.3956) < 0.01


SIMULATE_FROZEN = """{
  "rounds_total": 20000,
  "rounds_filter_accepted": 7853,
  "rounds_sifted": 3523,
  "key_bits": 3523,
  "q_emp": 0.0911155265,
  "s_emp": 2.28877537,
  "accept_rate": 0.39265,
  "q_analytic": 0.0918092064,
  "s_analytic": 2.30907583,
  "p_succ_analytic": 0.395648316
}
"""


def test_simulate_bytes_frozen(capsys, gisin_file):
    """The report of a filtered run, byte for byte: field order, 9
    significant digits and the draws of seed 9."""
    code, out, err = run(capsys, ["simulate", gisin_file, "--rounds", "20000",
                                  "--seed", "9", "--with-filtering"])
    assert code == 0 and err == ""
    assert out == SIMULATE_FROZEN


@pytest.mark.parametrize("eps", [1e-11, 5e-10, 9e-10])
def test_simulate_states_validate_accepts(capsys, tmp_path, eps):
    """diag(1 + eps, 0, 0, -eps) passes validate, whose eigenvalue bound is
    -1e-9, so its Born entries down to -eps are the simulator's too."""
    rho = np.diag([1 + eps, 0, 0, -eps])
    path = write(tmp_path, "s.json", matrix_doc(rho))
    code, out, err = run(capsys, ["simulate", path, "--rounds", "2000"])
    assert code == 0 and err == ""
    jsonschema.validate(json.loads(out), schema("sim_report.schema.json"))


def test_simulate_xform_exit(capsys, tmp_path):
    path = write(tmp_path, "x.json", matrix_doc(RHO_X_ROWS))
    code, _, err = run(capsys, ["simulate", path, "--rounds", "100",
                                "--with-filtering"])
    assert code == 2


def test_simulate_bad_rounds(capsys, singlet_file):
    code, _, err = run(capsys, ["simulate", singlet_file, "--rounds", "0"])
    assert code == 64
    code, _, err = run(capsys, ["simulate", singlet_file, "--rounds", "100",
                                "--chsh-fraction", "1.5"])
    assert code == 64
    code, out, err = run(capsys, ["simulate", singlet_file, "--rounds", "100",
                                  "--seed", "-1"])
    assert code == 64 and out == "" and "seed" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 64


def test_missing_arguments(capsys):
    code, _, err = run(capsys, ["simulate"])
    assert code == 64


# ---------------------------------------------------------------------------
# sweep

def test_sweep_gisin_grid(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.5:0.9:5", "--mu", "0.85:0.85:1",
                              "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == cli.SWEEP_COLUMNS
    assert len(rows) == 5
    hit = [r for r in rows if r["alpha"] == "0.9" and r["mu"] == "0.85"]
    assert len(hit) == 1
    row = hit[0]
    assert row["region"] == "NonviolatingUnusable"
    assert row["filterable"] == "true"
    assert abs(float(row["lam_sq_sum"]) - 0.9347) < 5e-4
    assert abs(float(row["lam_sum_after"]) - 1.63276) < 1e-4
    assert abs(float(row["r_filtered"]) - 0.0455153) < 1e-6
    assert float(row["lam_sq_sum_after"]) > 1.0


def test_sweep_boundary_states_not_filterable(capsys, tmp_path):
    # mu -> 1 keeps gisin Bell-diagonal-like only at special points; the
    # pure-state corner alpha ~ 1 stays rank one and must not crash the sweep
    out_path = tmp_path / "corner.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.02:0.998:8", "--mu", "0.02:1.0:8",
                              "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    for r in rows:
        if r["filterable"] == "false":
            assert r["p_succ"] == ""
            assert float(r["r_filtered"]) == 0.0


def test_sweep_pure_row(capsys, tmp_path):
    # mu = 1 is the pure state; a one-sided filter gives 2 min(alpha^2, beta^2)
    out_path = tmp_path / "pure.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.002:0.002:1", "--mu", "1:1:1",
                              "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["filterable"] == "true"
    assert float(row["p_succ"]) == 8e-06
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.1:0.9:5", "--mu", "1:1:1",
                              "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for r in rows:
        al = float(r["alpha"])
        assert r["filterable"] == "true"
        assert math.isclose(float(r["p_succ"]), 2 * min(al * al, 1 - al * al),
                            rel_tol=1e-5)


def test_sweep_bad_range(capsys, tmp_path):
    # counts past numpy's size limits fail before anything is allocated
    for alpha in ("nope", "0.1:0.9:x", "0.9:0.1:3",
                  "0.1:0.2:100000000000000000000",
                  "0.1:0.2:9223372036854775808"):
        code, _, err = run(capsys, ["sweep", "--family", "gisin",
                                    "--alpha", alpha, "--mu", "0.5:0.9:3",
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 64 and "range" in err, alpha


def test_sweep_out_of_domain(capsys, tmp_path):
    code, _, err = run(capsys, ["sweep", "--family", "gisin",
                                "--alpha", "0:1:5", "--mu", "0.5:0.9:3",
                                "--out", str(tmp_path / "x.csv")])
    assert code == 64


def test_sweep_chunks_do_not_show(capsys, tmp_path):
    """391 cells, no multiple of the chunk size, equal 23 one-alpha sweeps."""
    assert 391 % cli._SWEEP_CHUNK
    grid = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.01:0.99:23",
                              "--mu", "0.05:1.0:17", "--out", str(grid)])
    assert code == 0
    rows = []
    for al in map(repr, np.linspace(0.01, 0.99, 23).tolist()):
        one = tmp_path / "one.csv"
        code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                                  "--alpha", f"{al}:{al}:1",
                                  "--mu", "0.05:1.0:17", "--out", str(one)])
        assert code == 0
        header, *body = one.read_text().splitlines(keepends=True)
        rows += body
    assert grid.read_text() == header + "".join(rows)


def test_sweep_memory_does_not_grow_with_cells(capsys, tmp_path):
    """Each chunk takes its cells' indices from a range of its own, so a
    sweep holds one chunk of cells, states and rows at a time: the traced
    peaks of a 2,500-cell and a 90,000-cell sweep differ by less than
    256 KiB (an index grid over every cell, 16 B each, adds 1.4 MiB)."""
    peaks = []
    for n in (50, 300):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                                      "--alpha", f"0.002:0.998:{n}",
                                      "--mu", f"0.01:1:{n}",
                                      "--out", str(tmp_path / "grid.csv")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] - peaks[0] < 256 * 2 ** 10, peaks


def test_sweep_unresolved_cell_exits_1(capsys, tmp_path, monkeypatch):
    """A cell whose p_succ is at or below the p floor ends the sweep with
    exit 1 and a message, leaves a file already at --out as it was and
    leaves no temporary file. No Gisin cell has p_succ that small, so the
    floor is raised to 2; alpha = 1/sqrt(2) makes a Bell-diagonal cell,
    whose p_succ of 1 the batch reads off its identity form."""
    monkeypatch.setattr(filtering, "_P_FLOOR", 2.0)
    al = repr(2 ** -0.5)
    out_path = tmp_path / "x.csv"
    out_path.write_text("kept\n")
    code, _, err = run(capsys, ["sweep", "--family", "gisin",
                                "--alpha", f"{al}:{al}:1", "--mu", "0.5:0.5:1",
                                "--out", str(out_path)])
    assert code == 1
    assert err == "error: vanishing success probability\n"
    assert out_path.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [out_path]


SWEEP_FROZEN = (
    "alpha,mu,lam_sq_sum,lam_sum,region,filterable,p_succ,lam_sq_sum_after,"
    "lam_sum_after,r_filtered\r\n"
    "0.3,0.55,0.198198,0.6296,NonviolatingUnusable,true,0.240518,0.338847,"
    "0.823222,0\r\n"
    "0.3,0.7,0.321048,0.801309,NonviolatingUnusable,true,0.220346,0.653977,"
    "1.14366,0\r\n"
    "0.3,0.85,0.726691,1.18651,NonviolatingUnusable,true,0.200173,1.16843,"
    "1.52868,0\r\n"
    "0.3,1,1.3276,1.57236,ViolatingUsable,true,0.18,2,2,0.18\r\n"
    "0.6,0.55,0.557568,1.056,NonviolatingUnusable,true,0.7335,0.582935,"
    "1.07975,0\r\n"
    "0.6,0.7,0.903168,1.344,NonviolatingUnusable,true,0.729,0.955952,"
    "1.38272,0\r\n"
    "0.6,0.85,1.33171,1.632,ViolatingUsable,true,0.7245,1.42711,1.68944,"
    "0.153873\r\n"
    "0.6,1,1.9216,1.96,ViolatingUsable,true,0.72,2,2,0.72\r\n"
    "0.9,0.55,0.372438,0.863062,NonviolatingUnusable,true,0.426945,0.479268,"
    "0.979049,0\r\n"
    "0.9,0.7,0.603288,1.09844,NonviolatingUnusable,true,0.411297,0.836533,"
    "1.29347,0\r\n"
    "0.9,0.85,0.934771,1.36691,NonviolatingUnusable,true,0.395648,1.33296,"
    "1.63276,0.0455153\r\n"
    "0.9,1,1.6156,1.7846,ViolatingUsable,true,0.38,2,2,0.38\r\n")


def test_sweep_bytes_frozen(capsys, tmp_path):
    """The CSV bytes of a small grid with the pure mu = 1 row: CRLF line
    ends, no quoting, 6 significant digits."""
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.3:0.9:3", "--mu", "0.55:1:4",
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == SWEEP_FROZEN.encode()


def test_sweep_rows_from_pauli_coefficients(capsys, tmp_path):
    """The sweep evaluates its cells from the Gisin Pauli coefficients, with
    no density matrix between them and M; on the 50 x 50 grid, with the
    pure mu = 1 row and the (0.002, 1) edge cell, its CSV equals byte for
    byte the rows written from filtered_key_rate_batch of the cells'
    density matrices."""
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.002:0.998:50",
                              "--mu", "0.01:1:50", "--out", str(out_path)])
    assert code == 0
    alphas, mus = np.linspace(0.002, 0.998, 50), np.linspace(0.01, 1.0, 50)
    al, mu = (g.ravel() for g in np.meshgrid(alphas, mus, indexing="ij"))
    assert (0.002, 1.0) in zip(al.tolist(), mu.tolist())
    out = filtering.filtered_key_rate_batch(states._gisin_rho(al, mu))
    text = [np.array([f"{x:.6g}" for x in g.tolist()], dtype=object)
            for g in (al, mu)]
    want = ",".join(cli.SWEEP_COLUMNS) + "\r\n" + cli._sweep_rows(*text, out)
    assert out_path.read_bytes() == want.encode()


def test_sweep_writes_nothing_to_stderr(tmp_path):
    """The 50 x 50 grid, whose pure mu = 1 row keeps the eigenspace route
    while every other cell takes the closed forms, leaves stderr empty: no
    numpy warning from the masked rows of either route."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bellqkd", "sweep", "--family", "gisin",
         "--alpha", "0.002:0.998:50", "--mu", "0.01:1:50",
         "--out", str(tmp_path / "grid.csv")],
        cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""


def test_sweep_rows_not_filterable(capsys, tmp_path, monkeypatch):
    """Cells that are not filterable leave the three after-cells empty. No
    Gisin cell is one, so the grid's Mueller matrices are swapped for
    those of an X state and the maximally mixed state among filterable
    ones; the expected bytes come from csv.writer with f"{x:.6g}" cells."""
    stack = np.array([RHO_X_ROWS, np.eye(4) / 4,
                      states._gisin_rho(0.9, 0.85), x_mixture(0.6, 1),
                      states._gisin_rho(0.3, 1.0)], dtype=complex)
    monkeypatch.setattr(states, "_gisin_m",
                        lambda alpha, mu: states._mueller(stack))
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, ["sweep", "--family", "gisin",
                              "--alpha", "0.1:0.9:5", "--mu", "0.5:0.5:1",
                              "--out", str(out_path)])
    assert code == 0
    out = filtering.filtered_key_rate_batch(stack)
    assert out.filterable.tolist() == [False, False, True, False, True]
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(cli.SWEEP_COLUMNS)
    for k, al in enumerate(np.linspace(0.1, 0.9, 5).tolist()):
        lb, la = out.lambdas_before[k].tolist(), out.lambdas_after[k].tolist()
        after = ([out.p_succ[k], la[0] ** 2 + la[1] ** 2, la[0] + la[1]]
                 if out.filterable[k] else None)
        writer.writerow([f"{al:.6g}", f"{0.5:.6g}",
                         f"{lb[0] ** 2 + lb[1] ** 2:.6g}",
                         f"{lb[0] + lb[1]:.6g}", out.region_before[k].value,
                         "true" if out.filterable[k] else "false",
                         *([f"{x:.6g}" for x in after] if after else
                           ["", "", ""]),
                         f"{out.r_filtered[k]:.6g}"])
    assert out_path.read_bytes() == want.getvalue().encode()
    assert b",false,,,,0\r\n" in out_path.read_bytes()


@pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
def test_sweep_unwritable_out_exits_64(capsys, tmp_path, where):
    """An --out that cannot be written ends the sweep with exit 64, leaves
    an existing --out as it was and leaves no temporary file."""
    out_path = tmp_path / ("x.csv" if where == "is_dir" else "gone/x.csv")
    if where == "is_dir":
        out_path.mkdir()
        (out_path / "kept").write_text("kept\n")
    code, out, err = run(capsys, ["sweep", "--family", "gisin",
                                  "--alpha", "0.5:0.9:3", "--mu", "0.5:0.5:1",
                                  "--out", str(out_path)])
    assert code == 64 and out == ""
    assert err.startswith("error: cannot write --out: ")
    if where == "is_dir":
        assert list(tmp_path.iterdir()) == [out_path]
        assert (out_path / "kept").read_text() == "kept\n"
    else:
        assert list(tmp_path.iterdir()) == []


def test_cached_parser_carries_no_state(capsys, tmp_path, gisin_file):
    """The parser is built once per process; the same commands in two orders
    give the same exit codes and output, so no call leaks into the next."""
    sim = ["simulate", gisin_file, "--rounds", "3000", "--seed", "5"]
    out_csv = str(tmp_path / "grid.csv")
    commands = [
        ["simulate", gisin_file, "--rounds", "0"],
        sim + ["--with-filtering", "--chsh-fraction", "0.3"],
        sim,
        ["analyze", gisin_file],
        ["filter", gisin_file],
        ["sweep", "--family", "gisin", "--alpha", "0.5:0.9:3",
         "--mu", "0.5:0.9:2", "--out", out_csv],
    ]

    def results(order):
        cli._build_parser.cache_clear()
        got = {}
        for i in order:
            code, out, err = run(capsys, commands[i])
            if commands[i][0] == "sweep":
                out += Path(out_csv).read_text()
            got[i] = (code, out, err)
        assert cli._build_parser.cache_info().misses == 1
        return got

    forward = results(range(len(commands)))
    backward = results(reversed(range(len(commands))))
    assert backward == forward
    assert [forward[i][0] for i in range(len(commands))] == [64, 0, 0, 0, 0, 0]
    assert forward[1][1] != forward[2][1]


def test_python_m_bellqkd_help():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "bellqkd", "--help"],
                          cwd=src, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: bellqkd" in proc.stdout


# ---------------------------------------------------------------------------
# the exit contract

def contract_states(rng, n):
    """Near-X mixtures lam |Phi+><Phi+| + (1 - lam)|00><00| plus 1e-7 of a
    random state, alternating with Werner, Gisin and random states of rank
    1-4 under Haar-random local unitaries."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            lam = rng.uniform(0.05, 0.95)
            rho = np.zeros((4, 4), dtype=complex)
            rho[np.ix_([0, 3], [0, 3])] = lam / 2.0
            rho[0, 0] += 1.0 - lam
            out.append((rho + 1e-7 * random_density_matrix(rng)) / (1 + 1e-7))
            continue
        kind = i // 2 % 3
        if kind == 0:
            rho = states.make_family(states.FamilySpec(
                variant="werner", p=rng.uniform(0.0, 1.0))).rho
        elif kind == 1:
            rho = states.make_family(states.FamilySpec(
                variant="gisin", alpha=rng.uniform(0.01, 0.99),
                mu=rng.uniform(0.01, 1.0))).rho
        else:
            rho = random_density_matrix(rng, rank=1 + i // 2 % 4)
        k = np.kron(haar_su2(rng), haar_su2(rng))
        out.append(k @ rho @ k.conj().T)
    return out


def test_every_command_exits_in_contract(capsys, tmp_path):
    """analyze, filter and simulate answer every valid state with exit 0, 1
    or 2, never an exception: near-X states sit on the Diagonal/XForm
    boundary, rotated states off the axes the normal form aligns."""
    rng = np.random.default_rng(101)
    for i, rho in enumerate(contract_states(rng, 40)):
        path = write(tmp_path, f"c{i}.json", matrix_doc(rho))
        for argv in (["analyze", path], ["filter", path],
                     ["simulate", path, "--with-filtering", "--rounds",
                      "2000"]):
            code, _, _ = run(capsys, argv)
            assert code in (0, 1, 2), (i, argv[0], code)
