"""End-to-end acceptance checks for the reference workflow.

Each test covers one numbered criterion and reports a PASS/FAIL line in
the terminal summary (see conftest). Sub-checks append to a failure list
so a single criterion shows everything that went wrong at once.
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy import optimize

from bellqkd import cli, filtering, metrics, protocol_sim, states

from conftest import (apply_filters, lorentz_filter, normal_form,
                      random_density_matrix, random_filter)

G = np.diag([1.0, -1.0, -1.0, -1.0])


def gisin(alpha, mu):
    return states.make_family(
        states.FamilySpec(variant="gisin", alpha=alpha, mu=mu))


def check(fails, ok, msg):
    if not ok:
        fails.append(msg)


def _h(x):
    """Binary entropy in bits."""
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


def _eof(c):
    """Wootters' entanglement of formation E(C) = h((1 + sqrt(1 - C^2))/2)."""
    return _h((1 + np.sqrt(1 - c * c)) / 2)


# The worked example gisin(0.9, 0.85) is
#   rho = mu |psi><psi| + (1 - mu)/2 (|00><00| + |11><11|),
#   psi = alpha |01> + beta |10>,  beta = sqrt(1 - alpha^2).
# Its targets below are closed forms in alpha and mu, not program output.
ALPHA, MU = 0.9, 0.85
BETA = np.sqrt(1 - ALPHA**2)

# Wootters' X-state concurrence: 2|rho_23| - 2 sqrt(rho_11 rho_44).
C_CLOSED = 2 * MU * ALPHA * BETA - (1 - MU)

# Normal-form filters m = diag(sqrt(beta/alpha), 1), n = diag(1, sqrt(beta/alpha))
# equalise the |01>/|10> amplitudes and the |00>/|11> weights (Verstraete,
# Dehaene & De Moor 2001). The filtered state is Bell-diagonal with weight
# w on psi+ and spectrum (w, w, 2w - 1), so lambda1 + lambda2 = 2w and its
# 2-basis QBER is (1 - w)/2.
P_CLOSED = 2 * MU * BETA**2 + (1 - MU) * BETA / ALPHA
W_CLOSED = 2 * MU * BETA**2 / P_CLOSED
R_CLOSED = P_CLOSED * (1 - 2 * _h((1 - W_CLOSED) / 2))

# The inverse pair m^-1, n^-1 (each rescaled to unit norm) is
# diag(1, sqrt(beta/alpha)) x diag(sqrt(beta/alpha), 1).
P_INVERSE = MU * (ALPHA**2 + BETA**4 / ALPHA**2) + (1 - MU) * BETA / ALPHA


# ---------------------------------------------------------------------------

def test_acceptance_1_prefilter_worked_example(record_acceptance):
    t0 = time.monotonic()
    fails = []
    spec = metrics.correlation_spectrum(gisin(0.9, 0.85))
    lam = spec.lambdas
    sq = lam[0] ** 2 + lam[1] ** 2
    sm = lam[0] + lam[1]
    check(fails, abs(sq - 0.9347) <= 5e-4,
          f"lam1^2+lam2^2 = {sq:.6f}, want 0.9347 +/- 5e-4")
    check(fails, abs(sm - 1.3669) <= 5e-4,
          f"lam1+lam2 = {sm:.6f}, want 1.3669 +/- 5e-4")
    check(fails, metrics.classify(spec) is metrics.Region.NONVIOLATING_UNUSABLE,
          f"classify = {metrics.classify(spec).value}, want NonviolatingUnusable")
    check(fails, time.monotonic() - t0 < 1.0, "runtime >= 1 s")
    record_acceptance(1, "worked example before filtering", fails)


def test_acceptance_2_postfilter_worked_example(record_acceptance):
    t0 = time.monotonic()
    fails = []
    out = filtering.filtered_key_rate(gisin(ALPHA, MU))
    lam = out.after.spectrum.lambdas
    sq = lam[0] ** 2 + lam[1] ** 2
    sm = lam[0] + lam[1]
    check(fails, abs(sq - 1.3329) <= 2e-3,
          f"filtered lam1^2+lam2^2 = {sq:.6f}, want 1.3329 +/- 2e-3")
    check(fails, abs(sm - 1.6327) <= 2e-3,
          f"filtered lam1+lam2 = {sm:.6f}, want 1.6327 +/- 2e-3")
    check(fails, abs(out.p_succ - P_CLOSED) <= 2e-3,
          f"p_succ = {out.p_succ:.6f}, want {P_CLOSED:.6f} +/- 2e-3")
    check(fails, abs(out.r_filtered - R_CLOSED) <= 5e-3,
          f"r_filtered = {out.r_filtered:.6f}, want {R_CLOSED:.6f} +/- 5e-3")
    check(fails, time.monotonic() - t0 < 1.0, "runtime >= 1 s")
    record_acceptance(2, "worked example after filtering", fails)


def test_acceptance_3_entanglement_of_formation(record_acceptance):
    fails = []
    eof = filtering.entanglement_of_formation(
        filtering.concurrence(gisin(ALPHA, MU)))
    want = _eof(C_CLOSED)
    check(fails, abs(eof - want) <= 5e-4,
          f"eof = {eof:.6f}, want {want:.6f} +/- 5e-4")
    record_acceptance(3, "worked example entanglement of formation", fails)


def test_paper_p_succ_is_the_inverse_filter_pair():
    # The paper's p_succ = 0.799 and r_filtered = 0.091 of the worked
    # example: p is that of the inverse filter pair, whose own output does
    # not violate CHSH, while r uses the spectrum of the optimal filtering.
    st = gisin(ALPHA, MU)
    out = filtering.filtered_key_rate(st)
    inv = [np.linalg.inv(f) for f in (out.filters.m1, out.filters.n1)]
    pair = filtering.FilterPair(*(f / np.linalg.norm(f, 2) for f in inv))
    filtered, p = apply_filters(st, pair)
    assert p == pytest.approx(P_INVERSE, abs=1e-9)
    assert abs(p - 0.799) <= 2e-3

    lam = metrics.correlation_spectrum(filtered).lambdas
    assert abs(lam[0] ** 2 + lam[1] ** 2 - 0.8328) <= 5e-4

    assert abs(P_INVERSE * out.after.r_min - 0.091) <= 5e-3


def test_paper_eof_is_a_truncated_concurrence():
    # The paper's EoF 0.3722 of the worked example is E at C = 0.5169...
    # truncated to 0.516, not rounded to 0.517 and not at full precision.
    truncated = np.floor(C_CLOSED * 1e3) / 1e3
    rounded = round(C_CLOSED, 3)
    assert (truncated, rounded) == (0.516, 0.517)
    eof = filtering.entanglement_of_formation
    assert abs(eof(truncated) - 0.3722) <= 5e-4
    assert abs(eof(rounded) - 0.3722) > 5e-4
    assert abs(eof(C_CLOSED) - 0.3722) > 5e-4


def test_acceptance_4_thresholds(record_acceptance):
    fails = []
    check(fails, metrics.q_crit() == (2 - np.sqrt(2)) / 4,
          f"q_crit = {metrics.q_crit()!r}, want exactly (2-sqrt(2))/4")
    qs = metrics.q_crit_symmetric()
    check(fails, abs(qs - 0.110028) <= 1e-5,
          f"q_crit_symmetric = {qs:.8f}, want 0.110028 +/- 1e-5")
    record_acceptance(4, "error-rate thresholds", fails)


def test_acceptance_5_sweep_existence(record_acceptance, tmp_path):
    t0 = time.monotonic()
    fails = []
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--family", "gisin",
                     "--alpha", "0.02:0.998:50", "--mu", "0.02:1.0:50",
                     "--out", str(out)])
    check(fails, code == 0, f"sweep exit code {code}")
    rows = list(csv.DictReader(open(out, newline="")))
    check(fails, len(rows) == 2500, f"{len(rows)} rows, want 2500")
    violating_unusable = [r for r in rows if r["region"] == "ViolatingUnusable"]
    check(fails, len(violating_unusable) >= 1,
          "no state with chsh_max > 2 and q > q_crit")
    hidden = [r for r in rows
              if r["filterable"] == "true"
              and float(r["lam_sq_sum"]) <= 1.0
              and float(r["lam_sq_sum_after"]) > 1.0
              and float(r["lam_sum_after"]) > np.sqrt(2)]
    check(fails, len(hidden) >= 1,
          "no nonviolating state whose filtered version violates with q < q_crit")
    check(fails, time.monotonic() - t0 < 30.0, "runtime >= 30 s")
    record_acceptance(5, "sweep existence claims", fails)


# -- criterion 6 helpers ----------------------------------------------------

def _fib_sphere(n):
    i = np.arange(n) + 0.5
    phi = np.pi * (1 + 5 ** 0.5) * i
    z = 1 - 2 * i / n
    r = np.sqrt(1 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_BPTS = _fib_sphere(300)


def _brute_chsh(T):
    """Settings-grid maximization with a local polish.

    For fixed b0, b1 the optimal Alice settings align with T(b0 +/- b1),
    so S = |T b0 + T b1| + |T b0 - T b1| is maximized over a sphere grid
    of Bob pairs and refined with Nelder-Mead in spherical angles.
    """
    TB = _BPTS @ T.T
    n2 = (TB * TB).sum(axis=1)
    Gm = TB @ TB.T
    plus = np.sqrt(np.maximum(n2[:, None] + n2[None, :] + 2 * Gm, 0.0))
    minus = np.sqrt(np.maximum(n2[:, None] + n2[None, :] - 2 * Gm, 0.0))
    S = plus + minus
    i, j = np.unravel_index(np.argmax(S), S.shape)

    def sph(t, p):
        return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                         np.cos(t)])

    def neg(x):
        b0, b1 = sph(x[0], x[1]), sph(x[2], x[3])
        return -(np.linalg.norm(T @ (b0 + b1)) + np.linalg.norm(T @ (b0 - b1)))

    def ang(v):
        return [np.arccos(np.clip(v[2], -1, 1)), np.arctan2(v[1], v[0])]

    res = optimize.minimize(neg, np.array(ang(_BPTS[i]) + ang(_BPTS[j])),
                            method="Nelder-Mead",
                            options={"xatol": 1e-7, "fatol": 1e-10,
                                     "maxiter": 2000})
    return max(S[i, j], -res.fun)


def _pos_filter(x):
    # (s, theta, phi) -> positive 2x2 with eigenvalues (1, exp(-|s|))
    t = np.exp(-abs(x[0]))
    n = np.array([np.sin(x[1]) * np.cos(x[2]), np.sin(x[1]) * np.sin(x[2]),
                  np.cos(x[1])])
    sig = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    f = (1 + t) / 2 * np.eye(2) + (1 - t) / 2 * sig
    return f / np.linalg.norm(f, 2)


def _filtered_chsh(state, x):
    pair = filtering.FilterPair(m1=_pos_filter(x[:3]), n1=_pos_filter(x[3:]))
    out, p = apply_filters(state, pair)
    if not p > filtering._P_FLOOR:  # the filters pass (next to) nothing
        return -4.0
    return metrics.chsh_max(metrics.correlation_spectrum(out))


def _filter_params(f):
    # invert _pos_filter up to the irrelevant left unitary
    e = f.conj().T @ f
    w, u = np.linalg.eigh(e)
    t = np.sqrt(w[0] / w[1])
    a = u[:, [1, 0]] @ np.diag([1.0, -1.0]) @ u[:, [1, 0]].conj().T
    n = np.array([a[0, 1].real, -a[0, 1].imag, a[0, 0].real])
    n /= np.linalg.norm(n)
    return [-np.log(max(t, 1e-12)), np.arccos(np.clip(n[2], -1, 1)),
            np.arctan2(n[1], n[0])]


def _boosts(x):
    # batched Lorentz boosts of positive filters; x is (3, S)
    t = np.exp(-np.abs(x[0]))
    ch = (1 + t * t) / (2 * t)
    sh = (1 - t * t) / (2 * t)
    n = np.stack([np.sin(x[1]) * np.cos(x[2]), np.sin(x[1]) * np.sin(x[2]),
                  np.cos(x[1])])
    L = np.zeros((x.shape[1], 4, 4))
    L[:, 0, 0] = ch
    L[:, 0, 1:] = (sh * n).T
    L[:, 1:, 0] = (sh * n).T
    L[:, 1:, 1:] = (np.eye(3)
                    + ((ch - 1) * n[:, None, :] * n[None, :, :]).transpose(2, 0, 1))
    return L


def _chsh_batch(M, x):
    mp = np.einsum("sij,jk,slk->sil", _boosts(x[:3]), M, _boosts(x[3:]))
    mp = mp / mp[:, 0, 0][:, None, None]
    sv = np.linalg.svd(mp[:, 1:, 1:], compute_uv=False)
    return 2 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)


def _nm(fun, x0):
    res = optimize.minimize(fun, x0, method="Nelder-Mead",
                            options={"xatol": 1e-7, "fatol": 1e-12,
                                     "maxiter": 4000})
    return -res.fun, res.x


def test_acceptance_6_brute_force_oracles(record_acceptance):
    t0 = time.monotonic()
    fails = []

    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(500):
        st = states.TwoQubitState(
            random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        mine = metrics.chsh_max(metrics.correlation_spectrum(st))
        brute = _brute_chsh(states.to_mueller(st).m[1:, 1:])
        worst = max(worst, abs(mine - brute))
    check(fails, worst <= 1e-3,
          f"chsh_max vs settings grid: worst gap {worst:.2e} > 1e-3")

    # Filter search restricted to the regime where the optimum is interior:
    # with unbounded squeeze any state can approach (never attain) S = 2 via
    # near-projector filters onto a pure product, so the global search bounds
    # the squeeze away from the degenerate limit and every grid point below
    # is checked to violate after filtering.
    rng = np.random.default_rng(79)
    de_bounds = [(0.0, 2.5), (0.0, np.pi), (-np.pi, np.pi)] * 2
    worst_beat = 0.0
    worst_find = 0.0
    for alpha in np.linspace(0.55, 0.95, 5):
        for mu in (0.83, 0.88, 0.94, 0.99):
            st = gisin(alpha, mu)
            M = states.to_mueller(st).m
            out = filtering.filtered_key_rate(st)
            mine = metrics.chsh_max(out.after.spectrum)
            check(fails, mine > 2.0, f"grid point ({alpha}, {mu}) not violating")

            def neg_vec(x):
                return -_chsh_batch(M, x)

            def neg_scalar(x):
                return -_chsh_batch(M, x[:, None])[0]

            seeded, _ = _nm(lambda x: -_filtered_chsh(st, x),
                            np.array(_filter_params(out.filters.m1)
                                     + _filter_params(out.filters.n1)))
            rand = max(_nm(lambda x: -_filtered_chsh(st, x),
                           rng.normal(scale=0.7, size=6))[0] for _ in range(3))
            de = optimize.differential_evolution(
                neg_vec, de_bounds, seed=5, maxiter=120, popsize=30,
                tol=1e-12, polish=False, vectorized=True, updating="deferred")
            _, xp = _nm(neg_scalar, de.x)
            indep = max(-de.fun, _filtered_chsh(st, xp))
            worst_beat = max(worst_beat, max(seeded, rand, indep) - mine)
            worst_find = max(worst_find, mine - indep)
    check(fails, worst_beat <= 1e-3,
          f"brute-force filters beat the optimal filters by {worst_beat:.2e}")
    check(fails, worst_find <= 1e-3,
          f"independent search falls short of the optimal filters by {worst_find:.2e}")
    check(fails, time.monotonic() - t0 < 300.0, "runtime >= 5 min")
    record_acceptance(6, "brute-force oracle agreement", fails)


def test_acceptance_7_property_suites(record_acceptance):
    fails = []

    # Lorentz invariants on every produced transform
    rng = np.random.default_rng(83)
    produced = []
    for alpha in np.linspace(0.1, 0.95, 6):
        for mu in np.linspace(0.1, 0.99, 6):
            nf = normal_form(states.to_mueller(gisin(alpha, mu)))
            produced += [nf.l1, nf.l2]
    for _ in range(100):
        produced.append(filtering._lorentz(random_filter(rng)))
    worst = 0.0
    for L in produced:
        worst = max(worst,
                    np.abs(L @ G @ L.T - G).max(),
                    abs(np.linalg.det(L) - 1.0),
                    max(0.0, 1.0 - L[0, 0]))
    check(fails, worst <= 1e-8,
          f"Lorentz invariant violation {worst:.2e} on produced transforms")

    # concurrence transformation law under local filtering
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(500):
        st = states.TwoQubitState(random_density_matrix(rng))
        pair = filtering.FilterPair(m1=random_filter(rng, 0.05),
                                    n1=random_filter(rng, 0.05))
        out, p = apply_filters(st, pair)
        lhs = filtering.concurrence(out) * p
        rhs = (filtering.concurrence(st) * abs(np.linalg.det(pair.m1))
               * abs(np.linalg.det(pair.n1)))
        worst = max(worst, abs(lhs - rhs))
    check(fails, worst <= 1e-9,
          f"concurrence law worst deviation {worst:.2e} > 1e-9")

    # state-space filtering vs Lorentz action on the Mueller matrix
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(200):
        st = states.TwoQubitState(random_density_matrix(rng))
        pair = filtering.FilterPair(m1=random_filter(rng),
                                    n1=random_filter(rng))
        out, _ = apply_filters(st, pair)
        expect = (filtering._lorentz(pair.m1)
                  @ states.to_mueller(st).m
                  @ filtering._lorentz(pair.n1).T)
        expect = expect / expect[0, 0]
        worst = max(worst, np.abs(states.to_mueller(out).m - expect).max())
    check(fails, worst <= 1e-8,
          f"Mueller-path consistency worst deviation {worst:.2e} > 1e-8")

    # double cover round trip
    rng = np.random.default_rng(31)
    worst = 1.0
    for _ in range(200):
        f = random_filter(rng, min_det=0.05)
        g = lorentz_filter(filtering._lorentz(f))
        worst = min(worst, abs(np.vdot(g, f))
                    / (np.linalg.norm(g) * np.linalg.norm(f)))
    check(fails, worst >= 1 - 1e-8,
          f"double-cover round trip overlap {worst:.12f} < 1 - 1e-8")

    record_acceptance(7, "algebraic property suites", fails)


def test_acceptance_8_monte_carlo(record_acceptance):
    fails = []

    w = states.make_family(states.FamilySpec(variant="werner", p=0.8))
    t0 = time.monotonic()
    rep = protocol_sim.run_protocol(w, protocol_sim.SimConfig(
        rounds=1_000_000, seed=7))
    dt_w = time.monotonic() - t0
    sigma = np.sqrt(0.1 * 0.9 / rep.rounds_sifted)
    check(fails, abs(rep.q_emp - 0.1) <= 3 * sigma,
          f"werner q_emp = {rep.q_emp:.6f}, want 0.1 +/- {3 * sigma:.6f}")

    t0 = time.monotonic()
    cfg = protocol_sim.SimConfig(rounds=1_000_000, seed=7, with_filtering=True)
    frep = protocol_sim.run_protocol(gisin(ALPHA, MU), cfg)
    dt_g = time.monotonic() - t0
    sig_a = np.sqrt(P_CLOSED * (1 - P_CLOSED) / frep.rounds_total)
    check(fails, abs(frep.accept_rate - P_CLOSED) <= 3 * sig_a,
          f"accept_rate = {frep.accept_rate:.6f}, "
          f"want {P_CLOSED:.6f} +/- {3 * sig_a:.6f}")
    sig_q = np.sqrt(0.0918 * (1 - 0.0918) / frep.rounds_sifted)
    check(fails, abs(frep.q_emp - 0.0918) <= 3 * sig_q,
          f"filtered q_emp = {frep.q_emp:.6f}, want 0.0918 +/- {3 * sig_q:.6f}")

    again = protocol_sim.run_protocol(gisin(ALPHA, MU), cfg)
    check(fails, again == frep, "identical seeds gave different reports")

    check(fails, dt_w < 60.0 and dt_g < 60.0,
          f"runtime {max(dt_w, dt_g):.1f} s >= 60 s for 1e6 rounds")
    record_acceptance(8, "Monte Carlo convergence and determinism", fails)
