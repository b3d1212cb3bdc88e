"""Seeded Monte Carlo for the filter-then-measure QKD protocol.

With filtering on, a round passes the optimal local filters with their
success probability p_succ, the double-click probability, and kept rounds
measure the filtered state sigma / sigma0 of the Lorentz normal form, both
as filtered_key_rate reads them; no filter is built. Both parties then
measure spin along randomly chosen directions: their two key bases, or
the optimal CHSH settings for a test subsample. Sifting keeps key rounds
with matching basis indices; Bob flips his bit in bases carrying a
negative correlation sign so that agreement is the success event.

Randomness comes from numpy's counter-based Philox generator, consumed
in blocks of fixed size with a fixed per-block draw order (filter
uniform when filtering is on, test flag, Alice index, Bob index, outcome
uniform), so a (state, config) pair reproduces its report bit for bit.
Each draw is read in slices, which give the numbers of one call, so a
block holds one int8 code per round and a run's memory does not grow
with its rounds. Every count in the report is read from one 8x4 table of
accepted rounds by (row = 4 is_test + 2 a + b, outcome), one bincount
per slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import _filtered_state
from .metrics import (_UNIT_TOL, _chsh, correlation_spectrum,
                      optimal_chsh_settings, qber)
from .states import _PSD_TOL, _TRACE_TOL, TwoQubitState, to_mueller

__all__ = ["SimConfig", "SimReport", "run_protocol"]

_BLOCK = 1 << 19  # draw-block length; part of the reproducibility contract
_SLICE = 1 << 14  # rounds per read of a draw; any length gives the same draws


@dataclass(frozen=True)
class SimConfig:
    """Protocol run parameters.

    Measurement bases are not configured: key bases come from the two
    leading singular-direction pairs of the measured state and the CHSH
    settings from :func:`optimal_chsh_settings`.
    """

    rounds: int
    seed: int
    with_filtering: bool = False
    chsh_test_fraction: float = 0.1

    def __post_init__(self):
        if int(self.rounds) < 1:
            raise ValueError("rounds must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.chsh_test_fraction < 1.0:
            raise ValueError("chsh_test_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SimReport:
    rounds_total: int
    rounds_filter_accepted: int
    rounds_sifted: int
    key_bits: int
    q_emp: float
    s_emp: float | None  # None when the test subsample misses a setting pair
    accept_rate: float
    q_analytic: float
    s_analytic: float
    p_succ_analytic: float


def _born_table(m: np.ndarray, ab: np.ndarray, p: float) -> np.ndarray:
    # p(s,t) = Tr[rho (1 + s a.sigma)/2 x (1 + t b.sigma)/2], st = ++, +-,
    # -+, --, of the state with Mueller matrix m for the unit directions a,
    # b = ab[:, k], as rows k of a (K, 4) table. Entries reach the least
    # eigenvalue of a state validate accepts (over p after norm-1 filters
    # that pass with probability p) and rows sum to its trace, each give or
    # take _TRACE_TOL of round-off; RuntimeError where they do not
    if not (np.abs(np.linalg.norm(ab, axis=-1) - 1.0) <= _UNIT_TOL).all():
        raise ValueError("measurement direction must be a unit 3-vector")
    # rows s = +1, -1 of (1, s a), columns t = +1, -1 of (1, t b)
    x = np.ones(ab.shape[:2] + (2, 4))
    x[..., 1:] = ab[:, :, None] * [[1.0], [-1.0]]
    probs = (x[0] @ m @ x[1].swapaxes(-1, -2)).reshape(-1, 4) / 4.0
    if not (probs.min() >= (_PSD_TOL - _TRACE_TOL) / p
            and np.abs(probs.sum(axis=-1) - 1.0).max() <= 2.0 * _TRACE_TOL):
        raise RuntimeError("Born probabilities inconsistent")
    return np.clip(probs, 0.0, None)


def _count_rounds(cum, p_keep: float, config: SimConfig) -> np.ndarray:
    # (8, 4) counts of accepted rounds by (row, outcome k), outcome k the
    # sign pair (+,+), (+,-), (-,+), (-,-). A block holds one int8 code per
    # round, 8 drop + 4 is_test + 2 a + b, built draw by draw and counted
    # per slice; rows 8..15 (dropped rounds) count into bins 32..63.
    rng = np.random.Generator(np.random.Philox(config.seed))
    frac = config.chsh_test_fraction
    # filter uniform (when filtering), test flag, Alice's and Bob's index
    draws = ([lambda m: rng.random(m) >= p_keep] * config.with_filtering
             + [lambda m: rng.random(m) < frac]
             + [lambda m: rng.integers(0, 2, size=m)] * 2)
    bounds = np.tile(cum, 2)
    N = np.zeros(64, dtype=np.int64)
    left = int(config.rounds)
    while left > 0:
        n = min(_BLOCK, left)
        left -= n
        row = np.zeros(n, dtype=np.int8)
        cuts = [(s, min(s + _SLICE, n)) for s in range(0, n, _SLICE)]
        for draw in draws:
            for s, e in cuts:
                r = row[s:e]
                r <<= 1
                r |= draw(e - s)
        for s, e in cuts:
            r = row[s:e]
            uo = rng.random(e - s)
            key = 4 * r
            for bound in bounds:
                key += uo > bound.take(r)
            N += np.bincount(key, minlength=64)
    return N[:32].reshape(8, 4)


def run_protocol(state: TwoQubitState, config: SimConfig) -> SimReport:
    """Simulate the protocol and report empirical QBER, CHSH and counts.

    Raises the X-form error if filtering is requested on a state without
    a diagonal normal form, and ValueError when no rounds survive
    sifting (q_emp would be undefined). The state must pass validate.
    """
    if config.with_filtering:  # X-form and p floor errors propagate
        p_keep, m, spec, _ = _filtered_state(to_mueller(state))
    else:
        p_keep, m, spec = 1.0, to_mueller(state).m, correlation_spectrum(state)
    settings = optimal_chsh_settings(spec)
    key_pairs = [(spec.alice_dirs[i], spec.bob_dirs[j])
                 for i in range(2) for j in range(2)]
    chsh_pairs = [(av, bv) for av in (settings.a0, settings.a1)
                  for bv in (settings.b0, settings.b1)]
    # row layout: key (i,j) rows 0..3, chsh (i,j) rows 4..7
    table = _born_table(m, np.swapaxes(key_pairs + chsh_pairs, 0, 1), p_keep)
    # outcome k of a row is the number of its bounds cum[0..2, row] below
    # the uniform; one contiguous column per bound gathers fastest
    cum = np.ascontiguousarray(np.cumsum(table, axis=1).T[:3])

    N = _count_rounds(cum, p_keep, config)
    accepted = int(N.sum())
    sifted = int(N[0].sum() + N[3].sum())
    if sifted == 0:
        raise ValueError("zero sifted rounds: q_emp undefined")
    # the bits differ on outcomes (+,-), (-,+); Bob's flip swaps that set
    err = np.array([0, 1, 1, 0]) ^ (np.asarray(spec.signs[:2]) < 0)[:, None]
    q_emp = int((N[[0, 3]] * err).sum()) / sifted
    cnt = N[4:].sum(axis=1)
    if cnt.min() >= 1:
        corr = N[4:] @ (1, -1, -1, 1) / cnt
        s_emp = float(corr[0] + corr[1] + corr[2] - corr[3])
    else:
        s_emp = None
    return SimReport(
        rounds_total=int(config.rounds),
        rounds_filter_accepted=accepted,
        rounds_sifted=sifted,
        key_bits=sifted,
        q_emp=float(q_emp),
        s_emp=s_emp,
        accept_rate=accepted / int(config.rounds),
        q_analytic=qber(spec, 2),
        s_analytic=_chsh(m[1:, 1:], settings),
        p_succ_analytic=float(p_keep),
    )
