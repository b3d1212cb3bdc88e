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
The draws are numpy Generator's random() and integers(0, 2), read off
the bit generator's raw 64-bit words: a flag compares a word with an
integer threshold, a word gives two coin flips, and a (256, 16) table
by (top byte, row) gives an outcome, compared exactly only where a Born
bound falls in the byte's bucket. Each draw is read in slices, which give
the numbers of one call, so a block holds one int8 code per round and a
run's memory does not grow with its rounds. Every count in the report is
read from one 8x4 table of accepted rounds by (row = 4 is_test + 2 a +
b, outcome), one bincount per slice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .filtering import _filtered_state
from .metrics import _chsh, correlation_spectrum, optimal_chsh_settings, qber
from .states import _PSD_TOL, _TRACE_TOL, TwoQubitState, to_mueller

__all__ = ["SimConfig", "SimReport", "run_protocol"]

_BLOCK = 1 << 19  # draw-block length; part of the reproducibility contract
_SLICE = 1 << 14  # rounds per read of a draw; any length gives the same draws
_DROPPED, _AMBIGUOUS = 32, 33  # outcome-table keys past the 8x4 counts


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
        for name in ("rounds", "seed"):
            try:  # 2000.7 rounds would run 2000; a float seed fails in numpy
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        # the flag counts the drop draws per round: 2 or 0.5 fail mid-run
        if not isinstance(self.with_filtering, (bool, np.bool_)):
            raise ValueError("with_filtering must be a bool")
        object.__setattr__(self, "with_filtering", bool(self.with_filtering))
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seed < 0:
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
    # rows s = +1, -1 of (1, s a), columns t = +1, -1 of (1, t b)
    x = np.ones(ab.shape[:2] + (2, 4))
    x[..., 1:] = ab[:, :, None] * [[1.0], [-1.0]]
    probs = (x[0] @ m @ x[1].swapaxes(-1, -2)).reshape(-1, 4) / 4.0
    if not (probs.min() >= (_PSD_TOL - _TRACE_TOL) / p
            and np.abs(probs.sum(axis=-1) - 1.0).max() <= 2.0 * _TRACE_TOL):
        raise RuntimeError("Born probabilities inconsistent")
    return np.clip(probs, 0.0, None)


def _word_cut(p: float) -> int:
    # random() is (w >> 11) / 2**53 for a raw word w; the integer w >> 11
    # is below p 2**53 exactly when it is below ceil(p 2**53), so random()
    # < p exactly when w < this cut, which is 1 << 64 when every word is
    return min(max(math.ceil(p * (1 << 53)), 0), 1 << 53) << 11


def _coin_flips(words):
    # integers(0, 2, size=m) of numpy's Generator, as a draw of m: Lemire's
    # method on a range of 2 keeps the top bit of a uint32 half, and Philox
    # hands out a word's low half first and keeps its high half for the
    # next draw. As little-endian int32 pairs the halves are in that order.
    spare = []

    def draw(m: int) -> np.ndarray:
        w = words((m - len(spare) + 1) // 2)
        top = w.astype("<u8", copy=False).view("<i4") < 0
        if spare:
            top = np.concatenate((spare.pop(), top))
        if len(top) > m:
            spare.append(top[m:])
        return top[:m]
    return draw


def _outcome_keys(cum: np.ndarray):
    # Key 4 row + k of each round, as a function of its outcome words w and
    # row codes r, where k counts the bounds cum[:, row] below the uniform
    # and rows 8..15 (dropped) key _DROPPED. The uniform beats bound b
    # exactly when the integer w >> 11 is above B = min(floor(b 2**53),
    # 2**53). Bucket h = w >> 56 holds w >> 11 in [h 2**45, (h + 1) 2**45);
    # a row's k is the same over a bucket unless one of its B falls inside,
    # so a (256, 16) table by (h, row) gives the key, or _AMBIGUOUS for the
    # rounds then compared with B one by one.
    B = np.minimum(np.floor(cum * float(1 << 53)), float(1 << 53))
    B = B.astype(np.int64)
    least = np.arange(256, dtype=np.int64) << 45
    k, k_top = ((B[..., None] < least + d).sum(axis=0)
                for d in (0, (1 << 45) - 1))
    table = np.full((256, 16), _DROPPED, dtype=np.intp)
    table[:, :8] = np.where(k == k_top, k + 4 * np.arange(8)[:, None],
                            _AMBIGUOUS).T
    table = table.ravel()

    def keys(w: np.ndarray, r: np.ndarray) -> np.ndarray:
        idx = (w >> 56).view(np.intp)  # table index 16 h + row
        idx <<= 4
        idx |= r
        key = table.take(idx)
        amb = np.flatnonzero(key == _AMBIGUOUS)
        if len(amb):
            ra = r[amb]
            x = (w[amb] >> 11).view(np.int64)
            key[amb] = 4 * ra + (x > B[:, ra]).sum(axis=0)
        return key
    return keys


def _count_rounds(cum, p_keep: float, config: SimConfig) -> np.ndarray:
    # (8, 4) counts of accepted rounds by (row, outcome k), outcome k the
    # sign pair (+,+), (+,-), (-,+), (-,-). Every draw reads the raw words
    # of the one Philox stream that Generator.random and .integers would
    # read, in the same order, and gives the same numbers. A block holds
    # one int8 code per round, 8 drop + 4 is_test + 2 a + b, built draw by
    # draw; each slice's outcome words then give keys by the bucket table,
    # resolved exactly on the few rounds whose bucket holds a bound.
    words = np.random.Philox(config.seed).random_raw
    keep = _word_cut(p_keep)
    test = np.uint64(_word_cut(config.chsh_test_fraction))

    def dropped(m: int):  # random() >= p_keep, for no word at p_keep >= 1
        w = words(m)
        return w >= np.uint64(keep) if keep < 1 << 64 else False

    # filter uniform (when filtering), test flag, Alice's and Bob's index
    flips = _coin_flips(words)
    draws = ([dropped] * config.with_filtering
             + [lambda m: words(m) < test] + [flips] * 2)
    outcome_keys = _outcome_keys(cum)
    N = np.zeros(_AMBIGUOUS + 1, dtype=np.int64)
    left = int(config.rounds)
    while left > 0:
        n = min(_BLOCK, left)
        left -= n
        row = np.zeros(n, dtype=np.int8)
        cuts = [(s, min(s + _SLICE, n)) for s in range(0, n, _SLICE)]
        for draw in draws:
            for s, e in cuts:
                r = row[s:e]
                r += r  # r <<= 1, which numpy does not vectorise for int8
                r |= draw(e - s)
        for s, e in cuts:
            key = outcome_keys(words(e - s), row[s:e])
            N += np.bincount(key, minlength=_AMBIGUOUS + 1)
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
