"""Correctness checks computed in the benchmark, apart from the program.

Every check states a property of the method (a ledger of commits, the
lease rule, the Lemma 5.2 intersection bound, the lease-survival
expectation) and tests the program's outputs against it. Statistical
checks are one-sided or two-sided tests at ``ALPHA``, so a healthy
program fails one about once in ten thousand runs per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special, stats

#: Significance level of every statistical check.
ALPHA = 1e-4
Z_ONE_SIDED = float(stats.norm.isf(ALPHA))
Z_TWO_SIDED = float(stats.norm.isf(ALPHA / 2.0))


@dataclass
class Check:
    """Verdict of one check, with the figures that decided it."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"  [{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class Commit:
    value: object
    start: float
    end: float


@dataclass
class LedgerResult:
    """Per-op outcomes of the commit-ledger replay of one store."""

    flagged: List[int] = field(default_factory=list)   # op indices
    expired_reads: List[int] = field(default_factory=list)
    # Lemma 5.2 accounting over gets whose newest commit was leased
    # for the whole get: (hits, misses, lost replies).
    leased_hits: int = 0
    leased_misses: int = 0
    leased_lost: int = 0
    # Gets of keys with a commit, and those not returning the newest.
    with_commit: int = 0
    not_newest: int = 0


def replay_ledger(ops: Sequence, ttl: Optional[float]) -> LedgerResult:
    """Replay one store's ops in issue order against a commit ledger.

    Each committed put/cas enters the ledger under its key and version.
    A get that returns a value must name a (version, value) pair that
    the ledger holds for its key at the get's start; since ops on one
    store run one after another, every ledger entry precedes the get,
    so the version can be no newer than the newest preceding commit.

    With a fixed lease ``ttl``, a get must not return a version whose
    commit ended a whole TTL before the get started (every replica's
    lease had run out), and gets whose newest commit stayed leased
    until the get ended feed the Lemma 5.2 miss count.
    """
    out = LedgerResult()
    ledger: Dict[object, Dict[Tuple[int, int], Commit]] = {}
    newest: Dict[object, Tuple[Tuple[int, int], Commit]] = {}
    for index, op in enumerate(ops):
        if op.raised:
            out.flagged.append(index)
            continue
        if op.kind != "get":
            if op.committed:
                commit = Commit(op.written, op.start, op.end)
                ledger.setdefault(op.key, {})[op.version] = commit
                top = newest.get(op.key)
                if top is None or top[0] < op.version:
                    newest[op.key] = (op.version, commit)
            continue
        if op.ok:
            entry = ledger.get(op.key, {}).get(op.version)
            if entry is None or entry.value != op.value:
                out.flagged.append(index)
                continue
            if ttl is not None and op.start >= entry.end + ttl:
                out.expired_reads.append(index)
                out.flagged.append(index)
                continue
        top = newest.get(op.key)
        if top is None:
            continue
        out.with_commit += 1
        if not (op.ok and op.version == top[0]):
            out.not_newest += 1
        if ttl is None or op.end > top[1].start + ttl:
            continue
        if op.lost_reply:
            out.leased_lost += 1
        elif op.ok and op.version == top[0]:
            out.leased_hits += 1
        else:
            out.leased_misses += 1
    return out


def binomial_not_above(successes: int, trials: int, p0: float) -> float:
    """One-sided p-value of ``successes`` under Binomial(trials, p0)."""
    if trials == 0:
        return 1.0
    return float(stats.binom.sf(successes - 1, trials, p0))


def cluster_ratio_z(hits: np.ndarray, trials: np.ndarray,
                    p0: float) -> Tuple[float, float, float]:
    """Ratio estimate, its cluster-robust standard error and z vs ``p0``.

    Each cluster (an advertised key) contributes ``hits`` of ``trials``;
    lookups of one key share its advertise quorum, so they are not
    independent, and the variance is taken between clusters.
    """
    total = float(trials.sum())
    ratio = float(hits.sum()) / total
    k = len(trials)
    resid = hits - ratio * trials
    var = k / max(k - 1, 1) * float((resid ** 2).sum()) / total ** 2
    se = math.sqrt(var)
    z = (ratio - p0) / se if se > 0 else (math.inf if ratio >= p0
                                          else -math.inf)
    return ratio, se, z


def expected_not_newest(times: np.ndarray, keys: np.ndarray,
                        is_read: np.ndarray, n: int, qa: int, ql: int,
                        ttl: float, churn: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-read probability of missing the newest put, for a put-only stream.

    A read of age ``a`` after its key's newest put sees each of the
    ``qa`` holders survive churn with probability ``exp(-churn a)``;
    its ``ql``-node lookup quorum misses all ``s`` survivors with the
    hypergeometric probability ``C(n-s, ql) / C(n, ql)``. Past the TTL
    every copy has lapsed, so the read misses with probability 1.
    Returns ``(probabilities, read mask of reads with a prior put)``.
    """
    n_ops = len(times)
    age = np.full(n_ops, np.nan)
    for key in np.unique(keys):
        mine = keys == key
        idx = np.flatnonzero(mine)
        writes = idx[~is_read[idx]]
        reads = idx[is_read[idx]]
        if len(writes) == 0 or len(reads) == 0:
            continue
        wt = times[writes]
        pos = np.searchsorted(wt, times[reads], side="right") - 1
        has = pos >= 0
        age[reads[has]] = times[reads[has]] - wt[pos[has]]
    eligible = is_read & ~np.isnan(age)
    a = age[eligible]
    s = np.arange(qa + 1)
    miss_given_s = stats.hypergeom(n, s, ql).pmf(0)
    # Binomial(qa, exp(-churn a)) weights in log space; ages are
    # positive, so 0 < survival < 1 for churn > 0.
    log_surv = -churn * a
    log_fail = np.log1p(-np.exp(log_surv)) if churn > 0 else None
    log_choose = (special.gammaln(qa + 1) - special.gammaln(s + 1)
                  - special.gammaln(qa - s + 1))
    if log_fail is None:
        prob = np.full(len(a), miss_given_s[qa])
    else:
        log_w = (log_choose[None, :] + s[None, :] * log_surv[:, None]
                 + (qa - s)[None, :] * log_fail[:, None])
        prob = np.exp(log_w) @ miss_given_s
    prob[a >= ttl] = 1.0
    return prob, eligible


def poisson_binomial_z(observed: int, probs: Iterable[np.ndarray]
                       ) -> Tuple[float, float, float]:
    """Expected count, its standard deviation and z of ``observed``."""
    expected = variance = 0.0
    for p in probs:
        expected += float(p.sum())
        variance += float((p * (1.0 - p)).sum())
    sd = math.sqrt(variance)
    z = (observed - expected) / sd if sd > 0 else 0.0
    return expected, sd, z
