"""Seeded request-stream generators for the load harness.

Two classic load models:

* :class:`OpenLoopWorkload` — a Poisson process: exponential
  inter-arrival times at a fixed offered rate, independent of how the
  service behaves.  Open loops expose queueing collapse — when offered
  load exceeds capacity, queues grow and the bounded-admission shed
  rate climbs.
* :class:`ClosedLoopWorkload` — a fixed population of clients that
  each wait for their previous request (served *or* shed) before
  thinking for ``think_time_s`` and issuing the next.  Closed loops
  self-throttle, so they measure latency at sustainable load.

Both draw all randomness from one seeded generator at construction, so
a workload replayed against every execution backend offers the exact
same request stream at the exact same simulated times — a precondition
for the cross-backend digest equality the serve tests assert.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..rng import DEFAULT_SEED, ensure_rng
from .requests import Request, ScoreRequest, TopKRequest


def _seeded_rng(seed: Optional[int]) -> np.random.Generator:
    """A generator from an int seed (library default when ``None``)."""
    return ensure_rng(seed=DEFAULT_SEED if seed is None else int(seed))


def synthetic_requests(
    num_requests: int,
    num_nodes: int,
    seed: Optional[int] = None,
    topk_fraction: float = 0.2,
    k: int = 10,
) -> List[Request]:
    """A seeded mixed request stream over ``num_nodes`` nodes.

    Roughly ``topk_fraction`` of the requests are top-k
    recommendations; the rest are pairwise scores over uniformly drawn
    endpoint pairs (self-pairs allowed — the service must handle
    them).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 <= topk_fraction <= 1.0:
        raise ValueError("topk_fraction must be in [0, 1]")
    rng = _seeded_rng(seed)
    requests: List[Request] = []
    kinds = rng.random(num_requests) < topk_fraction
    endpoints = rng.integers(0, num_nodes, size=(num_requests, 2))
    for i in range(num_requests):
        if kinds[i]:
            requests.append(TopKRequest(node=int(endpoints[i, 0]), k=k))
        else:
            requests.append(ScoreRequest(u=int(endpoints[i, 0]),
                                         v=int(endpoints[i, 1])))
    return requests


class OpenLoopWorkload:
    """Poisson arrivals at ``rate_rps`` offered requests per second.

    All arrival times are drawn up front from the seeded generator;
    the service's behavior cannot perturb the offered stream (the
    defining property of an open loop).
    """

    def __init__(self, requests: List[Request], rate_rps: float,
                 seed: Optional[int] = None) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        rng = _seeded_rng(seed)
        gaps = rng.exponential(1.0 / rate_rps, size=len(requests))
        self._arrivals = [
            (float(t), req)
            for t, req in zip(np.cumsum(gaps), requests)]

    def initial(self) -> List[Tuple[float, Request]]:
        """The full pre-drawn arrival schedule."""
        return list(self._arrivals)

    def on_complete(self, request: Request, time_s: float,
                    status: str) -> List[Tuple[float, Request]]:
        """Open loops never react to completions."""
        return []


class ClosedLoopWorkload:
    """``num_clients`` clients issuing from a shared request budget.

    Each client issues one request, waits for its outcome (shed counts
    — a rejected client retries-with-new-work rather than hanging),
    thinks for ``think_time_s``, then issues the next request from the
    shared queue until the budget is exhausted.
    """

    def __init__(self, requests: List[Request], num_clients: int,
                 think_time_s: float = 0.0) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if think_time_s < 0:
            raise ValueError("think_time_s must be >= 0")
        self.num_clients = int(num_clients)
        self.think_time_s = float(think_time_s)
        self._pending = list(requests)
        self._cursor = 0   # index of the next request to issue

    def _next(self, time_s: float) -> List[Tuple[float, Request]]:
        if self._cursor == len(self._pending):
            return []
        self._cursor += 1
        return [(time_s, self._pending[self._cursor - 1])]

    def initial(self) -> List[Tuple[float, Request]]:
        """One request per client at t=0 (up to the budget)."""
        first: List[Tuple[float, Request]] = []
        for _ in range(self.num_clients):
            first.extend(self._next(0.0))
        return first

    def on_complete(self, request: Request, time_s: float,
                    status: str) -> List[Tuple[float, Request]]:
        """The finishing client thinks, then issues the next request."""
        return self._next(time_s + self.think_time_s)
