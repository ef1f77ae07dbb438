"""Checks of the benchmark's own logic that need no daemon and no sweep.

Run with ``python3 -m pytest perfbench/test_workloads.py``.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


class _RefusingClient:
    """A serve client whose daemon refuses every request."""

    def __init__(self):
        self.sent = 0

    def request(self, payload):
        self.sent += 1
        return {"ok": False, "error": {"code": "overloaded"}}


def _blocks():
    while True:
        yield [("3D_Q15", "planbouquet", [0, 0, 0])] * 9


def test_fixed_loop_ends_when_every_request_fails():
    client = _RefusingClient()
    samples, refused, degraded = workloads._closed_loop(
        client, _blocks(), None, itertools.count(1),
        lambda attempted, elapsed: attempted >= 27)
    assert (samples, refused, degraded) == ([], 27, 0)
    assert client.sent == 27


def test_timed_loop_ends_when_every_request_fails():
    client = _RefusingClient()
    samples, refused, _ = workloads._closed_loop(
        client, _blocks(), None, itertools.count(1),
        lambda attempted, elapsed: elapsed >= 0.05
        and attempted >= workloads.SERVE_MIN_REQUESTS)
    assert samples == []
    assert refused == client.sent >= workloads.SERVE_MIN_REQUESTS


def test_request_stream_is_seeded_balanced_and_in_range():
    resolutions = {"3D_Q15": (7, 3), "4D_Q91": (5, 4), "5D_Q19": (4, 5)}
    one = workloads._request_stream(3, resolutions)
    two = workloads._request_stream(3, resolutions)
    for _ in range(20):
        block = next(one)
        assert block == next(two)
        assert len({(query, algorithm) for query, algorithm, _ in block}) \
            == len(workloads.SERVE_QUERIES) * len(workloads.ALGORITHMS)
        for query, _, qa in block:
            res, dims = resolutions[query]
            assert len(qa) == dims and all(0 <= i < res for i in qa)
