"""Pinned Table 2 and Table 4 values.

Table 2 reads AlignedBound's predicate-set-alignment test with the
whole EPP set as one part, and Table 4 folds the ``max_penalty`` extra
of sampled AlignedBound runs. These digests pin both at full precision:
Table 2's per-contour penalties for its six queries, and Table 4's
maximum penalty for three paper-suite queries over 40 sampled truths.
A change to either path that moves a single penalty fails here, even
when the rendered tables (two decimals) stay put. Unlike the record
stream digests, these cover floats, so they assume the cost arithmetic
(``np.log2`` included) rounds alike on every platform that runs them.

Each case builds its space on a fresh
:class:`~repro.session.RobustSession`: AlignedBound's constrained probes
register plans into the shared space, so a shared session would let one
case's probes reach the next.
"""

import hashlib

import pytest

from repro.algorithms import AlignedBound
from repro.harness import experiments as exp
from repro.harness.workloads import workload
from repro.session import RobustSession, set_default_session

RESOLUTION = 5

TABLE4_SAMPLE = 40

TABLE2_DIGESTS = {
    "3D_Q96":
        "107520bbe51cbd291b836612e66f20cda7ea0f4d15c371ec8c77f74bdfe7ce33",
    "4D_Q7":
        "69d9ef5ee62054e61b23ff8f50a890e3fc4e2ec9846aac751a9d05dbf27274c2",
    "4D_Q26":
        "8949da6006eb622ce4d5a8cf5d9fdfdacd5560c9af05eb6d27b72a237a96f6d1",
    "4D_Q91":
        "b9d45aa45c3b9d87b624ee2797d02cdc08236679bc2fdc1a32c5d7e1da0c6054",
    "5D_Q29":
        "846f7675baf1124fc86420bf8ab2848416900f45b4bb763e3312de3a6e2570d5",
    "5D_Q84":
        "107d37bcb5eae4529d9a3cfda43e588880d0902126f4ecd8bf652d518793e81e",
}

TABLE4_DIGESTS = {
    "3D_Q15":
        "d84bdb34d4eeef4034d77e5403f850e35bc4a51b1143e3a83510e1aaad839748",
    "4D_Q91":
        "97d722f672e12bfe20617fb793e8ea73a80969317bdd7ce4ca66db8eb6e93003",
    "5D_Q19":
        "a416ea84421fa7e1351582da48235bac88380a337ec5cb5a9239dc7d57908b4b",
}


def digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def contour_penalties(name):
    """Table 2's per-contour alignment penalties, as Python floats."""
    session = RobustSession()
    space, contours = session.space_and_contours(
        workload(name), resolution=RESOLUTION)
    return [float(p)
            for p in AlignedBound(space, contours).alignment().penalties]


def table4_max_penalty(name):
    """Table 4's row for ``name`` on a fresh default session."""
    previous = set_default_session(RobustSession())
    try:
        report = exp.table4_ab_penalty(
            names=(name,), resolution=RESOLUTION,
            sweep_sample=TABLE4_SAMPLE)
    finally:
        set_default_session(previous)
    ((_name, penalty),) = report.tables[0][2]
    return float(penalty)


@pytest.mark.parametrize("name", sorted(TABLE2_DIGESTS))
def test_table2_penalties_pinned(name):
    assert digest(contour_penalties(name)) == TABLE2_DIGESTS[name], name


@pytest.mark.parametrize("name", sorted(TABLE4_DIGESTS))
def test_table4_max_penalty_pinned(name):
    assert digest(table4_max_penalty(name)) == TABLE4_DIGESTS[name], name
