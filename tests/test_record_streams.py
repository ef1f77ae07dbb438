"""Pinned record streams of full discovery sweeps.

The MSO guarantees are claims about the exact sequence of budgeted
executions, so these digests pin that sequence for every truth of three
small paper-suite grids and every algorithm. A change to step choice,
step order, repeat flags or learning that moves a single record fails
here, even when the sweep's MSO and ASO stay put.

Only discrete fields enter a digest -- contour, plan id, mode, epp,
outcome, learned index and repeat flag -- so the pins hold across the
Python and NumPy versions CI runs. An AlignedBound probe plan's id is
derived from its signature, so it is the same whichever tests probed
the space before; each case still builds its space on a fresh
:class:`~repro.session.RobustSession` so it stands alone.
"""

import hashlib
import json

import pytest

from repro.harness.workloads import workload
from repro.session import RobustSession

UNITS = [("2D_Q91", 8), ("3D_Q15", 6), ("4D_Q91", 5)]

ALGORITHMS = ["planbouquet", "randomized", "spillbound", "alignedbound",
              "native", "oracle"]

STREAM_DIGESTS = {
    "2D_Q91@8/alignedbound":
        "8c56a44c2297b27a9c88cb5e1edf0c3300fd1a44e5188a81ac007143d7518762",
    "2D_Q91@8/native":
        "7e206526463c29a8052f321728003f851932aa27c72d7346892f686a3194ecfa",
    "2D_Q91@8/oracle":
        "97fc56c903a23563d2737f38899cfc72cbb8b567cf6e0f229b86fa77d076856a",
    "2D_Q91@8/planbouquet":
        "a4d5da1b607868b6e849fe293c58075f75bdcebcdcbbf4899af8b78a4ccaaa82",
    "2D_Q91@8/randomized":
        "06526efe66f12e5dc8f08b7a202c084bc6e361b8f9e33e9f160eb9df1e160978",
    "2D_Q91@8/spillbound":
        "19ca707d1be9689862b95fa7137d9da3df77a388785a78f6dd0ac818fbe709a1",
    "3D_Q15@6/alignedbound":
        "fd30f850d52fdd95bf20609496bb2a48ad7d7665216fa5c2fad4376c9b37e7e3",
    "3D_Q15@6/native":
        "2259e83d4586200fc5d77a3d9eb0e6220cdc3a90cdacbbc1949af9592c565b37",
    "3D_Q15@6/oracle":
        "52d6356755ba7f34d3c835250065e78d03d764567cdecb0ef73e15fbe79b2145",
    "3D_Q15@6/planbouquet":
        "13a872729e63897acf799f31c3bae334e49c421fc13bdc08c2857670312a88df",
    "3D_Q15@6/randomized":
        "645742a2631f3a33551f3a044e72c8ef69b249cdfac8f2724422e2a96bf5df3a",
    "3D_Q15@6/spillbound":
        "40cf6d177021984841c93b681c7dc6c809d7cf3115dea3b29a4837c14edea9ab",
    "4D_Q91@5/alignedbound":
        "a0fcc6df5c8b7ca1242908f8f888a46fde39ec545197bcdb5db718125839005f",
    "4D_Q91@5/native":
        "4797dd90de716837b5f53837ef5f58ff35e424ee0c675e55ac3e8f5b1709041e",
    "4D_Q91@5/oracle":
        "eb215c9d946c8e9908ef7f1738dc3170750034ef895315b37c1845d535b26dbc",
    "4D_Q91@5/planbouquet":
        "b1c9d6a53f6d170978ce4ce7fdc8b0ae6281a02239c23092c72c4f6e54f23e27",
    "4D_Q91@5/randomized":
        "a81d20f184e7d3261605377f02a7134cb4369bd7786967d9e83b765d615b8970",
    "4D_Q91@5/spillbound":
        "603f4108cacb84576aa87fd5719eef3ed0c771b46b53ecab2c8f8eaef4f46e55",
}


def stream_digest(name, resolution, algorithm):
    """sha256 over the discrete fields of every record of a full sweep."""
    session = RobustSession()
    space, contours = session.space_and_contours(
        workload(name), resolution=resolution)
    instance = session.algorithm(algorithm, space=space, contours=contours)
    streams = []
    for qa in space.grid.indices():
        result = instance.run(qa)
        streams.append([
            [int(r.contour), int(r.plan_id), r.mode, r.epp,
             bool(r.completed),
             None if r.learned is None else int(r.learned),
             bool(r.repeat)]
            for r in result.executions])
    text = json.dumps(streams, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name,resolution", UNITS)
def test_record_stream_pinned(name, resolution, algorithm):
    key = "%s@%d/%s" % (name, resolution, algorithm)
    assert stream_digest(name, resolution, algorithm) \
        == STREAM_DIGESTS[key], key
