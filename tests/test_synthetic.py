"""Tests for synthetic exploration spaces and the Omega(D) adversary."""

import numpy as np
import pytest

from repro.algorithms.alignedbound import AlignedBound
from repro.algorithms.planbouquet import PlanBouquet
from repro.algorithms.spillbound import SpillBound
from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet
from repro.ess.synthetic import (
    SyntheticPlan,
    SyntheticSpace,
    spike_space,
    textbook_space,
)
from repro.metrics.mso import exhaustive_sweep


class TestConstruction:
    def test_pcm_validation_rejects_flat_plans(self):
        flat = SyntheticPlan("flat", lambda x, y: 0 * x + 0 * y + 5.0)
        with pytest.raises(DiscoveryError, match="PCM"):
            SyntheticSpace(2, [flat], resolution=6)

    def test_rejects_bad_spill_fraction(self):
        with pytest.raises(DiscoveryError):
            SyntheticPlan("p", lambda x: x, spill_fraction=0.0)

    def test_surface_is_lower_envelope(self):
        space = textbook_space(resolution=12)
        stack = np.stack([info.cost for info in space.plans])
        assert np.allclose(space.opt_cost, stack.min(axis=0))

    def test_query_shim(self):
        space = spike_space(3, resolution=6)
        assert space.query.dimensions == 3
        assert space.query.epp_index("e2") == 1
        with pytest.raises(DiscoveryError):
            space.query.epp_index("bogus")

    def test_constrained_probe_declines(self):
        space = textbook_space(resolution=8)
        assert space.probe_plan((0, 0), "e1") is None


class TestTextbookSpace:
    def test_multiple_plans_per_contour(self):
        space = textbook_space(resolution=24)
        contours = ContourSet(space)
        assert contours.max_density() >= 2

    def test_all_algorithms_within_bounds(self):
        space = textbook_space(resolution=12)
        contours = ContourSet(space)
        for cls in (PlanBouquet, SpillBound, AlignedBound):
            algorithm = cls(space, contours)
            sweep = exhaustive_sweep(algorithm)
            assert sweep.mso <= algorithm.mso_guarantee() + 1e-6

    def test_spill_learning_exact(self):
        space = textbook_space(resolution=16)
        sb = SpillBound(space, ContourSet(space))
        qa = (10, 12)
        result = sb.run(qa)
        for record in result.executions:
            if record.mode == "spill" and record.completed:
                dim = space.query.epp_index(record.epp)
                assert record.learned == qa[dim]


class TestSpikeAdversary:
    def test_omega_d_behaviour(self):
        """The Theorem 4.6 flavour: the adversarial family forces an
        MSO of at least D (per-dimension probing is unavoidable), and
        the incurred MSO grows strictly with dimensionality while
        remaining inside the quadratic guarantee."""
        msos = []
        for dims in (2, 3, 4):
            space = spike_space(dims, resolution=7)
            sb = SpillBound(space, ContourSet(space))
            sweep = exhaustive_sweep(sb)
            assert sweep.mso >= dims
            assert sweep.mso <= sb.mso_guarantee() + 1e-6
            msos.append(sweep.mso)
        assert msos[0] < msos[1] < msos[2]

    def test_each_plan_probes_one_dimension(self):
        space = spike_space(3, resolution=6)
        for info in space.plans:
            spillable = {name for name, _n, _s in info.spill_order}
            assert len(spillable) == 1
