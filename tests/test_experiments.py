"""Smoke/integration tests for the experiment drivers (tiny configs)."""

import pytest

from repro.harness import experiments as exp

SMALL = ("2D_Q91", "3D_Q15")


class TestFigureDrivers:
    def test_fig8(self):
        report = exp.fig8_mso_guarantees(names=SMALL, resolution=8)
        text = report.render()
        assert "2D_Q91" in text and "3D_Q15" in text
        rows = report.tables[0][2]
        for _name, d, _rho, _pb, sb in rows:
            assert sb == pytest.approx(d * d + 3 * d)

    def test_fig9(self):
        report = exp.fig9_dimensionality(resolution=5)
        rows = report.tables[0][2]
        assert [r[0] for r in rows] == [2, 3, 4, 5, 6]
        assert [r[2] for r in rows] == [10, 18, 28, 40, 54]

    def test_fig10_11(self):
        report = exp.fig10_11_empirical(
            names=("2D_Q91",), resolution=8)
        rows = report.tables[0][2]
        name, pb_mso, sb_mso, pb_aso, sb_aso = rows[0]
        assert pb_mso >= pb_aso >= 1.0
        assert sb_mso >= sb_aso >= 1.0
        assert sb_mso <= 10 + 1e-6

    def test_fig12(self):
        report = exp.fig12_distribution("2D_Q91", resolution=8)
        rows = report.tables[0][2]
        assert sum(r[1] for r in rows) == pytest.approx(100.0)
        assert sum(r[2] for r in rows) == pytest.approx(100.0)

    def test_fig13(self):
        report = exp.fig13_ab_mso(names=("2D_Q91",), resolution=8)
        _name, sb_mso, ab_mso, lower = report.tables[0][2][0]
        assert lower == pytest.approx(6.0)
        assert ab_mso <= 10 + 1e-6


class TestTableDrivers:
    def test_table2(self):
        report = exp.table2_alignment(names=("2D_Q91",), resolution=8)
        row = report.tables[0][2][0]
        percents = row[1:5]
        assert all(0 <= p <= 100 for p in percents)
        assert list(percents) == sorted(percents)

    def test_table3(self):
        report = exp.table3_trace("2D_Q91", resolution=8)
        text = report.render()
        assert "plan" in text
        assert "sub-optimality" in text

    def test_table4(self):
        report = exp.table4_ab_penalty(
            names=("2D_Q91",), resolution=8, sweep_sample=16)
        _name, penalty = report.tables[0][2][0]
        assert penalty >= 0.0


class TestFaultSweep:
    def test_guarding_session_guards_once(self):
        from repro.session import RobustSession, set_default_session

        previous = set_default_session(RobustSession(guard=True))
        try:
            report = exp.fault_sweep("2D_Q91", rates=(0.0, 0.2),
                                     resolution=8, sweep_sample=6)
        finally:
            set_default_session(previous)
        assert report.name == ("Fault sweep: guarded-spillbound under an "
                               "unreliable substrate (2D_Q91)")

    def test_breaker_board_session_reads_like_a_plain_one(self):
        """A session's BreakerBoard is keyed by the session's spec, not
        the sweep's faulty one: sharing it across rate rows would let a
        breaker tripped at one rate fast-fail runs at the next."""
        from repro.session import RobustSession, set_default_session

        def rows(session):
            previous = set_default_session(session)
            try:
                report = exp.fault_sweep("2D_Q91", rates=(0.4, 0.0),
                                         resolution=8, sweep_sample=12)
            finally:
                set_default_session(previous)
            return report.tables[0][2]

        plain = rows(RobustSession())
        assert plain[1][3] == 0.0  # nothing degrades at rate 0
        assert rows(RobustSession(breaker=True)) == plain

    def test_explicit_guard_false_opts_out_of_the_board(self):
        from repro.session import RobustSession

        session = RobustSession(breaker=True)
        algorithm = session.algorithm("spillbound", query="2D_Q91",
                                      resolution=6, guard=False)
        assert algorithm.name == "spillbound"


class TestOtherDrivers:
    def test_wallclock(self):
        report = exp.wallclock_experiment(
            scale=0.25, resolution=8, rng=2)
        rows = {name: subopt for name, _cost, subopt, _n
                in report.tables[0][2]}
        assert rows["oracle"] == "1.00"
        assert float(rows["spillbound"]) >= 1.0

    def test_job(self):
        report = exp.job_experiment(dims=3, resolution=6)
        rows = dict((r[0], r[1]) for r in report.tables[0][2])
        assert rows["spillbound (empirical)"] <= 18 + 1e-6
        assert rows["native (worst-case over qe)"] >= 1.0

    def test_ablation_cost_ratio(self):
        report = exp.ablation_cost_ratio(
            "2D_Q91", ratios=(1.8, 2.0), resolution=8)
        rows = report.tables[0][2]
        for ratio, _m, msog, msoe, _aso in rows:
            assert msoe <= msog + 1e-6

    def test_ablation_anorexic(self):
        report = exp.ablation_anorexic(
            "2D_Q91", lambdas=(0.0, 0.2), resolution=8)
        rows = report.tables[0][2]
        # rho shrinks (weakly) as lambda grows.
        assert rows[0][1] >= rows[1][1]
