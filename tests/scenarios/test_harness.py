"""The coverage harness: per-cell grading, stress runners, report stability."""

import pytest

from repro.scenarios import (
    CoverageReport,
    ScenarioCell,
    build_scenario,
    enumerate_grid,
    render_grid,
    report_to_json,
    run_cell,
    run_grid,
)
from repro.scenarios import harness
from repro.scenarios.stress import append_rows, run_append_cell


def cell(ku="KK", hops=1, intent="enrich", entity_class="subject", relation="custody"):
    return ScenarioCell(
        endpoint_known=ku[0] == "K",
        relation_known=ku[1] == "K",
        hops=hops,
        intent=intent,
        entity_class=entity_class,
        relation_type=relation,
    )


class TestRunCell:
    def test_kk_enrich_converges_in_one_turn(self):
        result = run_cell(build_scenario(cell(), seed=7))
        assert result.converged, result.detail
        assert result.turns == 1
        assert result.detail == ""

    def test_uk_walk_converges_in_multiple_turns(self):
        result = run_cell(build_scenario(cell(ku="UK", hops=2), seed=7))
        assert result.converged, result.detail
        assert result.turns > 1  # opener + walk before the final request

    def test_uu_discover_converges(self):
        result = run_cell(
            build_scenario(cell(ku="UU", hops=1, intent="discover"), seed=7)
        )
        assert result.converged, result.detail

    def test_checks_are_graded_independently(self):
        result = run_cell(build_scenario(cell(), seed=7))
        assert result.satisfied and result.retrieved_ok
        assert result.aligned_ok and result.rows_ok and result.service_ok


class TestStressCells:
    def test_noisy_twins_do_not_derail_convergence(self):
        result = run_cell(build_scenario(cell(ku="KU", hops=2), seed=7, stress="noisy"))
        assert result.converged, result.detail

    def test_drift_is_applied_and_survived(self):
        scenario = build_scenario(cell(ku="KU", hops=1), seed=7, stress="drift")
        result = run_cell(scenario)
        assert scenario.drift.applied  # the hook really renamed mid-session
        assert result.converged, result.detail
        assert result.turns > 1

    def test_append_restart_converges_on_grown_lake(self, tmp_path):
        scenario = build_scenario(cell(hops=1), seed=7, stress="append")
        before = scenario.lake.resolve_table(scenario.deep).num_rows
        result = run_append_cell(scenario, tmp_path)
        assert scenario.lake.resolve_table(scenario.deep).num_rows == before + 16
        assert result.converged, result.detail
        assert result.service_ok  # second service warm-started from disk

    def test_append_rows_extend_the_oracle(self):
        scenario = build_scenario(cell(hops=1), seed=7, stress="append")
        before = len(scenario.oracle_rows())
        append_rows(scenario)
        assert len(scenario.oracle_rows()) == before + 16  # appended fks non-null

    def test_broken_chain_is_reported_not_converged(self):
        result = run_cell(build_scenario(cell(hops=2), seed=7, break_chain=True))
        assert not result.converged
        assert not result.aligned_ok
        assert "alignment refused" in result.detail


class TestFullGrid:
    """``run_grid`` as documented — no cell list — converges everywhere the
    stress mode is defined (KK cells are settled before a drift fires;
    append only matters where rows are re-materialized)."""

    @pytest.mark.parametrize(
        "stress, cells", [("none", 24), ("noisy", 24), ("drift", 18), ("append", 12)]
    )
    def test_every_cell_converges(self, stress, cells, tmp_path):
        report = run_grid(stress=stress, storage_root=tmp_path)
        assert [c.cell_id for c in report.failing()] == []
        assert len(report.cells) == cells and report.coverage == 1.0

    def test_measurement_columns_are_not_join_keys_at_scale(self, monkeypatch):
        """At 20k rows two-decimal attribute columns overlap almost fully;
        these three cells used to align through that shortcut and
        materialise ~2x the planted oracle's rows."""
        at_risk = {"KK-2hop-enrich", "KK-3hop-discover", "UU-3hop-discover"}
        cells = [c for c in enumerate_grid() if c.cell_id in at_risk]
        monkeypatch.setattr(harness, "GRID_ROWS", 20000)
        report = run_grid(cells)
        assert len(report.cells) == 3
        assert [(c.cell_id, c.detail) for c in report.failing()] == []


class TestReports:
    def subset(self):
        return [
            cell(ku="KK", hops=1, intent="enrich"),
            cell(ku="KU", hops=1, intent="discover", entity_class="location"),
        ]

    def test_report_is_byte_identical_across_runs(self):
        first = report_to_json(run_grid(cells=self.subset()))
        second = report_to_json(run_grid(cells=self.subset()))
        assert first == second

    def test_report_json_shape(self):
        report = run_grid(cells=self.subset())
        payload = report.to_json()
        assert payload["cells_total"] == 2
        assert payload["cells_converged"] == 2
        assert payload["coverage"] == 1.0
        assert {c["cell_id"] for c in payload["cells"]} == {
            "KK-1hop-enrich",
            "KU-1hop-discover",
        }

    def test_render_grid_marks_cells(self):
        report = run_grid(cells=self.subset())
        text = render_grid(report)
        assert "2/2 cells" in text
        assert "KK" in text and "KU" in text
        assert "FAIL" not in text

    def test_render_grid_lists_failing_cells(self):
        report = CoverageReport(seed=7, stress="none")
        report.cells.append(run_cell(build_scenario(cell(hops=2), seed=7, break_chain=True)))
        text = render_grid(report)
        assert "FAIL KK-2hop-enrich" in text
        assert "alignment refused" in text
