"""Tests for the regenerated reference tables."""

import hashlib
import json
import math

import pytest

from poolscreen import designs, estimation
from poolscreen.tables import TABLE_IDS, build_table


class TestRegistry:
    def test_all_ids_build(self):
        for table_id in TABLE_IDS:
            table = build_table(table_id)
            assert table.table_id == table_id
            assert table.rows and table.columns
            for row in table.rows:
                assert len(row) == len(table.columns)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            build_table("no-such-table")

    def test_pure_regeneration(self):
        # no caching anywhere: repeated builds are equal, fresh objects
        a, b = build_table("rmse-100"), build_table("rmse-100")
        assert a is not b
        assert a == b


class TestClassificationTables:
    def test_exec_chart_pool_sizes(self):
        table = build_table("exec-classification")
        assert [row[1] for row in table.rows] == [3, 4, 5, 6, 7, 8]

    def test_examples_cells_match_api(self):
        table = build_table("examples-classification")
        by_key = {(row[0], row[1]): row for row in table.rows}
        dorf = by_key[(0.03, "simple Dorfman")]
        assert dorf[2] == 6
        assert dorf[3] == pytest.approx(
            1.0 / designs.dorfman_expected_tests_per_person(0.03, 6)
        )
        arr = by_key[(0.003, "batched array testing")]
        assert arr[2] == 52
        # array testing cannot beat individual testing at 30% prevalence
        assert by_key[(0.3, "batched array testing")][2] is None


class TestEstimationTables:
    def test_exec_estimation_pool_sizes(self):
        table = build_table("exec-estimation")
        assert [row[1] for row in table.rows] == [20, 20, 20, 20, 20, 20, 13, 6, 4]

    def test_guidelines_rows(self):
        table = build_table("guidelines-nrmse")
        assert [tuple(row[:3]) for row in table.rows] == [
            (0.001, 8, 6000),
            (0.01, 8, 600),
            (0.05, 8, 120),
            (0.10, 8, 60),
            (0.10, 4, 120),
            (0.30, 4, 40),
        ]
        for row in table.rows:
            assert row[3] == estimation.gg_nrmse(row[0], row[1], row[2])

    def test_rmse_100_cells(self):
        table = build_table("rmse-100")
        row = {r[0]: r for r in table.rows}[0.05]
        assert row[1] == pytest.approx(math.sqrt(0.05 * 0.95 / 100))
        assert row[3] == pytest.approx(6.28e-3, rel=0.01)
        assert row[4] == 28

    def test_tests_for_15pct_cells(self):
        table = build_table("tests-for-15pct")
        rows = {r[0]: r for r in table.rows}
        assert rows[0.01][1] == 4400
        assert rows[0.01][2] == 899
        assert rows[0.01][3] == 76
        assert rows[0.01][4] == 138

    def test_cost_optimized_consistency(self):
        table = build_table("cost-optimized")
        for p, b, t, s in table.rows:
            assert s == b * t
            # the winner satisfies the target at its integer test count
            assert estimation.gg_nrmse(p, b, t) <= 0.15 * (1 + 1e-9)


#: SHA-256 of each table's CSV: the tables are part of the reproducibility
#: contract, so any byte that moves must be explained
TABLE_SHA256 = {
    "exec-classification": "33e5dff2906ee1d5dd14bf128d3b3f35f6195c310358c37c0d133dff55143d5f",
    "exec-estimation": "5eb0112f7ea6dfddf5d813632163d56da28f6a32b42a760f0489fb6ee5f047ec",
    "guidelines-nrmse": "65cd77b6dd346bc736742424fdb0af1c0a5d4fd75533fbeac0ddacdd1b887de5",
    "examples-classification": "b66f10363b21c99a816ee524da39a4b070c79f9f50e13a449c4750e2ad603edd",
    "rmse-100": "caab002cfbbe41cf0c0a0167d0f55d00803106ab638616600a7f2fdf71c80196",
    "tests-for-15pct": "32a1d26b14fc655c85aa9c579d1ef80f08bdd2753a5bf5cf6cfc544c57a18267",
    "cost-optimized": "82ffd8b97430bdda7349bdc7cfbbed89fb2fdcc0974f7afd476d2ebb7f8d3e28",
}


class TestSerialization:
    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_csv_is_pinned(self, table_id):
        csv = build_table(table_id).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == TABLE_SHA256[table_id]

    def test_csv_shape_and_style(self):
        csv = build_table("rmse-100").to_csv()
        lines = csv.strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("prevalence,")
        # dot decimal separators, scientific notation below 1e-3, no
        # thousands separators
        assert "e-0" in csv
        assert "," not in lines[1].replace(",", " ", 5).split()[0]

    def test_csv_na_cells(self):
        csv = build_table("examples-classification").to_csv()
        assert "N/A" in csv

    def test_json_round_trip(self):
        for table_id in TABLE_IDS:
            text = build_table(table_id).to_json()
            parsed = json.loads(text)
            assert json.loads(json.dumps(parsed, sort_keys=True)) == parsed
            assert parsed["table"] == table_id
            rebuilt = build_table(table_id)
            assert parsed["rows"] == json.loads(rebuilt.to_json())["rows"]
