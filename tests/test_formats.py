import json
from pathlib import Path

import numpy as np
import pytest

from robustflow import (
    parse_json_instance,
    parse_sndlib_native,
    robust_throughput,
    serialize_instance,
    serialize_report,
)
from robustflow.errors import (
    NonPositiveCapacity,
    ParseError,
    SchemaError,
    SolverError,
    UnknownNode,
)
from robustflow.formats import SourceFormat, serialize_bench
from robustflow.robust import RobustReport

DATA = Path(__file__).parent / "data"

MINIMAL_SNDLIB = """\
# minimal document
NODES (
  a ( 0.0 0.0 )
  b ( 1.0 0.0 )
)
LINKS (
  l1 ( a b ) 5.0 0.0 2.0 0.0 ( )
)
DEMANDS (
  d1 ( a b ) 1 3.0
)
"""

NET_A_JSON = json.dumps({
    "name": "net-a",
    "n_vertices": 2,
    "edges": [
        {"tail": 0, "head": 1, "capacity": 3.0, "delay": 0.0},
        {"tail": 0, "head": 1, "capacity": 2.0, "delay": 0.0},
    ],
    "demands": [{"from": 0, "to": 1, "value": 4.0}],
})


class TestSndlibParsing:
    def test_minimal_document(self):
        doc = parse_sndlib_native(MINIMAL_SNDLIB)
        assert doc.source_format is SourceFormat.SNDLIB_NATIVE
        assert doc.network.n_vertices == 2
        assert doc.network.n_edges == 2  # one undirected link, two directions
        assert doc.network.edges[0].capacity == 5.0
        assert doc.network.edges[0].delay == 2.0
        assert doc.network.edges[1].tail == 1  # reverse direction
        assert doc.demands.entries[0, 1] == 3.0
        assert doc.link_pairs == ((0, 1),)

    def test_links_doubled_on_data_file(self):
        doc = parse_sndlib_native((DATA / "ring6.txt").read_text())
        assert doc.network.n_vertices == 6
        assert doc.network.n_edges == 20  # 10 links
        assert len(doc.link_pairs) == 10
        assert len(doc.demands.pairs()) == 4

    def test_unknown_node_in_link(self):
        text = MINIMAL_SNDLIB.replace("( a b ) 5.0", "( a zz ) 5.0")
        with pytest.raises(UnknownNode):
            parse_sndlib_native(text)

    def test_unknown_node_in_demand(self):
        text = MINIMAL_SNDLIB.replace("d1 ( a b )", "d1 ( a zz )")
        with pytest.raises(UnknownNode):
            parse_sndlib_native(text)

    def test_non_positive_capacity(self):
        text = MINIMAL_SNDLIB.replace("( a b ) 5.0", "( a b ) 0.0")
        with pytest.raises(NonPositiveCapacity):
            parse_sndlib_native(text)

    def test_parse_error_reports_line(self):
        text = MINIMAL_SNDLIB.replace("l1 ( a b ) 5.0 0.0 2.0 0.0 ( )",
                                      "l1 broken")
        with pytest.raises(ParseError) as info:
            parse_sndlib_native(text)
        assert info.value.line is not None

    def test_missing_nodes_section(self):
        with pytest.raises(ParseError):
            parse_sndlib_native("LINKS (\n)\n")

    def test_comments_and_meta_lines_ignored(self):
        text = "?meta\n# comment\n" + MINIMAL_SNDLIB
        doc = parse_sndlib_native(text)
        assert doc.network.n_edges == 2


class TestNonFiniteSndlib:
    @pytest.mark.parametrize("field, old, new", [
        ("capacity", "5.0 0.0 2.0", "inf 0.0 2.0"), ("capacity", "5.0 0.0 2.0", "nan 0.0 2.0"),
        ("delay", "5.0 0.0 2.0", "5.0 0.0 nan"), ("value", "1 3.0", "1 inf"),
        ("value", "1 3.0", "1 -nan"),
    ])
    def test_non_finite_number_is_schema_error(self, field, old, new):
        bad = MINIMAL_SNDLIB.replace(old, new)
        assert bad != MINIMAL_SNDLIB
        with pytest.raises(SchemaError) as info:
            parse_sndlib_native(bad)
        assert info.value.field == field


class TestNonFiniteOutput:
    def test_report_with_nan_is_solver_error(self):
        report = RobustReport(float("nan"), (0,), {(0,): float("nan")}, 0, 1)
        with pytest.raises(SolverError):
            serialize_report(report)


class TestJsonParsing:
    def test_net_a(self):
        doc = parse_json_instance(NET_A_JSON)
        np.testing.assert_array_equal(doc.network.capacities, [3.0, 2.0])
        assert doc.name == "net-a"
        assert doc.source_format is SourceFormat.JSON

    def test_negative_capacity_names_field(self):
        bad = NET_A_JSON.replace('"capacity": 3.0', '"capacity": -3.0')
        with pytest.raises(SchemaError) as info:
            parse_json_instance(bad)
        assert info.value.field == "capacity"

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_json_instance("{not json")

    def test_missing_n_vertices(self):
        with pytest.raises(SchemaError):
            parse_json_instance('{"edges": []}')

    def test_out_of_range_vertex(self):
        bad = NET_A_JSON.replace('"head": 1', '"head": 7')
        with pytest.raises(SchemaError):
            parse_json_instance(bad)

    @pytest.mark.parametrize("field, old, new", [
        ("capacity", "3.0", "Infinity"), ("capacity", "3.0", "NaN"),
        ("delay", "0.0", "NaN"), ("delay", "0.0", "Infinity"),
        ("value", "4.0", "Infinity"), ("value", "4.0", "NaN"),
    ])
    def test_non_finite_number_is_schema_error(self, field, old, new):
        bad = NET_A_JSON.replace(f'"{field}": {old}', f'"{field}": {new}', 1)
        assert bad != NET_A_JSON
        with pytest.raises(SchemaError) as info:
            parse_json_instance(bad)
        assert info.value.field == field

    def test_round_trip_identity(self):
        doc = parse_json_instance(NET_A_JSON)
        canonical = serialize_instance(doc)
        assert serialize_instance(parse_json_instance(canonical)) == canonical

    def test_sndlib_round_trips_through_json(self):
        doc = parse_sndlib_native((DATA / "ring6.txt").read_text())
        canonical = serialize_instance(doc)
        again = parse_json_instance(canonical)
        np.testing.assert_array_equal(again.network.capacities,
                                      doc.network.capacities)
        np.testing.assert_array_equal(again.demands.entries,
                                      doc.demands.entries)


class TestReportSerialization:
    def test_net_a_csv_rows(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        csv = serialize_report(report, "csv")
        lines = csv.strip().splitlines()
        assert lines[0] == "scenario_edges,value"
        assert lines[1] == "0,0.5"
        assert lines[2] == "1,0.75"
        assert lines[3] == "worst:0,0.5"

    def test_empty_per_scenario_map(self):
        report = RobustReport(worst_value=0.5, worst_scenario=(0,),
                              per_scenario_values=None, pivots_total=3,
                              scenarios_evaluated=2)
        csv = serialize_report(report, "csv")
        assert csv.splitlines() == ["scenario_edges,value", "worst:0,0.5"]

    def test_deterministic_bytes(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        assert serialize_report(report, "json") == serialize_report(report, "json")
        assert serialize_report(report, "csv") == serialize_report(report, "csv")

    def test_json_payload(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        payload = json.loads(serialize_report(report, "json"))
        assert payload["worst_value"] == 0.5
        assert payload["worst_scenario"] == [0]
        assert payload["per_scenario"] == {"0": 0.5, "1": 0.75}

    def test_unknown_format_rejected(self, net_a, demand_ab):
        report = robust_throughput(net_a, demand_ab, 1)
        with pytest.raises(ValueError):
            serialize_report(report, "xml")

    def test_bench_csv_shape(self):
        rows = [{"scenario_edges": (0,), "value": 0.5, "warm_pivots": 1,
                 "cold_pivots": 3, "warm_time_s": 0.001, "cold_time_s": 0.002}]
        totals = {"warm_pivots": 1, "cold_pivots": 3,
                  "warm_time_s": 0.001, "cold_time_s": 0.002}
        out = serialize_bench(rows, totals)
        lines = out.strip().splitlines()
        assert lines[0].startswith("scenario_edges,value,warm_pivots")
        assert lines[-1].startswith("TOTAL,")
