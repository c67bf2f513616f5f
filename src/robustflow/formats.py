"""Instance ingestion (SNDlib native and JSON) and result serialization.

Each undirected SNDlib link becomes two directed edges, each carrying the
full pre-installed capacity; the link routing cost maps to the delay
coefficient.  All serialization is deterministic: sorted keys and fixed
12-significant-digit decimal formatting.
"""

from __future__ import annotations

import enum
import io
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveCapacity, ParseError, SchemaError, SolverError, UnknownNode
from .network import DemandMatrix, Edge, Network


class SourceFormat(enum.Enum):
    SNDLIB_NATIVE = "sndlib"
    JSON = "json"


@dataclass
class InstanceDocument:
    network: Network
    demands: DemandMatrix
    name: str
    source_format: SourceFormat
    node_names: tuple = ()
    node_coordinates: tuple = ()
    # (forward, reverse) directed edge index pairs per undirected link
    link_pairs: tuple = ()


def _fmt(value):
    """Canonical 12-significant-digit float."""
    return float(f"{float(value):.12g}")


def _dumps(payload):
    """Canonical JSON text of ``payload``; a NaN or an infinity in it, which
    JSON cannot carry, is a SolverError."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise SolverError("result holds a non-finite number, which JSON cannot carry") from None


# --- SNDlib native --------------------------------------------------------

_SECTION_RE = re.compile(r"^([A-Z_]+)\s*\(\s*$")


def _sndlib_entries(text):
    """Yield (section, tokens, lineno) for every entry line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("?"):
            continue
        match = _SECTION_RE.match(line)
        if match:
            if section is not None:
                raise ParseError(f"nested section {match.group(1)}", lineno)
            section = match.group(1)
            continue
        if line == ")":
            if section is None:
                raise ParseError("unmatched closing parenthesis", lineno)
            section = None
            continue
        if section is None:
            # headers like "META (" variants or stray tokens outside sections
            continue
        # tokens, with each parenthesis a token of its own
        yield section, re.findall(r"\(|\)|[^\s()]+", line), lineno


def _floats_between_parens(tokens, lineno):
    """Split tokens of a link/demand entry: id ( a b ) fields... ( ... )."""
    if len(tokens) < 5 or tokens[1] != "(":
        raise ParseError("expected 'id ( source target ) ...'", lineno)
    try:
        close = tokens.index(")")
    except ValueError:
        raise ParseError("missing closing parenthesis", lineno) from None
    inner = tokens[2:close]
    rest = tokens[close + 1:]
    if "(" in rest:
        rest = rest[: rest.index("(")]
    return tokens[0], inner, rest


def parse_sndlib_native(text, name="sndlib-instance"):
    """Parse an SNDlib native document into a network and demand matrix.

    Link fields follow the native layout ``id ( src dst ) pre_capacity
    pre_cost routing_cost setup_cost ( modules... )``; module lists are
    ignored, the pre-installed capacity is the edge capacity and the routing
    cost the delay coefficient (0 if absent).  Demands follow ``id ( src dst )
    routing_unit value [max_path_length]``.
    """
    node_names = []
    node_coords = []
    node_index = {}
    links = []
    demands = []
    for section, tokens, lineno in _sndlib_entries(text):
        if section == "NODES":
            node = tokens[0]
            if node in node_index:
                raise ParseError(f"duplicate node {node}", lineno)
            coords = (0.0, 0.0)
            if len(tokens) >= 5 and tokens[1] == "(":
                try:
                    coords = (float(tokens[2]), float(tokens[3]))
                except ValueError:
                    raise ParseError(f"bad coordinates for node {node}", lineno) from None
            node_index[node] = len(node_names)
            node_names.append(node)
            node_coords.append(coords)
        elif section == "LINKS":
            link_id, endpoints, fields = _floats_between_parens(tokens, lineno)
            if len(endpoints) != 2:
                raise ParseError(f"link {link_id} needs exactly two endpoints", lineno)
            try:
                numbers = [float(f) for f in fields]
            except ValueError:
                raise ParseError(f"non-numeric field in link {link_id}", lineno) from None
            capacity = numbers[0] if numbers else 0.0
            routing_cost = numbers[2] if len(numbers) > 2 else 0.0
            if not np.isfinite(capacity):
                raise SchemaError("capacity", f"link {link_id} has a non-finite capacity "
                                              f"{capacity} (line {lineno})")
            if not np.isfinite(routing_cost):
                raise SchemaError("delay", f"link {link_id} has a non-finite routing cost "
                                           f"{routing_cost} (line {lineno})")
            links.append((link_id, endpoints[0], endpoints[1], capacity,
                          routing_cost, lineno))
        elif section == "DEMANDS":
            demand_id, endpoints, fields = _floats_between_parens(tokens, lineno)
            if len(endpoints) != 2:
                raise ParseError(f"demand {demand_id} needs exactly two endpoints", lineno)
            try:
                numbers = [float(f) for f in fields]
            except ValueError:
                raise ParseError(f"non-numeric field in demand {demand_id}", lineno) from None
            if len(numbers) < 2:
                raise ParseError(f"demand {demand_id} is missing its value", lineno)
            if not np.isfinite(numbers[1]):
                raise SchemaError("value", f"demand {demand_id} has a non-finite value "
                                           f"{numbers[1]} (line {lineno})")
            demands.append((demand_id, endpoints[0], endpoints[1], numbers[1], lineno))
    if not node_names:
        raise ParseError("document contains no NODES section")

    edges = []
    link_pairs = []
    for link_id, u, v, capacity, cost, lineno in links:
        for node in (u, v):
            if node not in node_index:
                raise UnknownNode(f"link {link_id} references unknown node {node} (line {lineno})")
        if not capacity > 0:
            raise NonPositiveCapacity(
                f"link {link_id} has non-positive capacity {capacity} (line {lineno})"
            )
        fwd = len(edges)
        edges.append(Edge(node_index[u], node_index[v], capacity, cost))
        edges.append(Edge(node_index[v], node_index[u], capacity, cost))
        link_pairs.append((fwd, fwd + 1))

    matrix = np.zeros((len(node_names), len(node_names)))
    for demand_id, s, t, value, lineno in demands:
        for node in (s, t):
            if node not in node_index:
                raise UnknownNode(f"demand {demand_id} references unknown node {node} (line {lineno})")
        matrix[node_index[s], node_index[t]] += value

    return InstanceDocument(
        network=Network(len(node_names), tuple(edges)),
        demands=DemandMatrix(matrix),
        name=name,
        source_format=SourceFormat.SNDLIB_NATIVE,
        node_names=tuple(node_names),
        node_coordinates=tuple(node_coords),
        link_pairs=tuple(link_pairs),
    )


# --- JSON interchange -----------------------------------------------------

def parse_json_instance(text):
    """Parse the JSON interchange format (0-based vertex indices)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("document", "top-level value must be an object")
    n = doc.get("n_vertices")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("n_vertices")
    edges = []
    for i, entry in enumerate(doc.get("edges", [])):
        if not isinstance(entry, dict):
            raise SchemaError("edges", f"edge {i} must be an object")
        try:
            tail, head = int(entry["tail"]), int(entry["head"])
            capacity = float(entry["capacity"])
            delay = float(entry.get("delay", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError("edges", f"edge {i}: {exc}") from exc
        if not (0 <= tail < n and 0 <= head < n):
            raise SchemaError("edges", f"edge {i} references a vertex out of range")
        if not np.isfinite(capacity):
            raise SchemaError("capacity", f"edge {i} has a non-finite capacity")
        if not np.isfinite(delay):
            raise SchemaError("delay", f"edge {i} has a non-finite delay")
        if not capacity > 0:
            raise SchemaError("capacity", f"edge {i} has non-positive capacity")
        if delay < 0:
            raise SchemaError("delay", f"edge {i} has a negative delay")
        edges.append(Edge(tail, head, capacity, delay))
    matrix = np.zeros((n, n))
    for i, entry in enumerate(doc.get("demands", [])):
        if not isinstance(entry, dict):
            raise SchemaError("demands", f"demand {i} must be an object")
        try:
            src, dst = int(entry["from"]), int(entry["to"])
            value = float(entry["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError("demands", f"demand {i}: {exc}") from exc
        if not (0 <= src < n and 0 <= dst < n):
            raise SchemaError("demands", f"demand {i} references a vertex out of range")
        if not np.isfinite(value):
            raise SchemaError("value", f"demand {i} is not finite")
        if value < 0:
            raise SchemaError("value", f"demand {i} is negative")
        if src == dst:
            raise SchemaError("demands", f"demand {i} has identical endpoints")
        matrix[src, dst] += value
    return InstanceDocument(
        network=Network(n, tuple(edges)),
        demands=DemandMatrix(matrix),
        name=str(doc.get("name", "json-instance")),
        source_format=SourceFormat.JSON,
    )


def serialize_instance(doc):
    """Canonical JSON encoding of an instance (round-trips with the parser)."""
    payload = {
        "name": doc.name,
        "n_vertices": doc.network.n_vertices,
        "edges": [
            {"tail": e.tail, "head": e.head, "capacity": _fmt(e.capacity),
             "delay": _fmt(e.delay)}
            for e in doc.network.edges
        ],
        "demands": [
            {"from": s, "to": t, "value": _fmt(v)}
            for s, t, v in doc.demands.pairs()
        ],
    }
    return _dumps(payload)


# --- reports --------------------------------------------------------------

def _scenario_key(scenario):
    return ";".join(str(e) for e in scenario)


def serialize_report(report, fmt="json"):
    """Deterministic JSON or CSV encoding of a robust evaluation report."""
    if fmt == "json":
        payload = {
            "worst_value": _fmt(report.worst_value),
            "worst_scenario": list(report.worst_scenario),
            "scenarios_evaluated": report.scenarios_evaluated,
            "pivots_total": report.pivots_total,
        }
        if report.per_scenario_values is not None:
            payload["per_scenario"] = {
                _scenario_key(s): _fmt(v)
                for s, v in sorted(report.per_scenario_values.items())
            }
        return _dumps(payload)
    if fmt == "csv":
        out = io.StringIO()
        out.write("scenario_edges,value\n")
        if report.per_scenario_values:
            for scenario, value in sorted(report.per_scenario_values.items()):
                out.write(f"{_scenario_key(scenario)},{_fmt(value):.12g}\n")
        out.write(f"worst:{_scenario_key(report.worst_scenario)},{_fmt(report.worst_value):.12g}\n")
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def serialize_bench(rows, totals):
    """CSV for the benchmark mode; timing fields sit in clearly named
    columns so determinism checks can drop them."""
    out = io.StringIO()
    out.write("scenario_edges,value,warm_pivots,cold_pivots,warm_time_s,cold_time_s\n")
    for row in rows:
        out.write(
            f"{_scenario_key(row['scenario_edges'])},{_fmt(row['value']):.12g},"
            f"{row['warm_pivots']},{row['cold_pivots']},"
            f"{row['warm_time_s']:.6f},{row['cold_time_s']:.6f}\n"
        )
    out.write(
        f"TOTAL,,{totals['warm_pivots']},{totals['cold_pivots']},"
        f"{totals['warm_time_s']:.6f},{totals['cold_time_s']:.6f}\n"
    )
    return out.getvalue()
