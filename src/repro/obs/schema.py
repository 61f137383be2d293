"""Schema registry and in-repo JSON-schema validation.

This module is the single home for every schema identifier the project
emits — the ``repro.obs/...`` document tags, the ``repro.qa/...`` run
manifest and gate-verdict tags, and the integer
:data:`~repro.sim.stats.STATS_SCHEMA_VERSION` folded into sweep-cache
digests — collected in :data:`SCHEMA_REGISTRY` so a new schema cannot be
introduced without registering it here.

:data:`TRACE_EVENT_SCHEMA` encodes the Chrome trace-event JSON object
format (the subset the exporter emits) as a standard JSON-Schema
document; :data:`RUN_MANIFEST_JSON_SCHEMA` and
:data:`GATE_REPORT_JSON_SCHEMA` do the same for the ``repro.qa``
promotion-harness documents.  :func:`validate` is a small,
dependency-free validator for the keyword subset the schemas use
(``type``, ``required``, ``properties``, ``items``, ``enum``, ``const``,
``minimum``, ``oneOf``, ``$ref`` into ``definitions``).  CI runs these
checks against emitted artefacts (see ``python -m repro.obs.validate``);
the schemas themselves stay loadable by any off-the-shelf draft-07
validator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.stats import STATS_SCHEMA_VERSION

#: Schema tag stamped into every run report.
RUN_REPORT_SCHEMA = "repro.obs/run_report/1"
#: Schema tag stamped into sweep / optimizer metrics documents.
SWEEP_METRICS_SCHEMA = "repro.obs/sweep_metrics/1"
#: Schema tag stamped into ``cohort serve`` /metrics snapshots.
SERVE_METRICS_SCHEMA = "repro.obs/serve_metrics/1"
#: Schema tag stamped into every structured operational-log line.
OPLOG_SCHEMA = "repro.obs/oplog/1"
#: Schema tag stamped into ``cohort fleet`` /metrics snapshots.
FLEET_METRICS_SCHEMA = "repro.obs/fleet_metrics/1"
#: Schema tag stamped into every write-ahead intake-journal line
#: (the one JSONL file the fleet router fsyncs on admission).
INTAKE_JOURNAL_SCHEMA = "repro.serve/intake_journal/1"
#: Schema tag stamped into every ``repro.qa`` run manifest.
RUN_MANIFEST_SCHEMA = "repro.qa/run_manifest/1"
#: Schema tag stamped into every ``repro.qa`` gate verdict report.
GATE_REPORT_SCHEMA = "repro.qa/gate_report/1"

#: Every schema identifier the project emits, by document kind.  The
#: ``stats`` entry is the integer version folded into sweep-cache
#: digests (:data:`repro.sim.stats.STATS_SCHEMA_VERSION`); all others
#: are the string tags stamped into the documents themselves.
SCHEMA_REGISTRY: Dict[str, Any] = {
    "stats": STATS_SCHEMA_VERSION,
    "run_report": RUN_REPORT_SCHEMA,
    "sweep_metrics": SWEEP_METRICS_SCHEMA,
    "serve_metrics": SERVE_METRICS_SCHEMA,
    "oplog": OPLOG_SCHEMA,
    "fleet_metrics": FLEET_METRICS_SCHEMA,
    "intake_journal": INTAKE_JOURNAL_SCHEMA,
    "run_manifest": RUN_MANIFEST_SCHEMA,
    "gate_report": GATE_REPORT_SCHEMA,
}

#: One structured operational-log line (draft-07 JSON Schema).  The
#: event vocabulary is open — services add fields freely — but every
#: line must carry the schema tag, a wall-clock timestamp, the emitting
#: component and an event name, and correlation ids, when present, must
#: be strings (the grep-ability contract of trace propagation).
OPLOG_EVENT_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs structured operational-log line",
    "type": "object",
    "required": ["schema", "ts", "component", "event"],
    "properties": {
        "schema": {"const": OPLOG_SCHEMA},
        "ts": {"type": "number", "minimum": 0},
        "component": {"type": "string"},
        "event": {"type": "string"},
        "trace_id": {"type": "string"},
        "job_id": {"type": "string"},
        "digest": {"type": "string"},
        "status": {"type": "string"},
        "attempt": {"type": "integer", "minimum": 0},
        "batch": {"type": "integer", "minimum": 0},
        "queue_wait_ms": {"type": "number", "minimum": 0},
        "duration_ms": {"type": "number", "minimum": 0},
        # The fleet router's retire: submitted → dispatched (the 202 of
        # the latest dispatch landed) and dispatched → finished.
        "queue_ms": {"type": "number", "minimum": 0},
        "remote_ms": {"type": "number", "minimum": 0},
    },
}

#: One write-ahead intake-journal line (draft-07 JSON Schema).  The
#: journal is the fleet router's durability contract: an ``admit`` line
#: is fsync'd before the 202 leaves the building, a matching ``retire``
#: line closes it, and replay ignores everything else.  Lines are
#: strictly ordered by ``seq`` within one journal file.  ``shard`` is
#: written only by routers that kept one journal per shard.
INTAKE_JOURNAL_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.serve write-ahead intake-journal line",
    "type": "object",
    "required": ["schema", "op", "seq", "ts"],
    "properties": {
        "schema": {"const": INTAKE_JOURNAL_SCHEMA},
        "op": {"type": "string", "enum": ["admit", "retire"]},
        "seq": {"type": "integer", "minimum": 0},
        "ts": {"type": "number", "minimum": 0},
        "job_id": {"type": "string"},
        "shard": {"type": "integer", "minimum": 0},
        "job": {
            "type": "object",
            "required": ["id", "spec"],
            "properties": {
                "id": {"type": "string"},
                "spec": {"type": "object"},
                "trace_id": {"type": ["string", "null"]},
                "submitted_at": {"type": "number", "minimum": 0},
            },
        },
    },
    "oneOf": [
        {
            "properties": {"op": {"const": "admit"}},
            "required": ["job"],
        },
        {
            "properties": {"op": {"const": "retire"}},
            "required": ["job_id"],
        },
    ],
}

#: Chrome trace-event JSON object format (draft-07 JSON Schema).
TRACE_EVENT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Chrome trace-event JSON object format (repro.obs subset)",
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {"$ref": "#/definitions/event"},
        },
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
    },
    "definitions": {
        "event": {
            "type": "object",
            "required": ["ph", "pid", "name"],
            "properties": {
                "ph": {"type": "string", "enum": ["X", "i", "C", "M"]},
                "name": {"type": "string"},
                "cat": {"type": "string"},
                "pid": {"type": "integer", "minimum": 0},
                "tid": {"type": "integer", "minimum": 0},
                "ts": {"type": "number", "minimum": 0},
                "dur": {"type": "number", "minimum": 0},
                "s": {"type": "string", "enum": ["t", "p", "g"]},
                "args": {"type": "object"},
            },
            "oneOf": [
                {
                    "properties": {"ph": {"const": "X"}},
                    "required": ["ts", "dur", "tid"],
                },
                {
                    "properties": {"ph": {"const": "i"}},
                    "required": ["ts", "s"],
                },
                {
                    "properties": {"ph": {"const": "C"}},
                    "required": ["ts", "args"],
                },
                {
                    "properties": {"ph": {"const": "M"}},
                    "required": ["args"],
                },
            ],
        },
    },
}

#: ``repro.qa`` run manifest (draft-07 JSON Schema).
RUN_MANIFEST_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.qa run manifest",
    "type": "object",
    "required": [
        "schema", "kind", "label", "traces", "metrics", "artifacts",
    ],
    "properties": {
        "schema": {"const": RUN_MANIFEST_SCHEMA},
        "kind": {"type": "string"},
        "label": {"type": "string"},
        "engine": {"type": ["string", "null"]},
        "seed": {"type": ["integer", "null"]},
        "config_fingerprint": {"type": ["string", "null"]},
        "traces": {"type": "array", "items": {"type": "string"}},
        "metrics": {"type": "object"},
        "artifacts": {
            "type": "array",
            "items": {"$ref": "#/definitions/artifact"},
        },
        "environment": {"type": "object"},
        "fingerprint": {"type": "string"},
    },
    "definitions": {
        "artifact": {
            "type": "object",
            "required": ["path", "sha256", "bytes"],
            "properties": {
                "path": {"type": "string"},
                "sha256": {"type": "string"},
                "bytes": {"type": "integer", "minimum": 0},
            },
        },
    },
}

#: ``repro.qa`` gate verdict report (draft-07 JSON Schema).
GATE_REPORT_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.qa gate verdict report",
    "type": "object",
    "required": ["schema", "spec", "passed", "exit_code", "outcomes"],
    "properties": {
        "schema": {"const": GATE_REPORT_SCHEMA},
        "spec": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "passed": {"type": "boolean"},
        "exit_code": {"type": "integer", "minimum": 0},
        "counts": {"type": "object"},
        "candidate": {"type": ["object", "null"]},
        "baseline": {"type": ["object", "null"]},
        "outcomes": {
            "type": "array",
            "items": {"$ref": "#/definitions/outcome"},
        },
    },
    "definitions": {
        "outcome": {
            "type": "object",
            "required": ["id", "severity", "status"],
            "properties": {
                "id": {"type": "string"},
                "question": {"type": "string"},
                "check": {"type": "string"},
                "assertion": {"type": "string"},
                "severity": {
                    "type": "string",
                    "enum": ["info", "warn", "high", "critical"],
                },
                "declared_severity": {
                    "type": "string",
                    "enum": ["info", "warn", "high", "critical"],
                },
                "category": {"type": "string"},
                "status": {
                    "type": "string",
                    "enum": ["pass", "fail", "error", "skipped"],
                },
                "detail": {"type": "string"},
            },
        },
    },
}

#: Validatable document shapes: schema tag → draft-07 document.  Trace
#: events carry no tag (the Chrome format has none) and dispatch on
#: their ``traceEvents`` key instead — see :func:`schema_for_document`.
JSON_SCHEMAS: Dict[str, Dict[str, Any]] = {
    RUN_MANIFEST_SCHEMA: RUN_MANIFEST_JSON_SCHEMA,
    GATE_REPORT_SCHEMA: GATE_REPORT_JSON_SCHEMA,
    OPLOG_SCHEMA: OPLOG_EVENT_JSON_SCHEMA,
    INTAKE_JOURNAL_SCHEMA: INTAKE_JOURNAL_JSON_SCHEMA,
}


def schema_for_document(doc: Any) -> Optional[Dict[str, Any]]:
    """The JSON schema a loaded document should validate against.

    Dispatches on the document's ``schema`` tag (run manifests, gate
    reports) or its ``traceEvents`` key (Chrome trace-event documents);
    ``None`` when the shape is unknown to the registry.
    """
    if not isinstance(doc, dict):
        return None
    tagged = JSON_SCHEMAS.get(doc.get("schema"))
    if tagged is not None:
        return tagged
    if "traceEvents" in doc:
        return TRACE_EVENT_SCHEMA
    return None


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check_type(instance: Any, expected: str) -> bool:
    if expected == "integer":
        return isinstance(instance, int) and not isinstance(instance, bool)
    if expected == "number":
        return (
            isinstance(instance, (int, float)) and not isinstance(instance, bool)
        )
    return isinstance(instance, _TYPES[expected])


def _resolve_ref(ref: str, root: Dict[str, Any]) -> Dict[str, Any]:
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref {ref!r} (only local refs)")
    node: Any = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(
    instance: Any,
    schema: Dict[str, Any],
    root: Optional[Dict[str, Any]] = None,
    path: str = "$",
) -> List[str]:
    """Validate ``instance`` against the supported JSON-Schema subset.

    Returns a list of human-readable error strings (empty = valid).
    """
    if root is None:
        root = schema
    if "$ref" in schema:
        return validate(instance, _resolve_ref(schema["$ref"], root), root, path)

    errors: List[str] = []
    expected_type = schema.get("type")
    if expected_type is not None:
        allowed = (
            expected_type if isinstance(expected_type, list) else [expected_type]
        )
        if not any(_check_type(instance, t) for t in allowed):
            return [
                f"{path}: expected type {'/'.join(allowed)}, "
                f"got {type(instance).__name__}"
            ]
    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}")
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(
                f"{path}: {instance!r} below minimum {schema['minimum']!r}"
            )
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required property {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(
                    validate(instance[key], sub, root, f"{path}.{key}")
                )
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], root, f"{path}[{i}]")
            )
    if "oneOf" in schema:
        matches = 0
        branch_errors: List[str] = []
        for i, branch in enumerate(schema["oneOf"]):
            sub_errors = validate(instance, branch, root, f"{path}<oneOf:{i}>")
            if sub_errors:
                branch_errors.extend(sub_errors)
            else:
                matches += 1
        if matches != 1:
            errors.append(
                f"{path}: matched {matches} oneOf branches (need exactly 1)"
            )
            if matches == 0:
                errors.extend(branch_errors)
    return errors


def validate_trace_events(doc: Any) -> List[str]:
    """Errors of a trace-event document against the in-repo schema."""
    return validate(doc, TRACE_EVENT_SCHEMA)


def validate_document(doc: Any) -> List[str]:
    """Errors of any registered document shape (empty = valid).

    Dispatches through :func:`schema_for_document`; an unrecognised
    shape is itself an error — emitters must register their schema.
    """
    schema = schema_for_document(doc)
    if schema is None:
        return [
            "$: unrecognised document shape (no registered schema tag "
            "and no traceEvents key)"
        ]
    return validate(doc, schema)
