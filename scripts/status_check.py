#!/usr/bin/env python3
"""Validate the daemon's sl-status/1 introspection bodies, for CI.

  status_check.py status FILE             GET /status body
  status_check.py healthz FILE            GET /healthz body
  status_check.py traces FILE             GET /traces body
  status_check.py monitors FILE OFFLINE   GET /monitors body, cross-checked
                                          against the offline
                                          `slc monitor --json` report
  status_check.py draining FILE LIMIT     GET /status body taken while a
                                          connection drains its EOF dump:
                                          some connection in mode "done"
                                          has 0 < pending_out <= LIMIT

FILE may be the raw JSON body or a full HTTP/1.0 response (headers are
stripped). Each mode checks the schema tag and the field shape; the
monitors mode additionally requires every monitor row's verdict census
(tripped / live+retired_admissible) to equal the per-prop verdict
counts of the offline report exactly.
"""

import json
import sys

SCHEMA = "sl-status/1"


def body_of(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw.startswith(b"HTTP/"):
        head, _, rest = raw.partition(b"\r\n\r\n")
        first = head.split(b"\r\n", 1)[0].decode()
        assert " 200 " in first + " ", f"non-200 response: {first}"
        raw = rest
    return json.loads(raw)


def expect(doc, fields):
    for name, ty in fields.items():
        assert name in doc, f"missing field {name!r}"
        assert isinstance(doc[name], ty), \
            f"field {name!r}: expected {ty}, got {type(doc[name])}"


def check_common(doc, typ):
    expect(doc, {"schema": str, "type": str})
    assert doc["schema"] == SCHEMA, f"schema {doc['schema']!r} != {SCHEMA!r}"
    assert doc["type"] == typ, f"type {doc['type']!r} != {typ!r}"


def check_status(doc):
    check_common(doc, "status")
    expect(doc, {
        "version": str, "uptime_s": (int, float), "fingerprint": str,
        "props": int, "monitors": int, "jobs": int, "traces": int,
        "events": int, "live": int, "tripped": int,
        "retired_admissible": int, "connections": list, "reloads": dict,
        "cache": dict, "obs": dict,
    })
    for c in doc["connections"]:
        expect(c, {"id": int, "listener": str, "mode": str, "lines": int,
                   "events": int, "errors": int, "pending_out": int,
                   "stalled": bool})
    expect(doc["reloads"], {"count": int, "failures": int, "history": list})
    expect(doc["cache"], {"hits": int, "misses": int, "stores": int,
                          "hit_ratio": (int, float)})
    expect(doc["obs"], {"enabled": bool, "spans_dropped": int})
    assert doc["uptime_s"] >= 0
    return (f"status ok: {doc['events']} events, {doc['traces']} traces, "
            f"{len(doc['connections'])} connections")


def check_healthz(doc):
    check_common(doc, "healthz")
    expect(doc, {"status": str, "uptime_s": (int, float)})
    assert doc["status"] == "ok"
    return f"healthz ok: uptime {doc['uptime_s']:.1f}s"


def check_traces(doc):
    check_common(doc, "traces")
    expect(doc, {"total": int, "truncated": bool, "traces": list})
    for row in doc["traces"]:
        expect(row, {"id": int, "name": str, "events": int, "live": int,
                     "tripped": int})
    return f"traces ok: {len(doc['traces'])} of {doc['total']} rows"


def offline_verdicts(path):
    """prop name -> (violations, admissibles) over the offline report."""
    with open(path) as f:
        rep = json.load(f)
    counts = {}
    for tr in rep["traces"]:
        for v in tr["verdicts"]:
            viol, adm = counts.get(v["prop"], (0, 0))
            if v["verdict"] == "violation":
                viol += 1
            elif v["verdict"] == "admissible":
                adm += 1
            counts[v["prop"]] = (viol, adm)
    return counts


def check_monitors(doc, offline_path):
    check_common(doc, "monitors")
    expect(doc, {"fingerprint": str, "traces": int, "monitors": list})
    offline = offline_verdicts(offline_path)
    for row in doc["monitors"]:
        expect(row, {"index": int, "key": str, "props": list,
                     "vacuous": bool, "pre_tripped": bool, "live": int,
                     "tripped": int, "retired_admissible": int})
        assert len(row["key"]) == 16, f"key {row['key']!r} not a 64-bit hash"
        assert row["props"], f"monitor {row['index']} names no props"
        if row["vacuous"]:
            assert (row["live"], row["tripped"], row["retired_admissible"]) \
                == (0, 0, 0), f"vacuous monitor {row['index']} has counts"
            continue
        for prop in row["props"]:
            assert prop in offline, f"prop {prop!r} absent offline"
            viol, adm = offline[prop]
            assert row["tripped"] == viol, (
                f"monitor {row['index']} ({prop}): tripped "
                f"{row['tripped']} != offline violations {viol}")
            assert row["live"] + row["retired_admissible"] == adm, (
                f"monitor {row['index']} ({prop}): live+retired "
                f"{row['live'] + row['retired_admissible']} != offline "
                f"admissible {adm}")
    return f"monitors ok: {len(doc['monitors'])} rows match offline report"


def check_draining(doc, limit):
    check_status(doc)
    pending = [c["pending_out"] for c in doc["connections"]
               if c["mode"] == "done"]
    assert pending, "no connection is draining"
    assert any(p > 0 for p in pending), "the draining connection is drained"
    assert max(pending) <= limit, \
        f"draining connection queues {max(pending)} bytes > {limit}"
    return f"draining ok: pending_out {max(pending)} <= {limit}"


def main():
    mode, path = sys.argv[1], sys.argv[2]
    doc = body_of(path)
    if mode == "status":
        msg = check_status(doc)
    elif mode == "healthz":
        msg = check_healthz(doc)
    elif mode == "traces":
        msg = check_traces(doc)
    elif mode == "monitors":
        msg = check_monitors(doc, sys.argv[3])
    elif mode == "draining":
        msg = check_draining(doc, int(sys.argv[3]))
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    print(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
