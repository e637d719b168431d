"""Line-delimited JSON control plane for the live fleet service.

One request per line on the control stream (stdin for ``stretch-repro
serve``), one JSON response per line on the output stream.  Requests are
objects with a ``cmd`` field (:data:`COMMANDS`) plus command arguments;
an optional ``id`` is echoed back for correlation.  Responses always
carry ``ok`` plus either ``result`` or ``error``:

``{"cmd": "status"}``
    → live progress, configuration, and metrics-so-far.
``{"cmd": "whatif", "monitor": {"engage_fraction": 0.8}, "horizon": 6}``
    → shadow-fleet metric diff over ``horizon`` windows (a JSON integer
    of at least 1, default 12, clamped to the windows left); ``monitor``
    keys are :class:`~repro.core.monitor.MonitorConfig` field overrides,
    ``policy`` a balancing-policy name, ``placement`` a placement-policy
    name (heterogeneous populations only), ``scenario`` an adversarial
    scenario — a preset name from
    :data:`repro.scenarios.SCENARIO_NAMES`, a spec dict, or ``null`` to
    project without the live scenario.
``{"cmd": "checkpoint"}``
    → content-addressed state snapshot (``result.key`` resumes it).
``{"cmd": "reconfigure", "monitor": {...}, "policy": "uniform"}``
    → swap the live configuration at the next window boundary;
    ``scenario`` injects (``null`` lifts) an adversarial scenario.
``{"cmd": "dump", "path": "postmortem.jsonl"}``
    → write the flight recorder's postmortem bundle (``path`` optional;
    requires a recorder-enabled service).
``{"cmd": "stop"}``
    → clean shutdown (equivalent to SIGINT).

The reader thread is a daemon so a closed/blocked control stream never
wedges shutdown; malformed lines surface as ``ok: false`` responses
rather than killing the service.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading

from repro.core.monitor import MonitorConfig

__all__ = ["COMMANDS", "ControlPlane", "handle_command", "respond"]

COMMANDS = ("status", "whatif", "checkpoint", "reconfigure", "dump", "stop")


def monitor_from_payload(base: MonitorConfig, payload: dict) -> MonitorConfig:
    """Apply JSON field overrides to a monitor config, strictly."""
    fields = {f.name for f in dataclasses.fields(MonitorConfig)}
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ValueError(
            f"unknown MonitorConfig fields {unknown}; known: {sorted(fields)}"
        )
    return dataclasses.replace(base, **payload)


def horizon_from_payload(request: dict) -> int:
    """The what-if horizon: a JSON integer (``4`` or ``4.0``), default 12.

    Bools, fractional numbers and strings are rejected rather than
    coerced, so ``2.7`` or ``true`` never silently becomes 2 or 1.
    """
    horizon = request.get("horizon", 12)
    if isinstance(horizon, float) and horizon.is_integer():
        horizon = int(horizon)
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ValueError(f"horizon must be a JSON integer, got {horizon!r}")
    return horizon


def handle_command(service, request: dict) -> dict:
    """Execute one control request against ``service``; never raises."""
    cmd = request.get("cmd") if isinstance(request, dict) else None
    response: dict = {"ok": True, "cmd": cmd}
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    try:
        if not isinstance(request, dict) or "_error" in request:
            raise ValueError(
                request.get("_error", "control request must be a JSON object")
                if isinstance(request, dict)
                else "control request must be a JSON object"
            )
        monitor = request.get("monitor")
        if monitor is not None:
            monitor = monitor_from_payload(
                service.engine.config.monitor, monitor
            )
        # The scenario argument is only forwarded when the request names
        # it: {"scenario": null} means "detach", absence means "keep".
        scenario_kwargs = (
            {"scenario": request.get("scenario")}
            if isinstance(request, dict) and "scenario" in request else {}
        )
        if cmd == "status":
            response["result"] = service.status()
        elif cmd == "whatif":
            response["result"] = service.whatif(
                monitor=monitor,
                policy=request.get("policy"),
                placement=request.get("placement"),
                horizon=horizon_from_payload(request),
                **scenario_kwargs,
            )
        elif cmd == "checkpoint":
            response["result"] = service.checkpoint()
        elif cmd == "reconfigure":
            response["result"] = service.reconfigure(
                monitor=monitor,
                policy=request.get("policy"),
                placement=request.get("placement"),
                **scenario_kwargs,
            )
        elif cmd == "dump":
            response["result"] = service.dump(
                path=request.get("path"), reason="control"
            )
        elif cmd == "stop":
            service.stop("control")
            response["result"] = {"stopping": True}
        else:
            raise ValueError(
                f"unknown cmd {cmd!r}; known: {', '.join(COMMANDS)}"
            )
    except Exception as exc:  # control plane must never take the loop down
        response["ok"] = False
        response["error"] = f"{type(exc).__name__}: {exc}"
    response["window"] = service.window
    return response


def respond(out, response: dict) -> None:
    """Write one LDJSON response line and flush it."""
    out.write(json.dumps(response) + "\n")
    out.flush()


class ControlPlane:
    """Background reader turning a text stream into drained requests.

    Lines are parsed off ``stream`` on a daemon thread (so a quiet stdin
    never blocks the serve loop) and handed over via :meth:`drain`.
    Unparseable lines become ``{"_error": ...}`` requests, which
    :func:`handle_command` answers with ``ok: false``.
    """

    def __init__(self, stream):
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._read, args=(stream,), daemon=True
        )
        self._thread.start()

    def _read(self, stream) -> None:
        try:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    self._queue.put(json.loads(line))
                except ValueError:
                    self._queue.put(
                        {"_error": f"bad control line: {line[:80]!r}"}
                    )
        except ValueError:
            pass  # stream closed mid-iteration during shutdown

    def drain(self) -> list[dict]:
        """All requests received since the last drain (non-blocking)."""
        requests = []
        while True:
            try:
                requests.append(self._queue.get_nowait())
            except queue.Empty:
                return requests
