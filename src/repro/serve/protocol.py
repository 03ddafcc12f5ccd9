"""The serve wire protocol: JSON-RPC 2.0 envelopes, structured errors.

Every request is one JSON object::

    {"jsonrpc": "2.0", "id": 7, "method": "analyze",
     "params": {"tenant": "a", "checker": "null-deref"}}

and every answer is either a result envelope (``{"jsonrpc", "id",
"result"}``) or an error envelope (``{"jsonrpc", "id", "error": {"code",
"message", "data"}}``).  Malformed input of any kind — bad JSON, a
non-object, missing/ill-typed fields, unknown methods or params — is
answered with a structured error, never a crash or a dropped request
(``tests/test_serve.py`` pins this).

Error codes follow JSON-RPC for protocol-level failures and borrow the
obvious HTTP numbers for server-state failures (the HTTP front end maps
those straight onto status codes):

====================  ======  ==========================================
name                  code    meaning
====================  ======  ==========================================
PARSE_ERROR           -32700  request body is not valid JSON
INVALID_REQUEST       -32600  JSON but not a valid request envelope
METHOD_NOT_FOUND      -32601  unknown ``method``
INVALID_PARAMS        -32602  missing/ill-typed ``params`` member
INTERNAL_ERROR        -32603  unexpected server-side exception
UNKNOWN_TENANT           404  tenant was never ``initialize``\\ d
COMPILE_ERROR            422  pushed source does not compile
OVERLOADED               429  admission queue full — retry later
SHUTTING_DOWN            503  daemon is draining; no new work accepted
====================  ======  ==========================================
"""

from __future__ import annotations

import json
from typing import Optional

JSONRPC_VERSION = "2.0"

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
UNKNOWN_TENANT = 404
COMPILE_ERROR = 422
OVERLOADED = 429
SHUTTING_DOWN = 503


class ServeError(Exception):
    """A structured protocol error; handlers raise it, the dispatcher
    turns it into an error envelope."""

    def __init__(self, code: int, message: str,
                 data: Optional[dict] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data
        #: Set by :func:`parse_request` when the envelope carried an id
        #: before validation failed, so the error still correlates.
        self.request_id = None

    def envelope(self, request_id) -> dict:
        error = {"code": self.code, "message": self.message}
        if self.data is not None:
            error["data"] = self.data
        return {"jsonrpc": JSONRPC_VERSION, "id": request_id,
                "error": error}


def result_envelope(request_id, result: dict) -> dict:
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def parse_request(raw) -> tuple[object, str, dict]:
    """``(id, method, params)`` from a JSON string or decoded object.

    Raises :class:`ServeError` for every malformed shape; the id is
    recovered whenever the envelope got far enough to carry one, so the
    error response still correlates with the request.
    """
    if isinstance(raw, (str, bytes)):
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise ServeError(PARSE_ERROR, f"parse error: {error}")
    else:
        payload = raw
    if not isinstance(payload, dict):
        raise ServeError(INVALID_REQUEST,
                         "request must be a JSON object")
    request_id = payload.get("id")

    def fail(code: int, message: str) -> ServeError:
        error = ServeError(code, message)
        error.request_id = request_id
        return error

    if payload.get("jsonrpc") != JSONRPC_VERSION:
        raise fail(INVALID_REQUEST, "missing jsonrpc: \"2.0\"")
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise fail(INVALID_REQUEST, "method must be a string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise fail(INVALID_PARAMS, "params must be an object")
    return request_id, method, params


def require_str(params: dict, key: str) -> str:
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ServeError(INVALID_PARAMS,
                         f"param {key!r} must be a non-empty string")
    return value


def optional_str(params: dict, key: str,
                 default: Optional[str] = None) -> Optional[str]:
    value = params.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ServeError(INVALID_PARAMS, f"param {key!r} must be a string")
    return value


def optional_number(params: dict, key: str,
                    default: Optional[float] = None) -> Optional[float]:
    value = params.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise ServeError(INVALID_PARAMS,
                         f"param {key!r} must be a positive number")
    return float(value)


def optional_position(params: dict, key: str) -> Optional[int]:
    """A 1-based line or column: a JSON integer, never a fraction (which
    would silently name another line) or a bool."""
    value = params.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ServeError(INVALID_PARAMS,
                         f"param {key!r} must be a positive integer")
    return value


def optional_bool(params: dict, key: str, default: bool = False) -> bool:
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise ServeError(INVALID_PARAMS, f"param {key!r} must be a bool")
    return value
