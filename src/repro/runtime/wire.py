"""The distributed wire format: framed, checksummed, versioned messages.

Everything that crosses a TCP connection between a run (the
``distributed`` backend) and a ``parmonc-pool`` worker daemon is a
*frame*::

    +-------+---------+------+--------+-------+==============+
    | magic | version | kind | length | crc32 | body         |
    | 4s    | u16     | u16  | u32    | u32   | length bytes |
    +-------+---------+------+--------+-------+==============+

* **magic** (``b"PMNC"``) rejects foreign traffic on the port early;
* **version** lets an old pool refuse a newer run (and vice versa)
  with a clear error instead of a parse failure;
* **length** is the body size in bytes (bounded, so a corrupt
  header cannot make a peer allocate gigabytes);
* **crc32** covers the body, so truncated or bit-flipped frames
  are detected before anything is deserialized.

Control frames and save-points are JSON, moment payloads are raw: the
body of every frame kind but ``DATA`` is a UTF-8 JSON object, and a
``DATA`` body is always the binary layout of
:func:`~repro.runtime.messages.message_to_payload` — a fixed header,
``sum1`` and ``sum2`` as raw little-endian float64, and a JSON tail
only for the rare fields.  This module frames that body and never
looks inside it; there is no format flag and no second encoding, so
every ``float64`` crosses bit-for-bit and distributed estimates stay
bit-identical to the other backends'.

Frame kinds (:class:`FrameKind`):

==============  =======================================================
``HELLO``       run -> pool: open a session (no job context)
``WELCOME``     pool -> run: worker capacity, pool identity
``ASSIGN``      run -> pool: one :class:`WorkerAssignment` (rank/quota)
``DATA``        pool -> run: one ``MomentMessage`` data pass (binary)
``EXIT``        pool -> run: an assignment is over — code 0 after its
                final pass, or its slot's exit code once the slot's
                queued data frames were flushed (drain-before-verdict)
``HEARTBEAT``   both ways: liveness + pool occupancy
``BYE``         run -> pool: session over, release the workers
``ERROR``       either way: human-readable fatal protocol error
``SUBMIT``      run -> pool: declare one job (config + routine), ahead
                of the job's first ``ASSIGN`` on the link
``CANCEL``      run -> pool: the job is over — terminate its workers,
                forget its context
==============  =======================================================

Version 2 replaced version 1's JSON ``DATA`` body with the binary one.
Version 3 changed no frame and no body but the session: ``HELLO``
stopped carrying job context, so ``SUBMIT`` is the one way a pool
learns a job — the anonymous job of ``parmonc()`` included, its
``job`` key simply absent.  A version-2 run would send its jobs in a
``HELLO`` a version-3 pool no longer reads, so the header refuses it.
"""

from __future__ import annotations

import base64
import enum
import json
import pickle
import struct
import zlib
from typing import Callable, Iterator

from repro.exceptions import ConfigurationError, WireError
from repro.rng.multiplier import LeapSet
from repro.runtime.config import RunConfig
from repro.runtime.messages import message_from_payload, message_to_payload

__all__ = [
    "FrameKind",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "config_from_payload",
    "config_to_payload",
    "decode_frame",
    "encode_frame",
    "message_from_payload",
    "message_to_payload",
    "routine_from_payload",
    "routine_to_payload",
]

#: Protocol magic; the first four bytes of every frame.
MAGIC = b"PMNC"

#: Current protocol version.  Bump on any incompatible change to the
#: header, the frame kinds, the payload schemas or the session shape.
#: 2: binary DATA body.  3: HELLO carries no jobs, SUBMIT declares all.
WIRE_VERSION = 3

#: Upper bound on a single frame's payload, so a corrupt length field
#: can never make a peer buffer an absurd allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!4sHHII")


class FrameKind(enum.IntEnum):
    """The frame types of the distributed protocol."""

    HELLO = 1
    WELCOME = 2
    ASSIGN = 3
    DATA = 4
    EXIT = 5
    HEARTBEAT = 6
    BYE = 7
    ERROR = 8
    #: Job declaration, ahead of the job's first ASSIGN on a link.
    SUBMIT = 9
    #: Job release: stop its workers, forget its context.
    CANCEL = 10


def encode_frame(kind: FrameKind, payload: dict | bytes) -> bytes:
    """Serialize one frame: header (magic/version/kind/length/crc) + body.

    A ``DATA`` payload is the binary body ``message_to_payload`` built,
    framed as it is; every other kind takes a dict and travels as JSON.
    """
    if kind is not FrameKind.DATA:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    elif isinstance(payload, bytes):
        body = payload
    else:
        raise WireError(
            f"DATA frames carry the binary body message_to_payload "
            f"builds, got {type(payload).__name__}")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    header = _HEADER.pack(MAGIC, WIRE_VERSION, int(kind), len(body),
                          zlib.crc32(body))
    return header + body


def _parse_header(header: bytes) -> tuple[FrameKind, int, int]:
    """Validate a frame header; return ``(kind, length, crc32)``."""
    magic, version, kind, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(
            f"bad frame magic {magic!r}; the peer is not speaking the "
            f"parmonc wire protocol")
    if version != WIRE_VERSION:
        raise WireError(
            f"peer speaks wire protocol version {version}, this library "
            f"speaks {WIRE_VERSION}; upgrade the older side")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame announces {length} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
    try:
        return FrameKind(kind), length, crc
    except ValueError:
        raise WireError(f"unknown frame kind {kind}") from None


def _parse_body(kind: FrameKind, body: bytes, crc: int) -> dict | bytes:
    if zlib.crc32(body) != crc:
        raise WireError(
            f"{kind.name} frame failed its checksum "
            f"({len(body)} payload bytes)")
    if kind is FrameKind.DATA:
        return body  # message_from_payload's to validate and decode
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:
        raise WireError(
            f"{kind.name} frame carries malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(
            f"{kind.name} frame payload must be an object, got "
            f"{type(payload).__name__}")
    return payload


def decode_frame(data: bytes) -> tuple[FrameKind, dict | bytes]:
    """Decode exactly one complete frame from ``data``."""
    frames = list(FrameDecoder().feed(data))
    if len(frames) != 1:
        raise WireError(
            f"expected exactly one complete frame, got {len(frames)}")
    return frames[0]


class FrameDecoder:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed it arbitrary chunks (a socket read boundary never aligns with
    frames) and iterate the complete frames decoded so far; partial
    trailing bytes are buffered for the next feed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decodable into a full frame."""
        return len(self._buffer)

    def feed(self, data: bytes
             ) -> Iterator[tuple[FrameKind, dict | bytes]]:
        """Absorb ``data``; yield every frame it completes, in order."""
        self._buffer.extend(data)
        while len(self._buffer) >= _HEADER.size:
            kind, length, crc = _parse_header(self._buffer[:_HEADER.size])
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield kind, _parse_body(kind, body, crc)


# ---------------------------------------------------------------------------
# Control-frame payload codecs (the DATA body codec lives beside
# MomentMessage and is re-exported here, where its users look for it)


def config_to_payload(config: RunConfig) -> dict:
    """The slice of a :class:`RunConfig` a pool worker needs.

    Only the fields :func:`~repro.runtime.worker.run_worker` consumes
    travel: the realization shape, the stream coordinates (seqnum +
    leap exponents), the pass period, the statistics selection and the
    telemetry flag.  File- and collector-side settings stay home.
    """
    return {
        "nrow": config.nrow,
        "ncol": config.ncol,
        "seqnum": config.seqnum,
        "perpass": config.perpass,
        "statistics": list(config.statistics),
        "telemetry": config.telemetry,
        "leaps": {
            "experiment_exponent": config.leaps.experiment_exponent,
            "processor_exponent": config.leaps.processor_exponent,
            "realization_exponent": config.leaps.realization_exponent,
        },
    }


def config_from_payload(payload: dict) -> RunConfig:
    """Rebuild the worker-side :class:`RunConfig` from a SUBMIT frame."""
    try:
        leaps = payload["leaps"]
        return RunConfig(
            nrow=int(payload["nrow"]),
            ncol=int(payload["ncol"]),
            maxsv=1,  # unused by run_worker; quotas arrive per ASSIGN
            seqnum=int(payload["seqnum"]),
            perpass=float(payload["perpass"]),
            statistics=tuple(payload["statistics"]),
            telemetry=bool(payload["telemetry"]),
            leaps=LeapSet(
                experiment_exponent=int(leaps["experiment_exponent"]),
                processor_exponent=int(leaps["processor_exponent"]),
                realization_exponent=int(leaps["realization_exponent"])))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise WireError(f"malformed job configuration: {exc}") from exc


def routine_to_payload(routine, spec: str | None = None) -> dict:
    """Serialize the realization routine for a SUBMIT frame.

    With ``spec`` (a ``module:function`` string, the CLI path) the pool
    imports the routine itself — nothing executable crosses the wire.
    Without one the routine is pickled, which works for module-level
    functions (pickle ships an import reference, so the module must be
    importable on the pool host — the shared-filesystem assumption MPI
    deployments make anyway).
    """
    if spec is not None:
        return {"spec": spec}
    try:
        blob = pickle.dumps(routine)
    except Exception as exc:
        raise ConfigurationError(
            f"the distributed backend cannot pickle the realization "
            f"routine ({exc}); move it to module level, or run through "
            f"parmonc-run so pools import it by name") from exc
    return {"pickle": base64.b64encode(blob).decode("ascii")}


def routine_from_payload(payload: dict,
                         importer: Callable[[str], object]):
    """Resolve a SUBMIT routine payload on the pool side.

    Args:
        payload: The ``routine`` object of a SUBMIT frame.
        importer: ``module:function`` resolver used for spec payloads
            (the pool passes :func:`repro.cli.run.load_routine`).
    """
    if not isinstance(payload, dict):
        raise WireError("submit frame carries no routine object")
    if "spec" in payload:
        try:
            return importer(payload["spec"])
        except Exception as exc:
            raise WireError(
                f"pool cannot import routine {payload['spec']!r}: "
                f"{exc}") from exc
    if "pickle" in payload:
        try:
            return pickle.loads(base64.b64decode(payload["pickle"]))
        except Exception as exc:
            raise WireError(
                f"pool cannot unpickle the realization routine: {exc}; "
                f"is its module importable on this host?") from exc
    raise WireError("routine payload carries neither spec nor pickle")
