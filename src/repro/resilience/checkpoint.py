"""Checkpoint persistence: one framed JSON file per finished unit of work.

A :class:`CheckpointStore` writes one file per ``(name, k)`` — a paper-grid
``(device, k)`` run, an assembler stage, a served job — so whatever dies
mid-flight resumes from its last completed unit instead of recomputing
from zero. The store owns the frame (format, CRC, atomic write,
quarantine) and nothing else: ``data`` is the caller's dict, and what it
means is the caller's codec (``RunRecord.to_dict`` for the suite, the
stage payloads of :mod:`repro.metahipmer.stages`, the result body of
:mod:`repro.serve`).

Checkpoints carry the configuration fingerprint (scale, seed, policy,
...) of whoever produced them; loading against a different
configuration raises :class:`~repro.errors.CheckpointError` rather than
silently mixing incompatible records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from pathlib import Path

from repro.core.extension import WalkState
from repro.errors import CheckpointError
from repro.kernels.engine.backend import KernelRunResult
from repro.simt.counters import KernelProfile
from repro.simt.device import DeviceSpec

#: Bumped when the on-disk layout changes incompatibly.
CHECKPOINT_FORMAT = 2


def payload_crc(payload: dict) -> str:
    """CRC32 (hex8) over the canonical JSON of ``payload`` minus ``crc``.

    Stored alongside the meta block so silent on-disk corruption —
    bit rot, torn copies, chaos-injected damage — is detected at load
    time even when the damaged bytes still parse as JSON.
    """
    body = json.dumps({k: v for k, v in payload.items() if k != "crc"},
                      sort_keys=True).encode("utf-8")
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x}"


def profile_to_dict(profile: KernelProfile) -> dict:
    """Serialize a profile to plain JSON-compatible types."""
    return dataclasses.asdict(profile)


def profile_from_dict(data: dict) -> KernelProfile:
    """Rebuild a profile; unknown fields mean a format drift."""
    try:
        return KernelProfile(**data)
    except TypeError as exc:
        raise CheckpointError(f"unreadable profile payload: {exc}") from None


def _ends_to_lists(ends: list[tuple[str, WalkState]]) -> list[list]:
    return [[bases, state.value] for bases, state in ends]


def _ends_from_lists(data: list) -> list[tuple[str, WalkState]]:
    try:
        return [(bases, WalkState(state)) for bases, state in data]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"unreadable extension payload: {exc}") from None


def result_to_dict(result: KernelRunResult) -> dict:
    """Serialize a run result (device stored by name)."""
    return {
        "device": result.device.name if result.device is not None else None,
        "k": result.k,
        "profile": profile_to_dict(result.profile),
        "right": _ends_to_lists(result.right),
        "left": _ends_to_lists(result.left),
        "degraded": list(result.degraded),
        "retried": list(result.retried),
    }


def result_from_dict(data: dict, device: DeviceSpec | None) -> KernelRunResult:
    """Rebuild a run result against the caller's device object."""
    stored = data.get("device")
    if device is not None and stored is not None and stored != device.name:
        raise CheckpointError(
            f"checkpoint device {stored!r} does not match {device.name!r}")
    return KernelRunResult(
        device=device,
        k=int(data["k"]),
        profile=profile_from_dict(data["profile"]),
        right=_ends_from_lists(data["right"]),
        left=_ends_from_lists(data["left"]),
        degraded=[int(c) for c in data.get("degraded", [])],
        retried=[int(c) for c in data.get("retried", [])],
    )


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0); unprobeable pids count dead."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OverflowError, ValueError, OSError):
        return False
    return True


def _tmp_owner_pid(path: Path) -> int | None:
    """The writer pid encoded in a ``<name>.json.<pid>.tmp`` scratch file."""
    parts = path.name.split(".")
    if len(parts) < 3:
        return None
    try:
        return int(parts[-2])
    except ValueError:
        return None


class CheckpointStore:
    """One JSON checkpoint per completed ``(name, k)`` unit of work.

    Safe for concurrent writers: each process stages into its own
    ``<checkpoint>.json.<pid>.tmp`` scratch file, fsyncs, and atomically
    renames over the final path, so readers only ever observe complete
    checkpoints and two processes saving the same run never interleave
    bytes. Scratch files left by crashed writers are swept on
    construction (live writers — pid still running — are left alone).

    Args:
        directory: checkpoint directory (created if missing).
        meta: configuration fingerprint of the producing suite; a loaded
            checkpoint whose fingerprint differs is rejected with
            :class:`~repro.errors.CheckpointError`.
    """

    def __init__(self, directory: str | Path,
                 meta: dict | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta or {})
        self.quarantined: list[Path] = []
        self.sweep_stale_tmps()

    def _path_for(self, name: str, k: int) -> Path:
        return self.directory / f"{name}_k{k}.json"

    def sweep_stale_tmps(self) -> list[Path]:
        """Remove scratch files whose writer is gone; returns what was swept."""
        swept: list[Path] = []
        for tmp in self.directory.glob("*.tmp"):
            pid = _tmp_owner_pid(tmp)
            if pid is not None and _pid_alive(pid):
                continue  # an in-flight writer owns this one
            try:
                tmp.unlink()
                swept.append(tmp)
            except OSError:
                pass  # raced with the writer's own rename/cleanup
        return swept

    def _write_atomic(self, path: Path, payload: dict) -> Path:
        """Stage ``payload`` in a per-pid scratch file, fsync, rename.

        On any failure the scratch file is removed so aborted saves leave
        nothing behind.
        """
        tmp = self.directory / f"{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def save(self, name: str, k: int, data: dict) -> Path:
        """Persist ``data`` (any JSON-compatible dict) as the ``(name, k)``
        checkpoint: framed, CRC'd, written atomically via rename.

        ``data`` nests under its own key, so a caller's keys can never
        collide with the frame's.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "meta": self.meta,
            "device": name,
            "k": k,
            "data": data,
        }
        payload["crc"] = payload_crc(payload)
        return self._write_atomic(self._path_for(name, k), payload)

    def quarantine(self, path: Path, reason: str) -> Path:
        """Move a damaged checkpoint aside and treat it as missing.

        Corruption is an *environmental* failure (bit rot, torn copy, a
        chaos fault), not a caller mistake — so instead of raising
        mid-resume the store renames the file to ``<name>.quarantine``
        (preserving the evidence for post-mortem) and the run simply
        recomputes. Configuration problems (format drift, meta
        mismatch) still raise: silently recomputing those would mask a
        real operator error.
        """
        qpath = path.with_suffix(".quarantine")
        try:
            path.replace(qpath)
        except OSError:
            qpath = path  # raced with another loader's quarantine
        self.quarantined.append(qpath)
        return qpath

    def load_named(self, name: str, k: int) -> dict | None:
        """The ``data`` saved as ``(name, k)``, or ``None`` when no
        usable checkpoint exists.

        Corrupt / truncated files and frames whose CRC is missing or
        wrong are quarantined (see
        :meth:`quarantine`) and reported as missing, so the caller
        recomputes; format mismatches and configuration-fingerprint
        mismatches raise :class:`~repro.errors.CheckpointError`.
        """
        path = self._path_for(name, k)
        payload, damage, mismatch = self._check(path)
        if damage is not None:
            self.quarantine(path, damage)
        if mismatch is not None:
            raise CheckpointError(mismatch)
        return None if payload is None else payload["data"]

    def _check(self, path: Path,
               ) -> tuple[dict | None, str | None, str | None]:
        """Read + frame-check one file: ``(payload, damage, mismatch)``.

        At most one is set (none: the file is absent). ``damage`` names
        environmental corruption, ``mismatch`` a configuration problem;
        what to do about either is the caller's policy.
        """
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None, None, None  # absent, or raced with a quarantine
        except ValueError:  # bad JSON, or bytes that are not UTF-8
            return None, "unparseable JSON", None
        if not isinstance(payload, dict):
            return None, "payload is not an object", None
        # every frame save writes carries one: a frame without it is as
        # damaged as one whose CRC disagrees
        stored_crc = payload.get("crc")
        if not isinstance(stored_crc, str):
            return None, "CRC missing", None
        if stored_crc != payload_crc(payload):
            return None, "CRC mismatch", None
        if payload.get("format") != CHECKPOINT_FORMAT:
            return None, None, (
                f"checkpoint {path} has format {payload.get('format')!r}, "
                f"expected {CHECKPOINT_FORMAT}")
        if payload.get("meta") != self.meta:
            return None, None, (
                f"checkpoint {path} was written by a different configuration "
                f"({payload.get('meta')} != {self.meta}); use a fresh "
                "checkpoint directory or matching settings")
        if not isinstance(payload.get("data"), dict):
            return None, "missing payload sections", None
        return payload, None, None

    def completed(self) -> set[tuple[str, int]]:
        """The ``(name, k)`` pairs with a *usable* checkpoint on disk.

        The same validation as :meth:`load_named` under the *survey*
        policy: a file that load would quarantine or reject simply does
        not count as done (and is left alone).
        """
        done: set[tuple[str, int]] = set()
        for path in self.directory.glob("*.json"):
            payload, _damage, _mismatch = self._check(path)
            if payload is None:
                continue
            try:
                done.add((str(payload["device"]), int(payload["k"])))
            except (KeyError, TypeError, ValueError):
                continue
        return done

    def clear(self) -> None:
        """Delete every checkpoint in the directory."""
        for path in self.directory.glob("*.json"):
            path.unlink()
