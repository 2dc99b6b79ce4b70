"""Deterministic fault injection for the sweep and store stack.

The fault-tolerance layer (supervised executors, record-store recovery,
physics-store checksums) is only trustworthy if its failure paths are
*exercised* — so this module provides the chaos harness that drives them: a
registry of injectable faults, armed explicitly (programmatically or via the
``REPRO_FAULTS`` environment variable) and **never active by default**.
Every injection site is a cheap no-op when nothing is armed.

Fault kinds
-----------
Run faults fire inside :func:`~repro.sweep.runner.execute_run`, in whichever
process executes the run:

* ``"raise"`` — raise :class:`InjectedFault` (an ordinary exception — the
  retry/quarantine path);
* ``"kill"`` — ``os._exit(KILL_EXIT_CODE)`` — an abrupt worker death.
  ``multiprocessing.Pool`` silently respawns the worker but the in-flight
  chunk is lost forever, which is exactly the condition the supervised
  executor's deadline watchdog exists to catch;
* ``"hang"`` — sleep past any reasonable deadline (a wedged run).

File faults fire after a write completes, damaging it the way a disk or an
interrupted process would:

* ``"store_flip"`` — flip one byte in a
  :class:`~repro.sim.shared_store.SharedPhysicsStore` entry file as it is
  published (after its temp write, before the rename makes it visible).

Record-store faults damage a :class:`~repro.store.ShardedRecordStore` the
two ways an append-only shard directory can rot:

* ``"shard_torn"`` — tear the shard line just appended (truncate it mid-line)
  **and** kill the process, exactly like ``"journal_torn"``: torn writes are
  crash artifacts, so the kill is part of the fault.  Targets look like
  ``"<shard path>#record:<run_id>"`` (or ``#failed:<run_id>``, and
  ``#spec:`` or ``#seal:`` for the store's spec and seal lines);
* ``"shard_corrupt"`` — flip one mid-file byte of the current shard after a
  flush, *without* killing: latent disk damage the store must quarantine on
  its next open, not crash on.

Service faults fire inside the sweep daemon (:mod:`repro.service`), modelling
a crash of the *long-running process itself*:

* ``"daemon_kill"`` — ``os._exit(KILL_EXIT_CODE)`` at a named service site
  (targets look like ``"registry:done:j000001"`` or ``"drain"`` — see
  :func:`service_fault`'s call sites), i.e. a ``kill -9`` of the daemon
  between a journal append and the work it describes;
* ``"journal_torn"`` — tear the journal line just appended (truncate it
  mid-line) **and** kill the process: a torn write is what a crash leaves
  behind, so the two are inseparable — a daemon that kept running after one
  would corrupt its own journal mid-file, which real torn writes cannot do.
  Targets look like ``"<path>#<event>:<job_id>"``, so ``match`` can select
  the journal event to tear.  Both torn kinds fire at one site,
  :func:`torn_write_fault`, in the line log the journal and the shards
  share;
* ``"disk_full"`` — raise ``OSError(ENOSPC)`` at a durability write site
  *before* the write happens (:func:`disk_full_fault` — journal appends,
  record-store shard appends, shared-store publishes).
  ``times`` bounds how many writes fail, after which "space returns": the
  degraded-mode recovery paths must then drain their backlogs;
* ``"lease_stolen"`` — rewrite the state-dir lease file with a foreign
  owner right after a heartbeat renewal (:func:`lease_fault`), modelling an
  operator or split-brain peer stealing the lease out from under a live
  daemon.  The holder must notice on its next heartbeat and fence itself.

Determinism contract
--------------------
Whether a run fault fires is a pure function of ``(plan salt, fault, run_id,
attempt)`` — independent of execution order, executor choice and scheduling —
so chaos tests are reproducible and serial/pool comparisons remain
meaningful.  ``times`` bounds firing *per attempt number*: a fault with
``times=1`` fires on a run's first attempt and lets every retry through,
which is how transient failures are modelled (the statelessness matters —
a killed worker takes its memory with it, so nothing observable may depend
on in-process fire counters).  File faults are counter-gated per process
(fire on the first ``times`` matching writes).

Arming
------
Programmatic::

    with injected_faults(FaultSpec(kind="kill", match="p0001")):
        SweepRunner(spec, PoolExecutor(run_timeout=2.0, ...)).run()

``fork``-started pool workers inherit the armed plan; ``spawn`` workers do
not — use the environment form for those::

    REPRO_FAULTS='[{"kind": "raise", "match": "p0002", "times": 1}]'

The environment plan is parsed lazily on first use in each process and a
programmatic plan always takes precedence.  :func:`disarm_faults` disarms
both in the calling process.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "active_plan",
    "arm_faults",
    "current_attempt",
    "describe_run_faults",
    "disarm_faults",
    "disk_full_fault",
    "injected_faults",
    "lease_fault",
    "maybe_fail_run",
    "service_fault",
    "set_current_attempt",
    "shard_corrupt_fault",
    "store_fault",
    "torn_write_fault",
]

#: Exit status of an injected worker kill — distinctive in pool post-mortems.
KILL_EXIT_CODE = 23

_RUN_KINDS = ("raise", "kill", "hang")
_SERVICE_KINDS = ("daemon_kill",)
_STORE_KINDS = ("shard_torn", "shard_corrupt")
_DEGRADED_KINDS = ("disk_full", "lease_stolen")
_FILE_KINDS = ("store_flip", "journal_torn") + _STORE_KINDS \
    + _SERVICE_KINDS + _DEGRADED_KINDS
_ENV_VAR = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """The exception raised by ``"raise"``-kind injections."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    ``match`` filters targets by substring (a ``run_id`` for run faults, a
    file path for file faults; empty matches everything).  ``probability``
    thins the matched set deterministically (hash of the target, not RNG
    state).  ``times`` bounds firing: run faults fire only while the run's
    attempt number is ``<= times`` (so retries past it succeed — a transient
    fault); file faults fire on the first ``times`` matching writes per
    process.  ``hang_seconds`` is the ``"hang"`` kind's sleep.
    """

    kind: str
    match: str = ""
    probability: float = 1.0
    times: int = 1
    hang_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in _RUN_KINDS + _FILE_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{_RUN_KINDS + _FILE_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.times < 1:
            raise ValueError("times must be a positive fire budget")


class FaultPlan:
    """An armed set of :class:`FaultSpec`s plus the determinism salt."""

    def __init__(self, faults: Iterable[FaultSpec], salt: int = 0) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.salt = int(salt)
        #: per-fault fire counts of the (process-local) file faults.
        self._file_fired: Dict[int, int] = {}

    def _selects(self, fault: FaultSpec, target: str) -> bool:
        """Deterministic match: substring filter + target-hash thinning."""
        if fault.match and fault.match not in target:
            return False
        if fault.probability >= 1.0:
            return True
        if fault.probability <= 0.0:
            return False
        # A cryptographic hash, not CRC32: CRC's GF(2)-linearity makes a
        # salt change XOR every target's digest by the same constant, which
        # leaves threshold decisions largely (at p=0.5: entirely) unchanged.
        digest = hashlib.sha256(
            f"{self.salt}|{fault.kind}|{fault.match}|{target}".encode())
        return int.from_bytes(digest.digest()[:8], "big") / 2**64 \
            < fault.probability

    def run_faults(self, run_id: str, attempt: int) -> List[FaultSpec]:
        """The run faults that fire for ``run_id`` at this attempt number."""
        return [fault for fault in self.faults
                if fault.kind in _RUN_KINDS and attempt <= fault.times
                and self._selects(fault, run_id)]

    def fire_file_faults(self, kinds: Sequence[str],
                         target: str) -> List[FaultSpec]:
        """Counter-gated file faults firing for ``target`` (and charge them)."""
        fired: List[FaultSpec] = []
        for index, fault in enumerate(self.faults):
            if fault.kind not in kinds or not self._selects(fault, target):
                continue
            if self._file_fired.get(index, 0) >= fault.times:
                continue
            self._file_fired[index] = self._file_fired.get(index, 0) + 1
            fired.append(fault)
        return fired

    def to_json(self) -> str:
        """The ``REPRO_FAULTS`` form of this plan (for spawned workers)."""
        return json.dumps({
            "salt": self.salt,
            "faults": [{"kind": f.kind, "match": f.match,
                        "probability": f.probability, "times": f.times,
                        "hang_seconds": f.hang_seconds}
                       for f in self.faults]})


_UNSET = object()
_plan: Optional[FaultPlan] = None
_env_plan: object = _UNSET
#: Attempt number of the run currently executing in this process — set by the
#: executors' retry wrapper so ``times``-bounded run faults can distinguish a
#: first attempt from a retry without any cross-process state.
_attempt = 1


def _parse_env(raw: str) -> FaultPlan:
    data = json.loads(raw)
    if isinstance(data, list):
        data = {"faults": data}
    return FaultPlan((FaultSpec(**fault) for fault in data.get("faults", ())),
                     salt=int(data.get("salt", 0)))


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, if any (programmatic first, then ``REPRO_FAULTS``)."""
    global _env_plan
    if _plan is not None:
        return _plan
    if _env_plan is _UNSET:
        raw = os.environ.get(_ENV_VAR)
        _env_plan = _parse_env(raw) if raw else None
    return _env_plan  # type: ignore[return-value]


def arm_faults(*faults: FaultSpec, salt: int = 0) -> FaultPlan:
    """Arm a fault plan in this process (and its future ``fork`` children)."""
    global _plan
    _plan = FaultPlan(faults, salt=salt)
    return _plan


def disarm_faults() -> None:
    """Disarm every fault in this process (programmatic and environment)."""
    global _plan, _env_plan
    _plan = None
    _env_plan = None


@contextmanager
def injected_faults(*faults: FaultSpec, salt: int = 0):
    """Context manager: arm ``faults`` for the block, restore afterwards."""
    global _plan
    previous = _plan
    _plan = FaultPlan(faults, salt=salt)
    try:
        yield _plan
    finally:
        _plan = previous


def set_current_attempt(attempt: int) -> None:
    """Record the attempt number of the run about to execute (see module doc)."""
    global _attempt
    _attempt = max(1, int(attempt))


def current_attempt() -> int:
    return _attempt


# ---------------------------------------------------------------------- #
# injection sites
# ---------------------------------------------------------------------- #
def maybe_fail_run(run_id: str) -> None:
    """Run-fault injection site (called by ``execute_run``); no-op unarmed."""
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.run_faults(run_id, _attempt):
        if fault.kind == "raise":
            raise InjectedFault(
                f"injected failure in {run_id} (attempt {_attempt})")
        if fault.kind == "hang":
            time.sleep(fault.hang_seconds)
        elif fault.kind == "kill":
            os._exit(KILL_EXIT_CODE)


def describe_run_faults(run_id: str, attempts: int) -> str:
    """Which armed run faults fired for ``run_id`` over ``attempts`` tries.

    Because firing is a pure function of ``(salt, fault, run_id, attempt)``,
    this is computable from *any* process holding the plan — including the
    parent of a worker that the fault just killed.  The result is a compact
    attribution string like ``"kill@1,kill@2"`` (kind @ attempt number),
    empty when no plan is armed or nothing fired: exactly what a
    :class:`~repro.sweep.records.FailedRun` wants to carry so a chaos
    failure is explicable from the record alone.
    """
    plan = active_plan()
    if plan is None:
        return ""
    fired = []
    for attempt in range(1, max(1, int(attempts)) + 1):
        for fault in plan.run_faults(run_id, attempt):
            fired.append(f"{fault.kind}@{attempt}")
    return ",".join(fired)


def _flip_byte(path: str) -> None:
    """Invert one mid-file byte — content damage that keeps the size intact."""
    size = os.path.getsize(path)
    if size == 0:
        return
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        byte = handle.read(1)
        handle.seek(size // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))


def store_fault(path: str) -> None:
    """Store-fault injection site (called on an entry's written temp file)."""
    plan = active_plan()
    if plan is None:
        return
    if plan.fire_file_faults(("store_flip",), path):
        _flip_byte(path)


def service_fault(site: str) -> None:
    """Daemon-crash injection site (called at named points in the service).

    ``site`` is the match target — e.g. ``"registry:done:j000001"`` right
    after the journal append of a job's ``done`` transition, or ``"drain"``
    as a graceful shutdown starts draining.  Counter-gated per process like
    the file faults (moot for a kill, meaningful if more service kinds grow).
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.fire_file_faults(_SERVICE_KINDS, site):
        if fault.kind == "daemon_kill":
            os._exit(KILL_EXIT_CODE)


def torn_write_fault(kind: str, path: str, line_length: int,
                     tag: str = "") -> None:
    """Torn-write site of a line log (between a line's write and its fsync).

    ``kind`` is the log's fault kind: ``"journal_torn"`` for the job
    journal, ``"shard_torn"`` for a record shard (both append through
    :class:`repro.store.lines.LineFile`).  The match target is
    ``f"{path}#{tag}"``, so a plan can tear the append of one journal event
    (``tag`` is ``"<event>:<job_id>"``) or one shard line
    (``"record:<run_id>"``, ``"failed:<run_id>"``, ``"spec:"`` or
    ``"seal:"``).  Firing truncates
    the just-written line roughly in half — the prefix a crashed
    ``write(2)`` can leave behind — and then kills the process (see the
    module docstring: a torn write without a crash would be self-inflicted
    mid-file corruption).
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fire_file_faults((kind,), f"{path}#{tag}"):
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(size - line_length // 2 - 1, 0))
        os._exit(KILL_EXIT_CODE)


def shard_corrupt_fault(path: str) -> None:
    """Latent shard-corruption site (called after a shard flush lands).

    Unlike ``shard_torn`` this models *disk* damage, not a crash: one
    mid-file byte of the flushed shard is flipped and the process keeps
    running.  The store's next open must detect the digest mismatch and
    quarantine the shard (keeping its intact lines) rather than crash.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fire_file_faults(("shard_corrupt",), path):
        _flip_byte(path)


def disk_full_fault(path: str, tag: str = "") -> None:
    """Disk-exhaustion site (called *before* a durability write).

    The match target is ``f"{path}#{tag}"`` — tags name the write class
    (``"journal:<event>"``, ``"shard:<run_id>"``, ``"store"``), so a plan
    can exhaust one subsystem's disk and not another's.  Firing raises
    ``OSError(ENOSPC)`` exactly as a full filesystem would; ``times`` bounds
    how many writes fail before space "returns", after which the caller's
    backlog-drain path must replay everything it deferred.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fire_file_faults(("disk_full",), f"{path}#{tag}"):
        raise OSError(errno.ENOSPC,
                      f"No space left on device (injected at {tag or path})",
                      path)


def lease_fault(path: str) -> None:
    """Lease-theft site (called right after a heartbeat renewal lands).

    Rewrites the lease file with a foreign owner and a fresh heartbeat —
    the observable state an operator ``--force`` takeover or split-brain
    peer leaves behind.  The legitimate holder must detect the foreign
    owner on its next heartbeat read and fence itself (stop writing,
    degrade, drain) rather than fight for the file.  The payload matches
    :mod:`repro.service.lease`'s schema.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fire_file_faults(("lease_stolen",), path):
        payload = json.dumps({"owner": "injected:thief:0", "pid": 0,
                              "host": "injected-thief",
                              "heartbeat_ts": time.time()})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())

