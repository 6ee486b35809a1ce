"""On-disk result cache for sweep points (``repro.cache``).

Re-running a figure or table bench replays dozens of simulations whose
inputs have not changed.  :class:`ResultCache` memoises each completed
(scheme, spec[, plan]) point on disk, keyed by a *stable content hash*
of the point plus a code-version salt, so unchanged points become
cache hits and edited simulator code invalidates everything at once.

Keying
------
The key is the SHA-256 of a canonical JSON document::

    {"salt": <code-version salt>,
     "scheme": "dosas",
     "spec": {...every WorkloadSpec field...},
     "plan": [...every PlannedRequest field...] | null}

Canonical means ``sort_keys=True`` with compact separators — dict
insertion order, dataclass field order and whitespace cannot perturb
the key.  The salt defaults to :func:`default_salt`, a hash of the
package version plus the source text of every module in the packages
that determine simulated results (:func:`salted_modules`): editing the
engine, the schemes, the runtime or any other module there changes the
salt and naturally invalidates stale entries.  Pass an explicit salt
to pin (or bust) the namespace by hand.

Entries are one JSON file per key (sharded by the key's first two hex
chars) holding the serialised :class:`~repro.core.SchemeResult` (a
:class:`~repro.core.PlanResult` adds its outcomes).  Numpy payloads
(kernel results) are stored as nested lists and come back as lists,
which is sufficient for every analysis consumer; the simulated
*numbers* round-trip exactly because JSON floats are IEEE doubles.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional, Union

_log = logging.getLogger("repro.cache")

from repro.core.planrun import PlanResult
from repro.core.schemes import RequestOutcome, Scheme, SchemeResult, WorkloadSpec
from repro.workload.generator import PlannedRequest, RequestPlan

__all__ = [
    "ResultCache",
    "default_salt",
    "point_key",
    "result_to_dict",
    "result_from_dict",
    "salted_modules",
]

#: Packages whose modules' source feeds :func:`default_salt`: every
#: module in them can change a simulated result.  The rest of
#: ``repro`` (analysis, cache, cli, lint, parallel, scenario)
#: orchestrates runs or reads their results, and the cache key already
#: carries everything they pass in.
_SALT_PACKAGES = (
    "repro.sim",
    "repro.cluster",
    "repro.pvfs",
    "repro.core",
    "repro.kernels",
    "repro.qos",
    "repro.straggler",
    "repro.faults",
    "repro.workload",
    "repro.obs",
)

_default_salt_memo: Optional[str] = None


def salted_modules() -> Dict[str, str]:
    """Module name → source path of every module :func:`default_salt` hashes.

    Found by listing each package's directory, so a module added to a
    salted package is salted without being imported or registered.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    out: Dict[str, str] = {}
    for package in _SALT_PACKAGES:
        directory = os.path.join(root, *package.split(".")[1:])
        for entry in sorted(os.listdir(directory)):
            stem, ext = os.path.splitext(entry)
            if ext != ".py":
                continue
            name = package if stem == "__init__" else f"{package}.{stem}"
            out[name] = os.path.join(directory, entry)
    return out


def default_salt() -> str:
    """Code-version salt: package version + simulator source digest.

    Computed once per process, on first use.  Falls back to the bare
    version string when module sources are unreadable (zipapp,
    stripped install).
    """
    global _default_salt_memo
    if _default_salt_memo is None:
        import repro

        h = hashlib.sha256(repro.__version__.encode())
        try:
            for name, path in sorted(salted_modules().items()):
                h.update(name.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        except OSError:
            h = hashlib.sha256(repro.__version__.encode())
        _default_salt_memo = h.hexdigest()[:16]
    return _default_salt_memo


def _jsonable(obj: Any) -> Any:
    """Plain-JSON view of a result payload (numpy-aware, recursive)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return _jsonable(tolist())
    item = getattr(obj, "item", None)
    if callable(item):
        return _jsonable(item())
    return repr(obj)


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_key(
    scheme: Scheme,
    spec: WorkloadSpec,
    plan: Optional[Union[RequestPlan, Iterable[PlannedRequest]]] = None,
    salt: Optional[str] = None,
) -> str:
    """Stable content hash identifying one sweep point."""
    doc = {
        "salt": default_salt() if salt is None else salt,
        "scheme": scheme.value,
        "spec": asdict(spec),
        "plan": None if plan is None else [asdict(r) for r in plan],
    }
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


# -- result (de)serialisation -------------------------------------------------

def result_to_dict(result: SchemeResult) -> dict:
    """JSON-safe document for a run's record (plan or scheme)."""
    d = asdict(result)
    d["scheme"] = result.scheme.value
    kind = "plan" if isinstance(result, PlanResult) else "scheme"
    return {"type": kind, "data": _jsonable(d)}


def result_from_dict(doc: dict) -> SchemeResult:
    """Inverse of :func:`result_to_dict`."""
    kind, data = doc["type"], dict(doc["data"])
    if kind not in ("scheme", "plan"):
        raise ValueError(f"unknown result document type {kind!r}")
    data["scheme"] = Scheme(data["scheme"])
    data["spec"] = WorkloadSpec(**data["spec"])
    if kind == "scheme":
        return SchemeResult(**data)
    data["outcomes"] = [
        RequestOutcome(**{**o, "request": PlannedRequest(**o["request"])})
        for o in data["outcomes"]
    ]
    return PlanResult(**data)


class ResultCache:
    """Directory of memoised sweep-point results.

    Parameters
    ----------
    root:
        Cache directory (created on first store).
    salt:
        Key-namespace salt; defaults to :func:`default_salt` so code
        edits invalidate old entries automatically.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        salt: Optional[str] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.salt = default_salt() if salt is None else salt
        #: Session counters of this cache object.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries that existed on disk but could not be used: counted
        #: and logged, never silently swallowed — a corrupted cache
        #: directory should be visible, not just slow.
        self.corrupt_entries = 0

    def key(
        self,
        scheme: Scheme,
        spec: WorkloadSpec,
        plan: Optional[RequestPlan] = None,
    ) -> str:
        """The point's content hash under this cache's salt."""
        return point_key(scheme, spec, plan, salt=self.salt)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[SchemeResult]:
        """The memoised result, or ``None`` on a miss.

        An entry that exists but cannot be read or decoded degrades to
        a miss *observably*: it increments ``corrupt_entries`` and
        logs a warning naming the entry and the cause, so a
        corrupted cache directory shows up instead of masquerading as
        a cold cache.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError) as exc:
            self._degrade(path, "unreadable entry", exc)
            return None
        try:
            result = result_from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            # Schema drift from an older version of the result format.
            self._degrade(path, "undecodable entry (schema drift?)", exc)
            return None
        self.hits += 1
        return result

    def _degrade(self, path: str, why: str, exc: Exception) -> None:
        """Count + log a corrupt entry, then treat it as a miss."""
        self.misses += 1
        self.corrupt_entries += 1
        _log.warning("result cache: %s %s treated as a miss: %s: %s",
                   why, path, type(exc).__name__, exc)

    def put(self, key: str, result: SchemeResult) -> None:
        """Store ``result`` under ``key`` (atomic rename, last wins)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = result_to_dict(result)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        n = 0
        try:
            shards: List[str] = sorted(os.listdir(self.root))
        except OSError:
            return 0
        for shard in shards:
            p = os.path.join(self.root, shard)
            if os.path.isdir(p):
                n += sum(1 for f in sorted(os.listdir(p))
                         if f.endswith(".json"))
        return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResultCache {self.root!r} salt={self.salt[:8]} "
            f"hits={self.hits} misses={self.misses}>"
        )
