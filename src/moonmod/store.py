"""The coefficient store: the record format, its one reader, and the files.

A stored record is one JSON line; CoefficientRecord.json_fields writes its
fields and from_json reads them back.  CoefficientCache.get is the one
place a stored record is read, and it refuses one made with a Dedekind sum
variant other than DEDEKIND_MODE.  Store files are append-only, a torn
last line is skipped and never rewritten, and appends from several
processes are serialised by a lock on the file.  CoefficientCache.put
appends one record, the line _encode writes, through a descriptor that it
opens by path, locks, writes and closes, so a file deleted since the last
append is created anew and no descriptor outlives its append.
bundled_cache layers a writable file over the packaged store, which is
only read: moonmod.cli refuses any cache file in DATA_DIR.
The module loads no engine and no numpy.
"""

from __future__ import annotations

import json
import os
import threading
from json.encoder import encode_basestring_ascii as _quote

from .chartab import DATA_DIR

# The Dedekind sum variant, classical s(d, c) = sum ((m/c)) ((m d/c)), as
# named in the mode field of stored records and of coeff output.
DEDEKIND_MODE = "classical"


def _encode(rec: dict) -> str:
    """The line of an appended record, json.dumps(rec, sort_keys=True), for
    rec the group and the json_fields of a CoefficientRecord.

    Written out field by field in key order: JSONEncoder.encode builds a
    C encoder on every call, which cost an append more than its writes.
    The strings are escaped by json's own encode_basestring_ascii, and the
    integers and the residual print as json prints them, by int.__repr__
    and float.__repr__; a stored residual is finite, at most a gate's
    tolerance.
    """
    return (f'{{"c_max_used": {int.__repr__(rec["c_max_used"])}, '
            f'"class": {_quote(rec["class"])}, "gate": {_quote(rec["gate"])}, '
            f'"group": {_quote(rec["group"])}, "mode": {_quote(rec["mode"])}, '
            f'"n": {int.__repr__(rec["n"])}, "residual": {float.__repr__(rec["residual"])}, '
            f'"value": {_quote(rec["value"])}}}')


class CoefficientRecord:
    __slots__ = ("class_name", "n", "value", "residual", "c_max_used", "gate")

    def __init__(self, class_name: str, n: int, value: int, residual: float,
                 c_max_used: int, gate: str) -> None:
        self.class_name = class_name
        self.n = n
        self.value = value
        self.residual = residual
        self.c_max_used = c_max_used
        self.gate = gate  # "dip" (residual tolerance met) or "stability"

    def json_fields(self) -> dict:
        """The fields of a stored record and of coeff --format json."""
        return {
            "class": self.class_name,
            "n": self.n,
            "value": str(self.value),
            "residual": self.residual,
            "c_max_used": self.c_max_used,
            "mode": DEDEKIND_MODE,
            "gate": self.gate,
        }

    @classmethod
    def from_json(cls, rec: dict) -> CoefficientRecord:
        """The record of stored fields, the inverse of json_fields."""
        return cls(rec["class"], int(rec["n"]), int(rec["value"]),
                   float(rec["residual"]), int(rec["c_max_used"]),
                   rec.get("gate", "dip"))


class RecordModeError(ValueError):
    """A stored record made with a Dedekind sum variant other than DEDEKIND_MODE."""

    def __init__(self, rec: dict):
        super().__init__(
            f"cached record {rec['class']} n={rec['n']} has mode {rec.get('mode')!r}, "
            f"not {DEDEKIND_MODE!r}")


class CoefficientCache:
    """Append-only ldjson record store, keyed by (group, class, n)."""

    def __init__(self, path: str | os.PathLike | None):
        self.path = os.fspath(path) if path is not None else None
        self.records: dict[tuple[str, str, int], dict] = {}
        self.hits = 0
        self._lock = threading.Lock()
        if self.path and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            self.seed(fh.read().splitlines())

    def __len__(self) -> int:
        return len(self.records)

    def get(self, group: str, class_name: str, n: int) -> dict | None:
        """The stored fields of a record, or None; RecordModeError if the
        record was made with another Dedekind sum variant."""
        rec = self.records.get((group, class_name, n))
        if rec is not None:
            if rec.get("mode") != DEDEKIND_MODE:
                raise RecordModeError(rec)
            self.hits += 1
        return rec

    def put(self, group: str, class_name: str, n: int, record: CoefficientRecord) -> None:
        rec = {"group": group, **record.json_fields()}
        with self._lock:
            if (group, class_name, n) in self.records:
                return
            if self.path:
                import fcntl

                line = (_encode(rec) + "\n").encode("utf-8")
                # Writes through the descriptor until the whole line is in the
                # file; after a torn tail line the record starts on a line of
                # its own.  A write that takes no byte raises, and the record
                # is not kept.  The file is opened by path on every append, so
                # one deleted since the last append is created anew.  The
                # file lock keeps another process from appending between the
                # check and the write; closing the descriptor releases it.
                fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    end = os.lseek(fd, 0, os.SEEK_END)
                    if end and os.pread(fd, 1, end - 1) != b"\n":
                        line = b"\n" + line
                    view = memoryview(line)
                    while view:
                        written = os.write(fd, view)
                        if not written:
                            raise OSError(f"short write to {self.path}: "
                                          f"{len(view)} of {len(line)} bytes not written")
                        view = view[written:]
                finally:
                    os.close(fd)
            self.records[(group, class_name, n)] = rec

    def seed(self, lines) -> None:
        """Merge parsed records from an iterable of ldjson lines (no writes).

        The first record of a key wins; lines that do not parse, and records
        whose key, value, residual or c_max_used do not read, or whose n,
        value or c_max_used is a JSON float or boolean, are skipped.
        The lines are parsed as one JSON array when no value can run past
        its line: with no '[' and a '{' only at each line's start nothing
        nests, and a string cannot hold the separator's raw newline.  That
        parse is kept if it has one element per line; otherwise (a torn
        line, two values on one line) each line is parsed alone.
        """
        lines = [line for line in lines if line.strip()]
        text = "\n,".join(lines)
        recs = None
        if ("[" not in text and text.startswith("{")
                and text.count("{") == len(lines) == text.count("\n,{") + 1):
            try:
                recs = json.loads("[" + text + "]")
            except ValueError:
                pass
        if recs is None or len(recs) != len(lines):
            recs = []
            for line in lines:
                try:
                    recs.append(json.loads(line))
                except ValueError:
                    continue
        for rec in recs:
            try:
                n, value, c_max_used = rec["n"], rec["value"], rec["c_max_used"]
                key = (rec["group"], rec["class"], int(n))
                int(value), float(rec["residual"]), int(c_max_used)
            except (ValueError, KeyError, TypeError):
                continue
            # int() reads a JSON float or bool as a truncated integer.
            if (type(n) in (bool, float) or type(value) in (bool, float)
                    or type(c_max_used) in (bool, float)):
                continue
            self.records.setdefault(key, rec)


def bundled_cache(path: str | os.PathLike | None = None) -> CoefficientCache:
    """Cache seeded from the packaged store.  Records in the file at path
    win over packaged ones, and fresh ones are appended to that file only;
    with path=None they are kept for the session, not persisted."""
    cache = CoefficientCache(path)
    store = os.path.join(DATA_DIR, "m24_coeffs.ldjson")
    if os.path.isfile(store):
        with open(store, "r", encoding="utf-8") as fh:
            cache.seed(fh.read().splitlines())
    return cache

