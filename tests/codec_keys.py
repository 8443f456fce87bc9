"""Codec coverage: a reader reads every key its writer wrote, and no other.

A round trip (``read(write(x)) == x``) catches a key the reader wants
and the writer never wrote. It cannot see a written key nothing reads:
dead weight that hides schema rot. :func:`assert_reads_every_key` hands
the reader the written payload behind a recorder of the keys it asks
for, through nested dicts and lists, then compares the two key sets.
"""

from collections.abc import Mapping, Sequence


def key_paths(value, path=""):
    """Every dict key path in ``value``; list elements share ``[]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"{path}.{key}"
            yield from key_paths(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from key_paths(item, f"{path}[]")


def _recorded(value, path, seen):
    if isinstance(value, dict):
        return _ReadMap(value, path, seen)
    if isinstance(value, (list, tuple)):
        return _ReadSeq(value, path, seen)
    return value


class _ReadMap(Mapping):
    """A read-only dict that notes each key asked for, present or not
    (``get`` and ``in`` ask through ``__getitem__``)."""

    def __init__(self, data, path, seen):
        self._data, self._path, self._seen = data, path, seen

    def __getitem__(self, key):
        self._seen.add(f"{self._path}.{key}")
        return _recorded(self._data[key], f"{self._path}.{key}", self._seen)

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class _ReadSeq(Sequence):
    def __init__(self, data, path, seen):
        self._data, self._path, self._seen = data, path, seen

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _ReadSeq(self._data[index], self._path, self._seen)
        return _recorded(self._data[index], f"{self._path}[]", self._seen)

    def __len__(self):
        return len(self._data)


def assert_reads_every_key(read, written):
    """Run ``read(written)`` through the recorder; the key paths it
    asked for must be exactly the ones ``written`` holds."""
    seen: set[str] = set()
    read(_recorded(written, "", seen))
    wrote = set(key_paths(written))
    assert seen == wrote, (f"written, never read: {sorted(wrote - seen)}; "
                           f"read, never written: {sorted(seen - wrote)}")
