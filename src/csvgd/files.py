"""Artifact files: one atomic text writer, and JSON text in pieces.

Every file a run writes goes through ``write_text_atomically``, so an
interrupted write (a full disk, a signal) leaves the previous file whole and
no ``.tmp`` beside it.  ``json_pieces`` gives the text of ``json.dumps`` one
array row at a time, so a checkpoint of the whole ensemble never holds more
than one row's Python floats or text.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

__all__ = ["json_pieces", "write_csv_atomically", "write_text_atomically"]


def write_text_atomically(path, text) -> None:
    """Write ``text`` (a string, or an iterable of string pieces written in
    turn) to ``<name>.tmp`` beside ``path``, then rename it over ``path``: an
    interrupted write leaves the previous file whole and removes the ``.tmp``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            for piece in [text] if isinstance(text, str) else text:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_atomically(path, rows) -> None:
    """Write rows of strings with ``csv.writer``'s dialect (``\\r\\n`` line
    ends), atomically."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    write_text_atomically(path, buf.getvalue())


def json_pieces(doc):
    """Yield the text of ``json.dumps(doc)`` in pieces, for a ``doc`` whose
    dicts may hold numpy arrays: each array is written as its ``.tolist()``
    would be, a 2-D or higher array one row at a time.

    The pieces join to exactly ``json.dumps`` of the same document with every
    array replaced by its ``.tolist()``.  Dict keys must be strings; any value
    that is neither a dict nor an array is one ``json.dumps`` piece.
    """
    if isinstance(doc, np.ndarray) and doc.ndim > 1:
        yield "["
        for i, row in enumerate(doc):
            if i:
                yield ", "
            yield from json_pieces(row)
        yield "]"
    elif isinstance(doc, np.ndarray):
        yield json.dumps(doc.tolist())
    elif isinstance(doc, dict):
        yield "{"
        for i, (key, value) in enumerate(doc.items()):
            if not isinstance(key, str):
                raise TypeError(f"json_pieces takes string keys, got {key!r}")
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from json_pieces(value)
        yield "}"
    else:
        yield json.dumps(doc)
