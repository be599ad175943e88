"""Vaccine-sentiment measurement and outbreak-risk simulation toolkit.

Classifies short-text vaccine sentiment, analyzes homophily on the
directed network of opinionated users, and simulates SEIR epidemics on
weighted contact networks under assortativity-constrained vaccination
distributions. The table layer below writes every pipeline file whole
and reports a malformed row or a repeated key of a table it reads as
``path:line:``. The errors the CLI reports, :class:`InputError` and the
hill-climb's :class:`StallError`, live here so that the CLI catches them
without importing the modules that raise them.
"""

import csv
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

__version__ = "0.1.0"


class InputError(ValueError):
    """A malformed input file; the message starts with ``path:line:``."""


class StallError(RuntimeError):
    """Hill-climb hit its rejected-swap limit before reaching the target."""

    def __init__(self, message: str, best_r: float, target_r: float):
        super().__init__(message)
        self.best_r = best_r
        self.target_r = target_r

    def __reduce__(self):  # a sweep worker's stall reaches the parent whole
        return type(self), (str(self), self.best_r, self.target_r)


def _replace(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Write through a sibling temp file and ``os.replace`` it over
    ``path``; if ``write`` raises, the temp file goes and ``path`` stays."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``."""
    _replace(path, lambda fh: fh.write(text))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Replace ``path`` with a CSV of ``header`` followed by ``rows``; a
    None field is written empty and a float as its ``repr``."""

    def write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _replace(path, write)


def _name(source: str | Path | Iterable[str]) -> object:
    """How errors name a table: a path as given, a file by its ``name``."""
    return source if isinstance(source, (str, os.PathLike)) else getattr(source, "name", "<input>")


def read_csv(
    source: str | Path | Iterable[str], header: Sequence[str], parse: Callable, expected: str
) -> Iterator[tuple[int, object]]:
    """Yield (line, ``parse(*fields)``) for each non-empty row of a CSV
    headed ``header``, read from a path or from an open text file or other
    iterable of lines; a wrong header or field count, or a ValueError from
    ``parse``, raises InputError ``name:line: expected <expected>, got …``,
    where ``name`` is the path or the file's ``name``."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8", errors="replace") as fh:
            yield from read_csv(fh, header, parse, expected)
        return
    name = _name(source)
    reader = csv.reader(source)
    first = next(reader, None)
    if first != list(header):
        raise InputError(f"{name}:1: expected header {','.join(header)}, got {first}")
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError
            value = parse(*row)
        except ValueError:
            raise InputError(
                f"{name}:{reader.line_num}: expected {expected}, got {','.join(row)!r}"
            ) from None
        yield reader.line_num, value


def read_mapping(
    source: str | Path | Iterable[str], header: Sequence[str], parse: Callable, expected: str
) -> dict:
    """The (key, value) pairs ``parse`` makes of the rows of a CSV read as by
    :func:`read_csv`, as a dict; a repeated key raises InputError ``name:line:``."""
    mapping: dict = {}
    for line, (key, value) in read_csv(source, header, parse, expected):
        if key in mapping:
            raise InputError(f"{_name(source)}:{line}: repeated {header[0]} {key!r}")
        mapping[key] = value
    return mapping
