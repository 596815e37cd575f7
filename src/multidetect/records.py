"""The records CSV: one ``trial,latent,reading_1..N,outcome_1..N`` row per trial."""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .experiment import TrialBlock
from .inference import MAX_DETECTORS, PatternTable

_BITS = frozenset((0, 1))
_BIT_STRINGS = ("0", "1")
_LATENTS = frozenset(("", "0", "1"))
# every character that ends a line for str.splitlines
_LINE_ENDS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")

#: Characters of text the parser reads at a time, so its memory does not grow with the file.
CHUNK_CHARS = 64 * 1024
#: Rows the writer joins into one string at a time.
PIECE_ROWS = 1024


def _records_header(n_detectors: int) -> str:
    readings = ",".join(f"reading_{i + 1}" for i in range(n_detectors))
    outcomes = ",".join(f"outcome_{i + 1}" for i in range(n_detectors))
    return f"trial,latent,{readings},{outcomes}"


def _reading_strings(values: np.ndarray) -> tuple[list[str] | None, list[str] | np.ndarray]:
    """One column of readings as (distinct strings, per-row index into them).

    Values are told apart by bit pattern, which keeps -0.0 apart from 0.0.
    When more than half of them are distinct, indexing would not pay: the
    result is then (None, the repr of every value).
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(values):
        return None, list(map(repr, values.tolist()))
    return list(map(repr, distinct.view(np.float64).tolist())), inverse


def _block_rows(block: TrialBlock, scale: float) -> Iterator[str]:
    """CSV rows of one block, as repr of each reading and str of each bit give.

    The rows come in pieces of at most PIECE_ROWS rows each.  Formatting is
    the cost, so each column of readings formats each of its distinct
    values once, unless most of them differ, and when at most half of the
    rows are distinct, each distinct row after its index is joined once.
    """
    size = len(block.outcomes)
    if block.latent is None:
        columns = [(("",), np.zeros(size, dtype=np.intp))]
    else:
        columns = [(_BIT_STRINGS, block.latent)]
    columns += [_reading_strings(r) for r in (block.readings * scale).T]
    columns += [(_BIT_STRINGS, o) for o in block.outcomes.T]
    indices = range(block.start, block.start + size)
    pieces = [slice(at, at + PIECE_ROWS) for at in range(0, size, PIECE_ROWS)]

    if all(strings is not None for strings, _ in columns):
        # one code per distinct row, renumbered densely whenever the next column could overflow it
        code = np.zeros(size, dtype=np.int64)
        span = 1
        for strings, index in columns:
            if span * len(strings) >= 2**62:
                _, code = np.unique(code, return_inverse=True)
                span = size
            code = code * len(strings) + index
            span *= len(strings)
        _, first, row = np.unique(code, return_index=True, return_inverse=True)
        if 2 * len(first) <= size:
            picked = [map(strings.__getitem__, index[first].tolist()) for strings, index in columns]
            tails = [",".join(cells) + "\n" for cells in zip(*picked)]
            row = row.tolist()
            for piece in pieces:
                yield "".join([f"{i},{tails[r]}" for i, r in zip(indices[piece], row[piece])])
            return

    fields = [
        cells if strings is None else list(map(strings.__getitem__, cells.tolist()))
        for strings, cells in columns
    ]
    for piece in pieces:
        yield "\n".join(map(",".join, zip(map(str, indices[piece]), *[f[piece] for f in fields]))) + "\n"


def _check_row(parts: list[str], n: int) -> tuple[int, tuple[int, ...]]:
    """A row's trial index and outcomes; ValueError with the message of its first fault.

    ``parts`` is ``row.split(",", 2)``.  Faults are checked in this order:
    field count, trial index, readings, outcomes, latent, finite readings,
    0/1 outcomes.  The index order is the caller's to check.
    """
    fields = parts[-1].split(",")
    if len(parts) + len(fields) != 2 * n + 3:
        raise ValueError(f"expected {2 * n + 2} fields, got {len(parts) - 1 + len(fields)}")
    index = int(parts[0])
    total = sum(map(float, fields[:n]))
    outcomes = tuple(map(int, fields[n:]))
    if parts[1] not in _LATENTS:
        raise ValueError(f"latent must be empty, 0 or 1, got {parts[1]!r}")
    # nan or inf makes the sum non-finite, but so can finite readings that overflow it
    if not math.isfinite(total) and not all(map(math.isfinite, map(float, fields[:n]))):
        raise ValueError("readings must be finite")
    if not _BITS.issuperset(outcomes):
        raise ValueError("outcomes must be 0 or 1")
    return index, outcomes


def _line_chunks(fh) -> Iterator[list[str]]:
    """The lines of a text file as str.splitlines gives them, one list per chunk read.

    The file is read CHUNK_CHARS characters at a time, and a last line that
    a chunk cuts is carried into the next.  A ``\\r\\n`` that a chunk cuts
    needs the universal newlines of a file opened in text mode, which turn
    it into one ``\\n`` before it reaches this function.
    """
    carry = ""
    while chunk := fh.read(CHUNK_CHARS):
        text = carry + chunk
        lines = text.splitlines()
        carry = "" if text[-1] in _LINE_ENDS else lines.pop()
        yield lines
    if carry:
        yield [carry]


def _parse_records_csv(path) -> PatternTable:
    """The outcome-pattern table of a records CSV.

    The header is checked first, then every row; trial indices must increase
    strictly, so duplicated rows or two concatenated runs cannot count their
    evidence twice.  A row's latent, readings and outcomes lie in its rest,
    the text after its first comma, so a row whose rest is in the memo of
    valid rests re-checks only its index.  The memo never holds more rests
    than it has had hits, so rows that never repeat leave at most one rest in it.
    The file is read in chunks, but a file that is not UTF-8 is reported
    before any faulty row, as if it had been decoded whole first.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            try:
                return _parse_lines(enumerate(chain.from_iterable(_line_chunks(fh)), start=1))
            except ConfigError:
                while fh.read(CHUNK_CHARS):  # the rest must decode before the row's fault is told
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            # the decoder counts bytes from the start of its chunk; a whole-file decode names the file's offset
            try:
                Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc


def _parse_lines(lines) -> PatternTable:
    """The pattern table of a records CSV's numbered lines; see _parse_records_csv."""
    for header_line, line in lines:
        if line.strip() and not line.startswith("#"):
            header = line.split(",")
            break
    else:
        raise ConfigError("records", "no header row found")
    n = sum(1 for col in header if col.startswith("outcome_"))
    if n < 1 or ",".join(header) != _records_header(n):
        raise ConfigError("records", f"line {header_line}: malformed header {header!r}")
    if n > MAX_DETECTORS:
        raise ConfigError("records", f"{n} detectors exceed the packing limit of {MAX_DETECTORS}")

    memo: dict[str, int] = {}
    patterns: dict[tuple[int, ...], int] = {}  # each distinct outcome tuple's entry in counts
    counts = []  # rows per entry
    hits = 0
    previous = -math.inf
    for lineno, line in lines:
        head, _, rest = line.partition(",")
        pattern = memo.get(rest)
        if pattern is not None:
            try:
                index = int(head)
                hits += 1
            except ValueError:  # a comment, or a bad index that the full check reports
                pattern = None
        if pattern is None:  # int() accepts no blank or commented head, so a hit is neither
            if not line.strip() or line.startswith("#"):
                continue
            try:
                index, outcomes = _check_row(line.split(",", 2), n)
            except ValueError as exc:
                raise ConfigError("records", f"line {lineno}: {exc}") from exc
            pattern = patterns.setdefault(outcomes, len(patterns))
            if pattern == len(counts):
                counts.append(0)
            if len(memo) <= hits:
                memo[rest] = pattern
        if index <= previous:
            raise ConfigError(
                "records",
                f"line {lineno}: trial index {index} does not follow {previous}; "
                "indices must increase strictly",
            )
        previous = index
        counts[pattern] += 1
    if not counts:
        raise ConfigError("records", "no trial rows found")
    return PatternTable.from_outcomes(np.array(list(patterns), dtype=np.int8), counts)
