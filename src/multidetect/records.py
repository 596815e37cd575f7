"""The records CSV, written and checked here alone: its config comment, its header and one row per trial."""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ResolvedConfig, canonical_json
from .errors import ConfigError
from .experiment import TrialBlock, _fan_out, _workers, block_count, run_blocks
from .inference import MAX_DETECTORS, PatternTable

_BITS = frozenset((0, 1))
_BIT_STRINGS = ("0", "1")
_LATENTS = frozenset(("", "0", "1"))

#: Bytes of the file the parser reads at a time, so its memory does not grow with the file;
#: the parse has at most one part per this many bytes of file.
CHUNK_CHARS = 64 * 1024
#: Rests a parse range's memo may hold beyond the hits it has had: a range checks each of its
#: first MEMO_SLACK + 1 distinct rests in full once, and rows that never repeat leave that many.
MEMO_SLACK = 256
#: Rests a parse range's memo holds at most, whatever its hits, so its memory does not grow with the file.
MEMO_CAP = 4096
#: Rows the writer joins into one string at a time.
PIECE_ROWS = 1024
CONFIG_COMMENT = "# multidetect-config: "


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
        distinct, row = np.unique(code, return_inverse=True)
        if 2 * len(distinct) <= size:
            # every row of one code is the same text, so any of them stands for it
            some = np.empty(len(distinct), dtype=np.intp)
            some[row] = np.arange(size)
            picked = [map(strings.__getitem__, index[some].tolist()) for strings, index in columns]
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


def _write_records(path, resolved: ResolvedConfig) -> PatternTable:
    """Write the records CSV of ``resolved`` to ``path``: its config comment, header and trials; their pattern table.

    The blocks are cut into contiguous parts, one per usable core at most.
    Part 0 is written to ``path`` directly and every other part into a
    temporary file beside it, opened before the fork so that no part
    can be left behind; this process appends those files in order
    once every part is done.  ``numpy.random`` is imported here, before
    the fork, so that each worker inherits it instead of importing it in
    its first ``block_rng`` alongside this process.
    """
    config, path = resolved.experiment, Path(path)
    blocks = block_count(config.n_trials)
    parts = _workers(blocks)
    cuts = [-(-blocks * part // parts) for part in range(parts + 1)]
    scale = config.detector_model.reading_scale
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(path.open("w", newline=""))
        fh.write(f"{CONFIG_COMMENT}{canonical_json(resolved.echo, compact=True)}\n{_records_header(config.n_detectors)}\n")
        outs = [fh] + [
            stack.enter_context(tempfile.TemporaryFile("w+", newline="", dir=path.parent)) for _ in range(1, parts)
        ]

        def write_part(part: int) -> PatternTable:
            out = outs[part]
            table = run_blocks(
                config, range(cuts[part], cuts[part + 1]), lambda block: out.writelines(_block_rows(block, scale))
            )
            out.flush()
            return table

        import numpy.random  # noqa: F401  (before the fork, so that every worker inherits it)

        tables = _fan_out(write_part, parts)
        fh.flush()
        for spill in outs[1:]:
            spill.seek(0)
            shutil.copyfileobj(spill.buffer, fh.buffer)
    return PatternTable.merge(tables)


def _check_row(line: str, n: int) -> tuple[int, tuple[int, ...]]:
    """A row's trial index and outcomes; ValueError with the message of its first fault.

    The row is split once, into 2n + 2 fields.  Faults are checked in this
    order: field count, trial index, readings, outcomes, latent, finite
    readings, 0/1 outcomes.  The index order is the caller's to check.
    """
    fields = line.split(",")
    if len(fields) != 2 * n + 2:
        raise ValueError(f"expected {2 * n + 2} fields, got {len(fields)}")
    index = int(fields[0])
    total = sum(map(float, fields[2 : n + 2]))
    outcomes = tuple(map(int, fields[n + 2 :]))
    if fields[1] not in _LATENTS:
        raise ValueError(f"latent must be empty, 0 or 1, got {fields[1]!r}")
    # nan or inf makes the sum non-finite, but so can finite readings that overflow it
    if not math.isfinite(total) and not all(map(math.isfinite, map(float, fields[2 : n + 2]))):
        raise ValueError("readings must be finite")
    if not _BITS.issuperset(outcomes):
        raise ValueError("outcomes must be 0 or 1")
    return index, outcomes


def _content(line: str) -> bool:
    """Whether a line is a header or row candidate, not blank or a comment; ValueError naming its first byte that is not UTF-8."""
    if not line.isascii():
        for char in line:
            if "\udc80" <= char <= "\udcff":  # surrogateescape's escape of a byte; valid UTF-8 yields none
                raise ValueError(f"byte 0x{ord(char) - 0xDC00:02x} is not UTF-8")
    return bool(line.strip()) and not line.startswith("#")


def _numbered_lines(fh, start: int, end: int) -> Iterator[tuple[int, str]]:
    """The lines of bytes ``start`` to ``end`` of the binary file ``fh``, which is at ``start``, numbered from 1."""
    return enumerate(chain.from_iterable(_line_runs(fh, start, end)), start=1)


def _line_end(data: bytes) -> int:
    """The offset after the last ``\\n`` of ``data``, or its last ``\\r`` but a final one, which may start ``\\r\\n``; else 0."""
    return max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1


def _line_runs(fh, start: int, end: int) -> Iterator[list[str]]:
    """The lines of bytes ``start`` to ``end`` of the binary file ``fh``, as str.splitlines gives them, in runs.

    The bytes are read CHUNK_CHARS at a time and cut where _line_end cuts
    a chunk.  No UTF-8 sequence holds byte 0x0A or 0x0D, so each run of
    bytes up to a cut decodes (a byte that is not UTF-8 as one of
    U+DC80..U+DCFF, which _content names) and splits as it would in the
    whole text.  A run is joined once, so time is linear in its length,
    and memory is bounded by the longest run: a file whose lines end only
    in ``\\f``, or another line end than ``\\n`` and ``\\r``, is one run.
    """
    carry = []  # the bytes since the last cut, in pieces
    while start < end and (data := fh.read(min(CHUNK_CHARS, end - start))):
        start += len(data)
        if cut := _line_end(data):
            lines = b"".join([*carry, data[:cut]]).decode("utf-8", "surrogateescape").splitlines()
            carry = [data[cut:]]  # before the yield, so a long line is not held as bytes and as text at once
            yield lines
        else:
            carry.append(data)
    yield b"".join(carry).decode("utf-8", "surrogateescape").splitlines()


def _row_cuts(fh, n: int) -> list:
    """Offsets that cut the binary file ``fh`` into ranges of whole lines, one per worker; ``fh`` is left at 0.

    A pipe is one range read to its end, and a file of one worker (under
    2 * CHUNK_CHARS bytes, or on one usable core) is [0, size], both
    planned without a read.  Else the header is checked as the parse checks
    it, before any fork; range k >= 1 starts where _line_end cuts the
    CHUNK_CHARS bytes before its share, not before the end of the header's
    chunk or the range before it; a share with no line end there adds no cut.
    """
    size = os.fstat(fh.fileno()).st_size if fh.seekable() else math.inf
    if size == math.inf or (parts := _workers(size // CHUNK_CHARS)) == 1:
        return [0, size]
    _header(_numbered_lines(fh, 0, size), n)
    cuts, floor = [0], fh.tell()  # fh is past the header's line
    for part in range(1, parts):
        share = size * part // parts
        start = max(floor, cuts[-1], share - CHUNK_CHARS)
        fh.seek(start)
        if start < share and (cut := _line_end(fh.read(share - start))):
            cuts.append(start + cut)
    fh.seek(0)
    return cuts + [size]


def _parse_records_csv(path, n: int) -> PatternTable:
    """The outcome-pattern table of a records CSV of ``n`` detectors.

    The header is checked first, then every row; trial indices must increase
    strictly, so duplicated rows or two concatenated runs cannot count their
    evidence twice.  The file is cut into byte ranges at line ends, and each
    range is read by one worker (_fan_out) up to its first fault, the first
    range's header by _header, then its rows by _tally_rows.  The first
    faulty line is named by its number in the whole file, as a parse from
    the first line to the last would meet it.
    """
    try:
        with Path(path).open("rb") as fh:
            cuts = _row_cuts(fh, n)

            def tally(part: int):
                if part == 0:  # fh, since a pipe can be opened only once; the first range holds the header
                    lines = _numbered_lines(fh, 0, cuts[1])
                    return _tally_rows(lines, n, _header(lines, n))
                with Path(path).open("rb") as own:  # a forked child shares fh's file offset
                    own.seek(cuts[part])
                    return _tally_rows(_numbered_lines(own, cuts[part], cuts[part + 1]), n)

            ranges = _fan_out(tally, len(cuts) - 1)
    except OSError as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc
    return _joined(ranges)


def _header(lines, n: int) -> int:
    """The line number of the header in numbered lines, the first that _content keeps, if it is of ``n`` detectors."""
    for header_line, line in lines:
        try:
            if _content(line):
                break
        except ValueError as exc:
            raise ConfigError("records", f"line {header_line}: {exc}") from None
    else:
        raise ConfigError("records", "no header row found")
    header = line.split(",")
    found = sum(1 for col in header if col.startswith("outcome_"))
    if found < 1 or line != _records_header(found):
        raise ConfigError("records", f"line {header_line}: malformed header {header!r}")
    if found > MAX_DETECTORS:
        raise ConfigError("records", f"{found} detectors exceed the packing limit of {MAX_DETECTORS}")
    if found != n:
        raise ConfigError("records", f"records have {found} detectors but config says {n}")
    return header_line


def _order_fault(index: int, previous) -> str:
    return f"trial index {index} does not follow {previous}; indices must increase strictly"


def _tally_rows(lines, n: int, lineno: int = 0):
    """The rows of one range of a records CSV, given as its numbered lines after any header.

    Returns (pattern table or None when there is no row, first fault as
    (line, message) or None, first row as (line, index) or None, last index,
    number of the last line read).  Line numbers are the range's own;
    ``lineno`` is the number of the line before ``lines``.  The range is
    read up to its first fault, else to its end; the ValueError of _content
    or _check_row is the fault of a line that misses the memo.

    A row's latent, readings and outcomes lie in its rest, the text after
    its first comma, so a row whose rest is in the memo of valid rests
    re-checks only its index.  A valid rest joins the memo while the memo
    holds no more than MEMO_SLACK rests beyond its hits, so each of the
    range's first MEMO_SLACK + 1 distinct rests is checked in full once.
    The memo never holds more than hits + MEMO_SLACK + 1 rests, nor more
    than MEMO_CAP: rows that never repeat leave at most MEMO_SLACK + 1 in
    it, and rows that repeat only in part no more than MEMO_CAP.
    """
    memo: dict[str, int] = {}
    patterns: dict[tuple[int, ...], int] = {}  # each distinct outcome tuple's entry in counts
    counts = []  # rows per entry
    room = MEMO_SLACK + 1  # rests the memo may still take: one more per hit
    previous = -math.inf
    first = fault = None
    for lineno, line in lines:
        head, _, rest = line.partition(",")
        pattern = memo.get(rest)
        if pattern is not None:
            try:
                index = int(head)
                room += 1
            except ValueError:  # a comment, or a bad index that the full check reports
                pattern = None
        if pattern is None:  # int() accepts no blank, commented or undecoded head, so a hit is none of them
            try:
                if not _content(line):
                    continue
                index, outcomes = _check_row(line, n)
            except ValueError as exc:
                fault = lineno, str(exc)
                break
            if first is None:  # the first row misses the empty memo
                first = lineno, index
            pattern = patterns.setdefault(outcomes, len(patterns))
            if pattern == len(counts):
                counts.append(0)
            if room and len(memo) < MEMO_CAP:
                memo[rest] = pattern
                room -= 1
        if index <= previous:
            fault = lineno, _order_fault(index, previous)
            break
        previous = index
        counts[pattern] += 1
    table = PatternTable.from_outcomes(np.array(list(patterns), dtype=np.int8), counts) if counts else None
    return table, fault, first, previous, lineno


def _joined(ranges) -> PatternTable:
    """The pattern table of a file's ranges, in order; ConfigError naming the first fault by its line in the file."""
    offset, previous, tables = 0, -math.inf, []
    for table, fault, first, last, lines in ranges:
        if first is not None and first[1] <= previous:
            fault = first[0], _order_fault(first[1], previous)
        if fault is not None:
            raise ConfigError("records", f"line {offset + fault[0]}: {fault[1]}")
        if table is not None:
            tables.append(table)
            previous = last
        offset += lines
    if not tables:
        raise ConfigError("records", "no trial rows found")
    return PatternTable.merge(tables)
