"""The records CSV: one ``trial,latent,reading_1..N,outcome_1..N`` row per trial.

Writing and parsing run over the usable cores.  The writer cuts the blocks,
and the parser the file's rows, into contiguous parts; ``_fan_out`` runs the
first part in this process and each other part in a forked child, and the
parts are joined in order, so no byte of output and no message depends on
the number of parts.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import sys
import tempfile
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError
from .experiment import ExperimentConfig, TrialBlock, block_count, run_blocks
from .inference import MAX_DETECTORS, PatternTable

_BITS = frozenset((0, 1))
_BIT_STRINGS = ("0", "1")
_LATENTS = frozenset(("", "0", "1"))

#: Bytes of the file the parser reads at a time, so its memory does not grow with the file;
#: the parse has at most one part per this many bytes of file.
CHUNK_CHARS = 64 * 1024
#: Rows the writer joins into one string at a time.
PIECE_ROWS = 1024


def _workers(parts: int) -> int:
    """Workers for at most ``parts`` parts of work: no more than the usable cores; one on a platform other than Linux."""
    # multiprocessing's documentation calls fork unsafe on macOS, whose system libraries may start threads
    cores = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    return max(1, min(parts, cores))


def _fork() -> int:
    """``os.fork()``, without the warning Python 3.12+ gives when this process has other threads.

    The other threads are numpy's BLAS pool, idle while this thread forks;
    a child runs only this module's work and ends in ``os._exit``.  The
    filter keeps that ``DeprecationWarning`` out of shown and recorded
    warnings: pytest's summary, ``-W always``, a caller's
    ``catch_warnings(record=True)``.  It does not keep the fork from
    raising: under ``simplefilter("error")`` a bare fork did not raise on
    Python 3.12.1 and 3.13.0, which drop the warning then.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .*is multi-threaded", DeprecationWarning)
        return os.fork()


def _fan_out(work: Callable[[int], object], parts: int) -> list:
    """``[work(0), ..., work(parts - 1)]``, each part after the first run in a forked child.

    fork, not multiprocessing: a child starts at once from this process's
    state, and importing multiprocessing would cost more than a small part.
    A child sends back what ``work`` returns, or the exception it raises,
    pickled through a pipe, and ends in ``os._exit``.  This process runs
    part 0 and every part it could not fork, then raises the first child
    exception in part order, or RuntimeError for a child that ended without
    sending its outcome.  It reaps every child before it returns or raises.
    """
    # part -> its child's pid, until reaped; part -> the read end of its child's pipe, until read
    pids, pipes = {}, {}
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            try:
                pid = _fork()
            except OSError:  # no process to be had: the part runs here
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                _child(work, part, write, [read, *pipes.values()])
            os.close(write)
            pids[part] = pid
            pipes[part] = read
        results = [work(part) if part not in pipes else None for part in range(parts)]
        for part in list(pipes):
            with open(pipes.pop(part), "rb") as pipe:
                data = pipe.read()
            try:
                ok, results[part] = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # none or part of a result: the child died, as killed
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(part), 0)[1])
                ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                # not an OSError, which the commands report as a fault of their files
                raise RuntimeError(f"the worker of part {part} of {parts} ended without a result: {ended}") from None
            if not ok:
                raise results[part]
        return results
    finally:
        for read in pipes.values():  # a child still writing gets a broken pipe and ends
            os.close(read)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _child(work, part: int, write: int, inherited: list[int]) -> None:
    """In a forked child: run ``work(part)``, send its outcome through ``write``, and end the process."""
    try:
        for fd in inherited:  # a sibling's pipe held open here would never reach its end
            os.close(fd)
        try:
            outcome = True, work(part)
        except BaseException as exc:  # the parent raises it
            outcome = False, exc
        try:
            data = pickle.dumps(outcome)
        except Exception:  # an exception or result that does not pickle
            data = pickle.dumps((False, RuntimeError(f"part {part}: {outcome[1]!r} does not pickle")))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)  # never return into the caller's frames, which belong to the parent


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


def _write_records(fh, config: ExperimentConfig, spill_dir) -> PatternTable:
    """Write the row of every trial of ``config`` to the text file ``fh``, in trial order; their pattern table.

    The blocks are cut into contiguous parts, one per usable core at most.
    Part 0 is written to ``fh`` directly and every other part into a
    temporary file in ``spill_dir``, opened before the fork so that no part
    can be left behind; this process appends those files to ``fh`` in order
    once every part is done.
    """
    blocks = block_count(config.n_trials)
    parts = _workers(blocks)
    cuts = [-(-blocks * part // parts) for part in range(parts + 1)]
    scale = config.detector_model.reading_scale
    with contextlib.ExitStack() as stack:
        outs = [fh] + [
            stack.enter_context(tempfile.TemporaryFile("w+", newline="", dir=spill_dir)) for _ in range(1, parts)
        ]

        def write_part(part: int) -> PatternTable:
            out = outs[part]
            table = run_blocks(
                config, range(cuts[part], cuts[part + 1]), lambda block: out.writelines(_block_rows(block, scale))
            )
            out.flush()
            return table

        tables = _fan_out(write_part, parts)
        fh.flush()
        for spill in outs[1:]:
            spill.seek(0)
            shutil.copyfileobj(spill.buffer, fh.buffer)
    return PatternTable.merge(tables)


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


def _byte_fault(line: str) -> str | None:
    """The fault of a line that holds a byte that is not UTF-8, naming the first such byte; None for none."""
    if not line.isascii():
        for char in line:
            if "\udc80" <= char <= "\udcff":  # surrogateescape's escape of a byte; valid UTF-8 yields none
                return f"byte 0x{ord(char) - 0xDC00:02x} is not UTF-8"
    return None


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
    U+DC80..U+DCFF, which _byte_fault names) and splits as it would in the
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


def _row_cuts(fh) -> list:
    """Offsets that cut the binary file ``fh`` into ranges of whole lines, one per worker; ``fh`` is left at 0.

    The header is read as the parse reads it, and raises its fault; the
    first range starts at 0 and holds it.  Range k >= 1 starts where
    _line_end cuts the CHUNK_CHARS bytes before its share of the file, but
    not before the end of the header's chunk or the range before it; a
    share with no line end there joins the range before.  A file that
    cannot seek, as a pipe, is one range read to its end.
    """
    if not fh.seekable():
        return [0, math.inf]
    size = os.fstat(fh.fileno()).st_size
    _header(_numbered_lines(fh, 0, size))
    cuts, floor = [0], fh.tell()  # fh is past the header's line
    parts = _workers(size // CHUNK_CHARS)
    for part in range(1, parts):
        share = size * part // parts
        start = max(floor, cuts[-1], share - CHUNK_CHARS)
        fh.seek(start)
        if start < share and (cut := _line_end(fh.read(share - start))):
            cuts.append(start + cut)
    fh.seek(0)
    return cuts + [size]


def _parse_records_csv(path) -> PatternTable:
    """The outcome-pattern table of a records CSV.

    The header is checked first, then every row; trial indices must increase
    strictly, so duplicated rows or two concatenated runs cannot count their
    evidence twice.  The rows are cut into byte ranges at line ends, and
    each range is tallied by one worker (_fan_out, _tally_rows) up to its
    first fault; a byte that is not UTF-8 is a fault of its line.  The
    first faulty line is named by its number in the whole file, as a parse
    from the first line to the last would meet it.
    """
    try:
        with Path(path).open("rb") as fh:
            cuts = _row_cuts(fh)
            lines = _numbered_lines(fh, 0, cuts[1])
            n, header_line = _header(lines)

            def tally(part: int):
                if part == 0:  # this process has read the header off the first range
                    return _tally_rows(lines, n, header_line)
                with Path(path).open("rb") as own:  # a forked child shares fh's file offset
                    own.seek(cuts[part])
                    return _tally_rows(_numbered_lines(own, cuts[part], cuts[part + 1]), n)

            ranges = _fan_out(tally, len(cuts) - 1)
    except OSError as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc
    return _joined(ranges)


def _header(lines) -> tuple[int, int]:
    """The detector count and line number of the header in numbered lines: the first that is neither blank nor a comment."""
    for header_line, line in lines:
        if fault := _byte_fault(line):
            raise ConfigError("records", f"line {header_line}: {fault}")
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
    return n, header_line


def _order_fault(index: int, previous) -> str:
    return f"trial index {index} does not follow {previous}; indices must increase strictly"


def _tally_rows(lines, n: int, lineno: int = 0):
    """The rows of one range of a records CSV, given as its numbered lines after any header.

    Returns (pattern table or None when there is no row, first fault as
    (line, message) or None, first row as (line, index) or None, last index,
    number of the last line read).  Line numbers are the range's own;
    ``lineno`` is the number of the line before ``lines``.  The range is
    read up to its first fault, else to its end.

    A row's latent, readings and outcomes lie in its rest, the text after
    its first comma, so a row whose rest is in the memo of valid rests
    re-checks only its index.  The memo never holds more rests than it has
    had hits, so rows that never repeat leave at most one rest in it.
    """
    memo: dict[str, int] = {}
    patterns: dict[tuple[int, ...], int] = {}  # each distinct outcome tuple's entry in counts
    counts = []  # rows per entry
    hits = 0
    previous = -math.inf
    first = fault = None
    for lineno, line in lines:
        head, _, rest = line.partition(",")
        pattern = memo.get(rest)
        if pattern is not None:
            try:
                index = int(head)
                hits += 1
            except ValueError:  # a comment, or a bad index that the full check reports
                pattern = None
        if pattern is None:  # int() accepts no blank, commented or undecoded head, so a hit is none of them
            if byte_fault := _byte_fault(line):
                fault = lineno, byte_fault
                break
            if not line.strip() or line.startswith("#"):
                continue
            try:
                index, outcomes = _check_row(line.split(",", 2), n)
            except ValueError as exc:
                fault = lineno, str(exc)
                break
            if first is None:  # the first row misses the empty memo
                first = lineno, index
            pattern = patterns.setdefault(outcomes, len(patterns))
            if pattern == len(counts):
                counts.append(0)
            if len(memo) <= hits:
                memo[rest] = pattern
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
