"""The records CSV: one ``trial,latent,reading_1..N,outcome_1..N`` row per trial.

Writing and parsing run over the usable cores.  The writer cuts the blocks,
and the parser the file's rows, into contiguous parts; ``_fan_out`` runs the
first part in this process and each other part in a forked child, and the
parts are joined in order, so no byte of output and no message depends on
the number of parts.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import math
import os
import pickle
import shutil
import tempfile
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError
from .experiment import ExperimentConfig, TrialBlock, block_count, run_blocks
from .inference import MAX_DETECTORS, PatternTable

_BITS = frozenset((0, 1))
_BIT_STRINGS = ("0", "1")
_LATENTS = frozenset(("", "0", "1"))
# every character that ends a line for str.splitlines
_LINE_ENDS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")

#: Bytes of the file the parser reads at a time, so its memory does not grow with the file;
#: a part of the parse has at least this many bytes of rows.
CHUNK_CHARS = 64 * 1024
#: Rows the writer joins into one string at a time.
PIECE_ROWS = 1024
#: Bytes the writer copies from a part's temporary file at a time.
COPY_BYTES = 64 * 1024


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _workers(parts: int) -> int:
    """Workers for at most ``parts`` parts of work: no more than the usable cores; one where there is no ``os.fork``."""
    cores = _usable_cores() if hasattr(os, "fork") else 1
    return max(1, min(parts, cores))


def _fork() -> int:
    """``os.fork()``, without the warning Python 3.12+ gives when this process has other threads.

    The other threads are numpy's BLAS pool, idle while this thread forks;
    a child runs only this module's work and ends in ``os._exit``.  Where
    warnings are errors, as under pytest, the warning can make the fork
    raise in this process after the child has started.
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
            shutil.copyfileobj(spill.buffer, fh.buffer, COPY_BYTES)
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


def _text_chunks(fh, start: int, end: int) -> Iterator[str]:
    """The text of bytes ``start`` to ``end`` of the binary file ``fh``, which is at ``start``, decoded as UTF-8.

    The bytes are read CHUNK_CHARS at a time, and line ends are translated
    as in a file opened in text mode, so a ``\\r\\n`` that a chunk cuts
    comes out as one ``\\n``.
    """
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    while start < end and (data := fh.read(min(CHUNK_CHARS, end - start))):
        start += len(data)
        yield decoder.decode(data)
    yield decoder.decode(b"", final=True)


def _line_chunks(chunks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of a text given in chunks, as str.splitlines gives them, one list per chunk.

    A last line that a chunk cuts is carried into the next.  A ``\\r\\n``
    that a chunk cuts must come as one ``\\n``, as _text_chunks gives it.
    """
    carry = ""
    for chunk in chunks:
        if text := carry + chunk:
            lines = text.splitlines()
            carry = "" if text[-1] in _LINE_ENDS else lines.pop()
            yield lines
    if carry:
        yield [carry]


def _numbered_lines(fh, start: int, end: int) -> Iterator[tuple[int, str]]:
    """The lines of bytes ``start`` to ``end`` of the binary file ``fh``, which is at ``start``, numbered from 1."""
    return enumerate(chain.from_iterable(_line_chunks(_text_chunks(fh, start, end))), start=1)


def _row_cuts(fh) -> list:
    """Offsets that cut the binary file ``fh`` into ranges of whole lines, one per worker; ``fh`` is left at 0.

    The first range starts at 0 and holds the header; the others start
    after a ``\\n`` and hold at least CHUNK_CHARS bytes of rows each.  When
    the header's line does not end in ``\\n`` within CHUNK_CHARS bytes of
    the line before it, the whole file is one range, and a file that
    cannot seek, as a pipe, is one range read to its end.
    """
    if not fh.seekable():
        return [0, math.inf]
    size = os.fstat(fh.fileno()).st_size
    cuts = [0]
    while (line := fh.readline(CHUNK_CHARS)).endswith(b"\n"):
        if any(text.strip() and not text.startswith("#") for text in line.decode("utf-8", "replace").splitlines()):
            rows = fh.tell()
            parts = _workers((size - rows) // CHUNK_CHARS)
            for part in range(1, parts):
                fh.seek(max(rows + (size - rows) * part // parts, cuts[-1]) - 1)
                while (line := fh.readline(CHUNK_CHARS)) and not line.endswith(b"\n"):
                    pass
                if cuts[-1] < fh.tell() < size:
                    cuts.append(fh.tell())
            break
    fh.seek(0)
    return cuts + [size]


def _parse_records_csv(path) -> PatternTable:
    """The outcome-pattern table of a records CSV.

    The header is checked first, then every row; trial indices must increase
    strictly, so duplicated rows or two concatenated runs cannot count their
    evidence twice.  The rows are cut into byte ranges at line ends, and
    each range is tallied by one worker (_fan_out, _tally_rows).  A file
    that is not UTF-8 is reported before any other fault, as if it had been
    decoded whole first; otherwise the first faulty line is named by its
    line number in the whole file, as a parse from the first line to the
    last would meet it.
    """
    try:
        with Path(path).open("rb") as fh:
            cuts = _row_cuts(fh)
            lines = _numbered_lines(fh, 0, cuts[1])
            try:
                n, header_line = _header(lines)
            except ConfigError:
                # the whole file must decode before the header's fault is told
                for _ in chain(lines, _text_chunks(fh, cuts[1], cuts[-1])):
                    pass
                raise

            def tally(part: int):
                if part == 0:  # this process has read the header off the first range
                    return _tally_rows(lines, n, header_line)
                with Path(path).open("rb") as own:  # a forked child shares fh's file offset
                    own.seek(cuts[part])
                    return _tally_rows(_numbered_lines(own, cuts[part], cuts[part + 1]), n)

            ranges = _fan_out(tally, len(cuts) - 1)
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            # the decoder counts bytes from the start of its chunk; a whole-file decode names the file's offset
            try:
                Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc
    return _joined(ranges)


def _header(lines) -> tuple[int, int]:
    """The detector count and line number of the header in numbered lines: the first that is neither blank nor a comment."""
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
    return n, header_line


def _order_fault(index: int, previous) -> str:
    return f"trial index {index} does not follow {previous}; indices must increase strictly"


def _tally_rows(lines, n: int, lineno: int = 0):
    """The rows of one range of a records CSV, given as its numbered lines after any header.

    Returns (pattern table or None when there is no row, first fault as
    (line, message) or None, first row as (line, index) or None, last index,
    number of the range's last line).  Line numbers are the range's own;
    ``lineno`` is the number of the line before ``lines``.  After a fault
    the rest of the range is still decoded, as UTF-8 faults come first.

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
        if pattern is None:  # int() accepts no blank or commented head, so a hit is neither
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
    for _ in lines:
        pass
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
