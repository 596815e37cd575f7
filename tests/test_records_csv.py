"""The records CSV writer and parser against their plain reference implementations.

``oracles.repr_block_rows`` formats every value with repr/str and
``oracles.line_checker_parse`` checks every line in full; the package's
writer and parser must match them byte for byte and message for message.
"""

import json
import math
import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import line_checker_parse, repr_block_rows
from multidetect import records
from multidetect.cli import main
from multidetect.records import PIECE_ROWS, _block_rows, _parse_records_csv, _records_header
from multidetect.errors import ConfigError
from multidetect.experiment import ExperimentConfig, TrialBlock, block_count, run_blocks
from multidetect.inference import PatternTable
from multidetect.experiment import BLOCK_SIZE
from multidetect.state import make_amplitudes
from test_experiment import detector_model, scenario_for
from test_output_contract import CASES

FUZZ = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# -0.0 and 0.0 are equal as floats, and so are NaNs with different payloads,
# but their bit patterns differ
SPECIAL_READINGS = [
    0.0, -0.0, 1.0, -1.0, 0.1, 0.30000000000000004, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf,
    math.nan, _bits_to_float(0x7FF8000000000001), _bits_to_float(0xFFF8000000000000),
]


@st.composite
def hand_built_blocks(draw):
    """A TrialBlock whose readings come from a drawn pool, so they repeat or not."""
    size = draw(st.integers(1, 64))
    n = draw(st.integers(1, 4))
    pool = draw(
        st.lists(st.sampled_from(SPECIAL_READINGS) | st.floats(allow_nan=True), min_size=1, max_size=80)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size * n, max_size=size * n))
    readings = np.array([pool[i] for i in picks], dtype=float).reshape(size, n)
    bits = st.lists(st.integers(0, 1), min_size=size * n, max_size=size * n)
    outcomes = np.array(draw(bits), dtype=np.int8).reshape(size, n)
    latent = None
    if draw(st.booleans()):
        latent = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.int8)
    block = TrialBlock(draw(st.integers(0, 10**12)), latent, readings, outcomes)
    return block, draw(st.sampled_from([1.0, 1e9]))


def written(block, scale):
    """The pieces _block_rows gives for a block, joined; each must hold 1 to PIECE_ROWS whole rows."""
    pieces = list(_block_rows(block, scale))
    for piece in pieces:
        assert piece.endswith("\n") and 0 < piece.count("\n") <= PIECE_ROWS
    return "".join(pieces)


class TestWriter:
    @settings(FUZZ, max_examples=60)
    @given(
        model=st.sampled_from(["ideal", "oscillator", "qpc-exact", "qpc-gaussian"]),
        law=st.sampled_from(["unanimous", "binomial", "custom"]),
        n_trials=st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3]),
        n=st.integers(2, 5),
        p0=st.floats(0.0, 1.0),
        weight=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_engine_blocks_match_repr_writer(self, model, law, n_trials, n, p0, weight, seed):
        config = ExperimentConfig(
            state=make_amplitudes(math.sqrt(p0), 0, math.sqrt(1 - p0), 0),
            scenario=scenario_for(law, p0, n, weight),
            detector_model=detector_model(model, n),
            n_trials=n_trials,
            n_detectors=n,
            seed=seed,
        )
        scale = config.detector_model.reading_scale
        blocks = []
        run_blocks(config, range(block_count(n_trials)), blocks.append)
        for block in blocks:
            assert written(block, scale) == repr_block_rows(block, scale)

    @FUZZ
    @given(hand_built_blocks())
    def test_special_values_match_repr_writer(self, case):
        block, scale = case
        with np.errstate(over="ignore"):  # 1e308 nA is an infinite reading, in both
            assert written(block, scale) == repr_block_rows(block, scale)

    def test_wide_rows_differing_in_their_first_reading(self):
        # 64 outcome columns alone span 2**64 row codes, so the first reading's share needs renumbering
        rng = np.random.default_rng(3)
        readings = np.zeros((300, 64))
        readings[:, 0] = rng.integers(0, 2, 300)
        outcomes = np.ones(readings.shape, dtype=np.int8)
        outcomes[::7] = 0
        block = TrialBlock(0, None, readings, outcomes)
        assert written(block, 1.0) == repr_block_rows(block, 1.0)

    def test_signed_zero_and_nan_payloads_kept_apart(self):
        readings = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [math.nan, -math.nan]] * 3)
        block = TrialBlock(5, None, readings, np.zeros(readings.shape, dtype=np.int8))
        rows = written(block, 1.0)
        assert rows == repr_block_rows(block, 1.0)
        assert rows.startswith("5,,0.0,-0.0,0,0\n6,,-0.0,0.0,0,0\n")

    @pytest.mark.parametrize("repeating", [True, False], ids=["distinct-rows-joined-once", "every-row-joined"])
    def test_block_written_in_pieces(self, repeating):
        # both ways of formatting a block cut it into pieces of PIECE_ROWS rows and a remainder
        size = 2 * BLOCK_SIZE + 3
        rng = np.random.default_rng(7)
        readings = rng.integers(0, 2, (size, 2)).astype(float) if repeating else rng.normal(size=(size, 2))
        block = TrialBlock(0, None, readings, np.zeros(readings.shape, dtype=np.int8))
        pieces = list(_block_rows(block, 1.0))
        assert [piece.count("\n") for piece in pieces] == [PIECE_ROWS] * (size // PIECE_ROWS) + [3]
        assert "".join(pieces) == repr_block_rows(block, 1.0)

    @pytest.mark.parametrize("n_trials", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 1])
    @pytest.mark.parametrize("case", sorted(CASES))  # every law and detector model
    @settings(FUZZ, max_examples=2)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_records_identical_at_any_thread_count(self, tmp_path, monkeypatch, case, n_trials, seed):
        # one to three usable cores, so one to three parts cut at block boundaries
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CASES[case], "n_trials": n_trials, "seed": seed}))
        written = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            out = tmp_path / str(cores)
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            written.add((out / "records.csv").read_bytes())
        assert len(written) == 1


@st.composite
def valid_rows(draw, n):
    """Rows of a well-formed records CSV, as lists of field strings."""
    count = draw(st.integers(1, 12))
    unanimous = draw(st.booleans())
    pool = draw(st.lists(st.sampled_from(["0.0", "1.0", "-0.0", "2.5", "1e-300", "3.0000000000000004"]),
                         min_size=1, max_size=3))
    rows, index = [], draw(st.integers(0, 5))
    for _ in range(count):
        latent = draw(st.sampled_from(["0", "1"])) if unanimous else ""
        readings = [draw(st.sampled_from(pool)) for _ in range(n)]
        outcomes = [draw(st.sampled_from(["0", "1"])) for _ in range(n)]
        rows.append([str(index), latent, *readings, *outcomes])
        index += draw(st.integers(1, 3))
    return rows


# forms that float() or int() accept or reject, and that C number readers may treat otherwise
ODD_FIELDS = [
    "1_0", " 1 ", "+1", "1e3", "infinity", "-Infinity", "inf", "nan", "NaN", "-0.0", "", "0", "1",
    "2", "-1", "x", "0x10", "1.5", " 0", "0 ", "\t1", "00", "-0", "1e999", "١", "0.0", "1.0",
]
# every separator str.splitlines honours, \r\n included
LINE_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
SEPARATORS = [*LINE_ENDS, "\r\n"]
ODD_LATENTS = ["", "0", "1", "2", " ", "00", "-0", " 1", "x"]


@st.composite
def mutated_csvs(draw):
    """A records CSV of n detectors, its rows and at times its header mutated, and n."""
    n = draw(st.integers(1, 3))
    rows = draw(valid_rows(n))
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["field", "field", "latent", "comma+", "comma-", "duplicate", "swap", "copy-tail",
             "copy-rest", "gap", "garbage"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(",")
        if kind == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            lines[i] = ",".join(parts)
        elif kind == "latent" and len(parts) > 1:
            parts[1] = draw(st.sampled_from(ODD_LATENTS))
            lines[i] = ",".join(parts)
        elif kind == "comma+":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "," + lines[i][at:]
        elif kind == "comma-" and "," in lines[i]:
            at = draw(st.sampled_from([k for k, c in enumerate(lines[i]) if c == ","]))
            lines[i] = lines[i][:at] + lines[i][at + 1 :]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "copy-tail":
            # a repeated tail, good or bad, behind this row's own index and latent
            j = draw(st.integers(0, len(lines) - 1))
            lines[i] = ",".join(parts[:2] + lines[j].split(",", 2)[2:])
        elif kind == "copy-rest":
            # another line's text after its first comma, good or bad, behind this row's own index
            j = draw(st.integers(0, len(lines) - 1))
            lines[i] = parts[0] + "," + lines[j].partition(",")[2]
        elif kind == "gap":
            lines.insert(i, draw(st.sampled_from(["", "   ", "# a comment", "#", "\t", "\xa0", "\u3000"])))
        elif kind == "garbage":
            lines[i] = draw(st.text(alphabet="01,.-+e_ \tnaif#x" + LINE_ENDS, max_size=20))
    header = _records_header(n)
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from([header.replace("outcome_1", "outcome_0"), header + ",", "", "trial"]))
    preamble = draw(st.sampled_from([[], ["# multidetect-config: {}"], ["", "# x", "  "]]))
    # the parser cuts a file after a \n or a lone \r, so each line end gives ranges on several cores
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([newline, ""]))
    return newline.join(preamble + [header] + lines) + end, n


@st.composite
def split_csvs(draw):
    """A records CSV of n detectors as bytes, the offsets that cut it into 1 to 3 ranges of whole lines after its header, and n.

    At each cut a fault may sit on the last row before it or the first row
    after it: a wrong field count, a bad index, an index that does not
    increase across the cut, or a comment or blank line; any part, the
    config comment and header included, may hold a byte that is not UTF-8.
    """
    n = draw(st.integers(1, 3))
    lines = [",".join(row) for row in draw(valid_rows(n))]
    k = draw(st.integers(1, 3))
    at = sorted(draw(st.lists(st.integers(0, len(lines)), min_size=k - 1, max_size=k - 1)))
    ranges = [lines[a:b] for a, b in zip([0, *at], [*at, len(lines)])]
    for before, after in zip(ranges, ranges[1:]):
        kind = draw(st.sampled_from(["none", "fields", "index", "order", "order", "comment", "blank"]))
        rows, i = draw(st.sampled_from([(after, 0), (before, -1)]))
        if kind == "order" and before and after and before[-1].partition(",")[0].isdigit():
            last = int(before[-1].partition(",")[0])
            after[0] = f"{last - draw(st.integers(0, 1))},{after[0].partition(',')[2]}"
        elif kind in ("comment", "blank"):
            rows.insert(0 if i == 0 else len(rows), "# c" if kind == "comment" else draw(st.sampled_from(["", " "])))
        elif kind in ("fields", "index") and rows:
            rows[i] = rows[i] + ",0" if kind == "fields" else "x" + rows[i]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    parts = [f"# multidetect-config: {{}}{newline}{_records_header(n)}{newline}".encode()]
    parts += ["".join(line + newline for line in rows).encode() for rows in ranges]
    if draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, len(parts) - 1))
        at_byte = draw(st.integers(0, len(parts[j])))
        parts[j] = parts[j][:at_byte] + b"\xff" + parts[j][at_byte:]
    if draw(st.booleans()):
        parts[-1] = parts[-1].removesuffix(newline.encode())
    offsets = [sum(map(len, parts[:j])) for j in range(1, len(parts))]
    return b"".join(parts), offsets[1:], n


def _oracle_table(path):
    """The pattern table of the line checker's outcome array."""
    return PatternTable.from_outcomes(line_checker_parse(path)[1])


def _outcome(parse, path):
    try:
        table = parse(path)
    except ConfigError as exc:
        return "error", exc.field, str(exc)
    return "ok", table


def _read_lines(path):
    """Every line _numbered_lines gives for a file read as the parser reads it, CHUNK_CHARS bytes at a time."""
    with path.open("rb") as fh:
        return [line for _, line in records._numbered_lines(fh, 0, path.stat().st_size)]


# each separator at every offset from the line start, so at and across every chunk
# boundary for chunks of 1 to 7 characters, then runs of separators, which make empty lines
SPLIT_TEXT = "".join("ab,c"[: k % 4] + "x" * (k // 4) + sep for sep in SEPARATORS for k in range(8))
SPLIT_TEXT += "".join(a + b for a in SEPARATORS for b in SEPARATORS) + "\r\r\n\n\rend"


class TestLineChunks:
    @pytest.mark.parametrize("chunk_chars", range(1, 8))
    def test_every_prefix_split_as_splitlines(self, tmp_path, monkeypatch, chunk_chars):
        # each prefix ends the file at another place, inside a \r\n or after a separator included
        monkeypatch.setattr(records, "CHUNK_CHARS", chunk_chars)
        path = tmp_path / "text.csv"
        for end in range(len(SPLIT_TEXT) + 1):
            path.write_bytes(SPLIT_TEXT[:end].encode("utf-8"))
            assert _read_lines(path) == SPLIT_TEXT[:end].splitlines()

    @settings(FUZZ, max_examples=100)
    @given(text=st.text(alphabet="ab,#" + LINE_ENDS, max_size=40), chunk_chars=st.integers(1, 7))
    def test_any_text_split_as_splitlines(self, tmp_path, monkeypatch, text, chunk_chars):
        monkeypatch.setattr(records, "CHUNK_CHARS", chunk_chars)
        path = tmp_path / "text.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_lines(path) == text.splitlines()

    def test_chunks_of_the_default_size(self, tmp_path):
        # one line longer than a chunk, and lines that straddle the chunk boundaries
        text = "x" * (records.CHUNK_CHARS + 5) + "\r\n" + "".join(f"{i},\r\n" for i in range(30_000))
        path = tmp_path / "text.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_lines(path) == text.splitlines()


class TestParser:
    @staticmethod
    def check_against_line_checker(tmp_path, case):
        text, n = case
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda p: _parse_records_csv(p, n), path) == _outcome(_oracle_table, path)

    @settings(FUZZ, max_examples=300)
    @given(mutated_csvs())
    def test_matches_line_checker(self, tmp_path, case):
        self.check_against_line_checker(tmp_path, case)

    @settings(FUZZ, max_examples=300)
    @given(mutated_csvs())
    def test_matches_line_checker_in_tiny_chunks(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(records, "CHUNK_CHARS", 3)
        self.check_against_line_checker(tmp_path, case)

    @pytest.mark.parametrize("chunk_chars", [3, records.CHUNK_CHARS])
    @pytest.mark.parametrize("bad_bytes", [b"\xff", b"\xe2\x82"], ids=["invalid-start", "cut-at-end"])
    def test_undecodable_byte_a_fault_of_its_line(self, tmp_path, monkeypatch, chunk_chars, bad_bytes):
        # the bad byte ends the file, several chunks and read buffers past the first row
        monkeypatch.setattr(records, "CHUNK_CHARS", chunk_chars)
        path = tmp_path / "records.csv"
        rows = "".join(f"{i},,1.0,1\n" for i in range(1, 20_000))
        for first_row, message in [
            ("0,,x,1", "line 2: could not convert string to float: 'x'"),  # a faulty row before it is named
            ("0,,1.0,1", f"line 20002: byte {bad_bytes[0]:#04x} is not UTF-8"),  # else it is, at its line
        ]:
            path.write_bytes(f"{_records_header(1)}\n{first_row}\n{rows}".encode("utf-8") + bad_bytes)
            for parse in (lambda p: _parse_records_csv(p, 1), line_checker_parse):
                with pytest.raises(ConfigError) as caught:
                    parse(path)
                assert str(caught.value) == f"records: {message}"

    def test_long_line_read_in_linear_time(self, tmp_path, monkeypatch):
        # 16384 chunks of one line: joining the line anew for each chunk would take seconds
        monkeypatch.setattr(records, "CHUNK_CHARS", 64)
        path = tmp_path / "records.csv"
        path.write_text(f"{_records_header(1)}\n0,{'1' * 2**20}\n")
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="^records: line 2: expected 4 fields, got 2$"):
            _parse_records_csv(path, 1)
        assert time.perf_counter() - started < 2

    @settings(FUZZ, max_examples=200)
    @given(split_csvs())
    def test_split_parse_matches_serial_parse_and_line_checker(self, tmp_path, monkeypatch, case):
        data, offsets, n = case
        path = tmp_path / "records.csv"
        path.write_bytes(data)
        parse = lambda p: _parse_records_csv(p, n)
        serial = _outcome(parse, path)
        with monkeypatch.context() as patch:  # one example's cuts
            patch.setattr(records, "_row_cuts", lambda fh, n: [0, *offsets, len(data)])
            split = _outcome(parse, path)
        assert split == serial == _outcome(_oracle_table, path)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @settings(FUZZ, max_examples=100)
    @given(mutated_csvs())
    def test_matches_line_checker_on_any_core_count(self, tmp_path, monkeypatch, cores, case):
        # tiny chunks, so that the file's own cuts fall between any rows
        monkeypatch.setattr(records, "CHUNK_CHARS", 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        self.check_against_line_checker(tmp_path, case)

    # a config comment longer than a chunk, and comment lines past the first share of the file
    @pytest.mark.parametrize("preamble, n_rows", [(f"# {'x' * 197}\n", 60), ("# c\n" * 75, 40)], ids=["long", "many"])
    def test_long_preamble_cut_after_the_header(self, tmp_path, monkeypatch, preamble, n_rows):
        # the header's line ends past the first chunk; the rows after it, and only they, are cut into ranges
        monkeypatch.setattr(records, "CHUNK_CHARS", 64)
        path = tmp_path / "records.csv"
        rows = "".join(f"{i},,{i % 7}.5,{i % 2}\n" for i in range(n_rows))
        path.write_text(f"{preamble}{_records_header(1)}\n{rows}")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _parse_records_csv(path, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        with path.open("rb") as fh:
            assert len(records._row_cuts(fh, 1)) > 2
        assert _parse_records_csv(path, 1) == serial == _oracle_table(path)

    def test_fork_failure_parses_every_range_here(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        path.write_text(_records_header(1) + "\n" + "".join(f"{i},,{i}.5,1\n" for i in range(30_000)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        with path.open("rb") as fh:
            assert len(records._row_cuts(fh, 1)) == 4

        def no_fork():
            raise OSError("no process to be had")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _parse_records_csv(path, 1) == PatternTable.from_outcomes(np.ones((30_000, 1), dtype=np.int8))

    @staticmethod
    def counted(monkeypatch):
        """The header checks made and the lines decoded in this process, through records._header and records._line_runs."""
        seen = {"headers": 0, "lines": 0}
        header, line_runs = records._header, records._line_runs

        def counted_header(lines, n):
            seen["headers"] += 1
            return header(lines, n)

        def counted_runs(fh, start, end):
            for run in line_runs(fh, start, end):
                seen["lines"] += len(run)
                yield run

        monkeypatch.setattr(records, "_header", counted_header)
        monkeypatch.setattr(records, "_line_runs", counted_runs)
        return seen

    def test_one_range_read_once(self, tmp_path, monkeypatch):
        # a file under 2 * CHUNK_CHARS bytes is one range on any core count, and so is a pipe: neither is
        # planned by a read, so the parse checks the header once and decodes each of the 1002 lines once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        path = tmp_path / "records.csv"
        rows = [[str(i), str(i % 2), *[f"{i % 2}.0"] * 8, *[str(i % 2)] * 8] for i in range(1000)]
        path.write_text("\n".join(["# multidetect-config: {}", _records_header(8), *map(",".join, rows)]) + "\n")
        assert path.stat().st_size < 2 * records.CHUNK_CHARS
        expected = _oracle_table(path)
        seen = self.counted(monkeypatch)
        assert _parse_records_csv(path, 8) == expected
        assert seen == {"headers": 1, "lines": 1002}

        pipe = tmp_path / "records.fifo"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
        writer.start()
        seen.update(headers=0, lines=0)
        try:
            assert _parse_records_csv(pipe, 8) == expected
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert seen == {"headers": 1, "lines": 1002}

    @pytest.mark.parametrize(
        "header, message",
        [
            (_records_header(2), "records have 2 detectors but config says 1"),
            (_records_header(1) + ",", "line 2: malformed header ['trial', 'latent', 'reading_1', 'outcome_1', '']"),
        ],
        ids=["detector-count", "malformed"],
    )
    def test_cut_file_refuses_a_bad_header_before_any_fork(self, tmp_path, monkeypatch, header, message):
        # a file that will be cut has its header checked while its ranges are planned, once more by the parse
        monkeypatch.setattr(records, "CHUNK_CHARS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        made, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
        path = tmp_path / "records.csv"
        rows = "".join(f"{i},,{i % 7}.5,{i % 2}\n" for i in range(60))
        path.write_text(f"# multidetect-config: {{}}\n{_records_header(1)}\n{rows}")
        seen = self.counted(monkeypatch)
        assert _parse_records_csv(path, 1) == _oracle_table(path)
        assert (seen["headers"], len(made)) == (2, 2)
        path.write_text(f"# multidetect-config: {{}}\n{header}\n{rows}")
        seen["headers"] = 0
        with pytest.raises(ConfigError) as caught:
            _parse_records_csv(path, 1)
        assert str(caught.value) == f"records: {message}"
        assert (seen["headers"], len(made)) == (1, 2)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_memory_does_not_grow_with_the_file(self, tmp_path, newline):
        # a 4 MB file parses within a fixed bound, far below the file's size, whichever line end it uses
        path = tmp_path / "records.csv"
        rows = (f"{i},,{i % 3}.0,0.25,1.5,{i % 5}.0,{i % 2},1,0,1{newline}" for i in range(130_000))
        path.write_bytes((_records_header(4) + newline + "".join(rows)).encode())
        assert path.stat().st_size >= 4_000_000
        tracemalloc.start()
        try:
            table = _parse_records_csv(path, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_trials == 130_000
        assert peak < 2**20

    @pytest.mark.parametrize(
        "lines, message",
        [
            # the first row with a bad tail is named, not a later repeat of it
            (["0,,1.0,1", "1,,x,1", "2,,x,1"], "line 3: could not convert string to float: 'x'"),
            # field count comes before the index, the index before readings
            (["0,,1.0,1", "y,,1.0"], "line 3: expected 4 fields, got 3"),
            (["0,,1.0,1", "y,,x,1"], "line 3: invalid literal for int() with base 10: 'y'"),
            # readings and outcomes come before the latent, the latent before finiteness
            (["0,,1.0,1", "1,7,x,1"], "line 3: could not convert string to float: 'x'"),
            (["0,,1.0,1", "1,7,inf,1"], "line 3: latent must be empty, 0 or 1, got '7'"),
            (["0,,1.0,1", "1,,inf,2"], "line 3: readings must be finite"),
            # a memoised good tail still has its index order checked
            (["0,,1.0,1", "1,,1.0,1", "1,,1.0,1"], "line 4: trial index 1 does not follow 1"),
            # and its index and latent
            (["0,,1.0,1", "y,,1.0,1"], "line 3: invalid literal for int() with base 10: 'y'"),
            (["0,,1.0,1", "1,7,1.0,1"], "line 3: latent must be empty, 0 or 1, got '7'"),
            (["0,,1.0,1", "y,7,1.0,1"], "line 3: invalid literal for int() with base 10: 'y'"),
            # a comment whose text after two commas is a memoised tail is skipped, not scored
            (["0,,1.0,1", "#,,1.0,1", "0,,1.0,1"], "line 4: trial index 0 does not follow 0"),
            # and so is one whose text after its first comma is a memoised rest
            (["0,,1.0,1", "#0,,1.0,1", "0,,1.0,1"], "line 4: trial index 0 does not follow 0"),
            # a memo hit reads its index as int() does, and reports what int() rejects
            (["0,,1.0,1", " 2,,1.0,1", "2,,1.0,1"], "line 4: trial index 2 does not follow 2"),
            (["0,,1.0,1", "1_0,,1.0,1", "10,,1.0,1"], "line 4: trial index 10 does not follow 10"),
            (["0,,1.0,1", "1,,1.0,1", "y,,1.0,1"], "line 4: invalid literal for int() with base 10: 'y'"),
            # a blank line between two memo hits is skipped, also one of spaces
            (["0,,1.0,1", "1,,1.0,1", "   ", "2,,1.0,1", "2,,1.0,1"], "line 6: trial index 2 does not follow 2"),
        ],
    )
    def test_first_fault_reported(self, tmp_path, lines, message):
        path = tmp_path / "records.csv"
        path.write_text("\n".join([_records_header(1), *lines]) + "\n")
        for parse in (lambda p: _parse_records_csv(p, 1), line_checker_parse):
            with pytest.raises(ConfigError, match="^records: ") as caught:
                parse(path)
            assert message in str(caught.value)
