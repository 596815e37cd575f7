"""The records CSV writer and parser against their plain reference implementations.

``oracles.repr_block_rows`` formats every value with repr/str and
``oracles.line_checker_parse`` checks every line in full; the package's
writer and parser must match them byte for byte and message for message.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import line_checker_parse, repr_block_rows
from multidetect.cli import _block_rows, _parse_records_csv, _records_header
from multidetect.errors import ConfigError
from multidetect.experiment import ExperimentConfig, TrialBlock, run_experiment
from multidetect.inference import PatternTable
from multidetect.rng import BLOCK_SIZE
from multidetect.state import make_amplitudes
from test_experiment import detector_model, scenario_for

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
        run_experiment(config, on_block=blocks.append)
        for block in blocks:
            assert _block_rows(block, scale) == repr_block_rows(block, scale)

    @FUZZ
    @given(hand_built_blocks())
    def test_special_values_match_repr_writer(self, case):
        block, scale = case
        with np.errstate(over="ignore"):  # 1e308 nA is an infinite reading, in both
            assert _block_rows(block, scale) == repr_block_rows(block, scale)

    def test_wide_rows_differing_in_their_first_reading(self):
        # 64 outcome columns alone span 2**64 row codes, so the first reading's share needs renumbering
        rng = np.random.default_rng(3)
        readings = np.zeros((300, 64))
        readings[:, 0] = rng.integers(0, 2, 300)
        outcomes = np.ones(readings.shape, dtype=np.int8)
        outcomes[::7] = 0
        block = TrialBlock(0, None, readings, outcomes)
        assert _block_rows(block, 1.0) == repr_block_rows(block, 1.0)

    def test_signed_zero_and_nan_payloads_kept_apart(self):
        readings = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [math.nan, -math.nan]] * 3)
        block = TrialBlock(5, None, readings, np.zeros(readings.shape, dtype=np.int8))
        rows = _block_rows(block, 1.0)
        assert rows == repr_block_rows(block, 1.0)
        assert rows.startswith("5,,0.0,-0.0,0,0\n6,,-0.0,0.0,0,0\n")


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
ODD_LATENTS = ["", "0", "1", "2", " ", "00", "-0", " 1", "x"]


@st.composite
def mutated_csvs(draw):
    n = draw(st.integers(1, 3))
    rows = draw(valid_rows(n))
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["field", "field", "latent", "comma+", "comma-", "duplicate", "swap", "copy-tail", "gap",
             "garbage"]
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
        elif kind == "gap":
            lines.insert(i, draw(st.sampled_from(["", "   ", "# a comment", "#", "\t"])))
        elif kind == "garbage":
            lines[i] = draw(st.text(alphabet="01,.-+e_ \tnaif#x", max_size=20))
    header = _records_header(n)
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from([header.replace("outcome_1", "outcome_0"), header + ",", "", "trial"]))
    preamble = draw(st.sampled_from([[], ["# multidetect-config: {}"], ["", "# x", "  "]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))
    return newline.join(preamble + [header] + lines) + end


def _oracle_table(path):
    """The pattern table of the line checker's outcome array."""
    return PatternTable.from_outcomes(line_checker_parse(path)[1])


def _outcome(parse, path):
    try:
        table = parse(path)
    except ConfigError as exc:
        return "error", exc.field, str(exc)
    return "ok", table


class TestParser:
    @settings(FUZZ, max_examples=300)
    @given(mutated_csvs())
    def test_matches_line_checker(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(_parse_records_csv, path) == _outcome(_oracle_table, path)

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
        ],
    )
    def test_first_fault_reported(self, tmp_path, lines, message):
        path = tmp_path / "records.csv"
        path.write_text("\n".join([_records_header(1), *lines]) + "\n")
        for parse in (_parse_records_csv, line_checker_parse):
            with pytest.raises(ConfigError, match="^records: ") as caught:
                parse(path)
            assert message in str(caught.value)
