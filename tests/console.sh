#!/usr/bin/env bash
# The multidetect console commands as a user runs them: `multidetect` and `python` from PATH, in
# the current directory, which should be empty.  An ideal config that forks records workers, the
# Gaussian draws, and QPC exact (a CSV round trip, its diagnostics and a detector sweep).
#
#     cd "$(mktemp -d)" && bash <repo>/tests/console.sh
#
# Needs bash, GNU sed, tr and cmp.  CI runs it with the installed console script, and tier-1
# (tests/test_cli.py::test_console_script) with a shim over `python -m multidetect.cli`.
#
# -e: a command that exits nonzero, inconclusive (3) included, ends the script with its code.
# 13 blocks and a 2.8 MB records.csv: simulate and every infer fork workers on 2+ cores,
# the CR/LF and CR copies as the LF file, since a range may start after a lone \r.  Under PYTHONDEVMODE=1
# any warning, ResourceWarning included, reaches stderr, and anything on stderr fails the script.
set -eo pipefail
export PYTHONDEVMODE=1

exec 3>&2 2> stderr.txt
trap 'cat stderr.txt >&3' EXIT
# name the command that ended the script: a failing check itself prints nothing
trap 'echo "console.sh: line $LINENO exited $?" >&3' ERR
echo '{"state": {"p0": 0.3}, "scenario": {"kind": "unanimous"}, "detector_model": {"model": "ideal"},
       "n_detectors": 8, "n_trials": 50000, "seed": 1}' > ideal.json
multidetect simulate --config ideal.json --out run
multidetect infer --records run/records.csv --config ideal.json > verdict.json
# ideal.json draws the unanimous law (one shared bit per trial), and so must the verdict
test "$(python -c "import json, pathlib; print(json.loads(pathlib.Path('verdict.json').read_text())['decision'])")" = unanimous
# the same records with CR/LF and with CR line ends give the same verdict
sed 's/$/\r/' run/records.csv > crlf.csv
tr '\n' '\r' < run/records.csv > cr.csv
multidetect infer --records crlf.csv --config ideal.json | cmp - verdict.json
multidetect infer --records cr.csv --config ideal.json | cmp - verdict.json
# a pipe is one range, read once to its end, and gives the same verdict
cat run/records.csv | multidetect infer --records /dev/stdin --config ideal.json | cmp - verdict.json
# 1000 trials, a 53 KiB file: under 128 KiB it is one range, planned without a read, and read once
sed 's/"n_trials": 50000/"n_trials": 1000/' ideal.json > ideal-1000.json
multidetect simulate --config ideal-1000.json --out small
test "$(wc -c < small/records.csv)" -lt 131072
multidetect infer --records small/records.csv --config ideal-1000.json > small-verdict.json
cat small/records.csv | multidetect infer --records /dev/stdin --config ideal-1000.json | cmp - small-verdict.json
multidetect sweep --config ideal.json --field state.p0 --start 0.2 --stop 0.8 --steps 3 --out sweep.csv
# the Gaussian draw: QPC gaussian sampling on the benchmark's sim-qpc4 contacts (302 and 604 attempts),
# and the oscillator pointers of sweep-osc (X/dx = 3); neither config is outside a trusted regime
echo '{"state": {"p0": 0.5}, "scenario": {"kind": "binomial"}, "n_trials": 20000, "seed": 2,
       "detector_model": {"model": "qpc", "sampling": "gaussian", "detectors": [
         {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.4, "t1": 0.6},
         {"bias_voltage_uV": 50.0, "observation_time_ns": 25.0, "t0": 0.4, "t1": 0.6},
         {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.6, "t1": 0.4},
         {"bias_voltage_uV": 50.0, "observation_time_ns": 25.0, "t0": 0.6, "t1": 0.4}]}}' > qpc-gaussian.json
multidetect simulate --config qpc-gaussian.json --format json --out gaussian
echo '{"state": {"p0": 0.5}, "scenario": {"kind": "unanimous"}, "n_trials": 10000, "seed": 3,
       "detector_model": {"model": "oscillator", "unit_system": "natural", "detectors": [
         {"mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": 6.0, "relaxation_rate": 1.0, "measurement_time": 10.0},
         {"mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": 6.0, "relaxation_rate": 1.0, "measurement_time": 10.0}]}}' > osc.json
multidetect sweep --config osc.json --field state.p0 --start 0.2 --stop 0.8 --steps 3 --out osc-sweep.csv
# a physical-model CSV round trip: QPC exact on the sim-qpc4 contacts, 5 blocks and a 1.7 MB records.csv,
# so on 2+ cores the writer forks and the parse splits; its readings go through the writer's per-column
# index and its rows almost never repeat, where the ideal records above repeat nearly every row
sed -e 's/"gaussian"/"exact"/' -e 's/"seed": 2/"seed": 4/' qpc-gaussian.json > qpc-exact.json
multidetect simulate --config qpc-exact.json --out qpc
multidetect infer --records qpc/records.csv --config qpc-exact.json > qpc-verdict.json
# qpc-exact.json draws the binomial law (one bit per detector), and so must the verdict
test "$(python -c "import json, pathlib; print(json.loads(pathlib.Path('qpc-verdict.json').read_text())['decision'])")" = binomial
multidetect discriminability --config qpc-exact.json > qpc-disc.json
# a detector field named as config errors print it; 12.5 to 25 ns stays at 302 attempts or more, so no regime warning
multidetect sweep --config qpc-exact.json --field "detector_model.detectors[0].observation_time_ns" \
  --start 12.5 --stop 25 --steps 2 --out qpc-sweep.csv
# the same 4-detector records against the 8-detector ideal.json are refused at their header, with exit 1
code=0
multidetect infer --records qpc/records.csv --config ideal.json 2> mismatch.txt || code=$?
test "$code" = 1
grep -q 'records have 4 detectors but config says 8' mismatch.txt
# a repeated row far past the first range, with LF and with CR line ends: exit 1, naming its line in the file
sed '45002p' run/records.csv > bad.csv
tr '\n' '\r' < bad.csv > bad-cr.csv
for bad in bad.csv bad-cr.csv; do
  code=0
  multidetect infer --records "$bad" --config ideal.json 2> "$bad.txt" || code=$?
  test "$code" = 1
  grep -q 'records: line 45003: trial index 44999 does not follow 44999; indices must increase strictly' "$bad.txt"
done
# one command each: bash -e does not stop at a failing command that an && follows
test -s run/summary.json
test -s small-verdict.json
test -s sweep.csv
test -s gaussian/summary.json
test -s osc-sweep.csv
test -s qpc/summary.json
test -s qpc-disc.json
test -s qpc-sweep.csv
test ! -s stderr.txt
