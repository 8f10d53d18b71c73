"""The CLI contract as a property, for `verify --config`, the quadrature
options of `transform --ugrid` and `invert --step/--count`, the grid and
signal options of `generate`, the options of `filter`, and the input
files of `transform`, `filter` and `invert`.

Whatever JSON object the config file holds, `verify` runs in-process
(through click's `CliRunner`, under the suite's ``error::RuntimeWarning``)
and:

* lets no exception other than `SystemExit` escape;
* exits 0, 1 or 2;
* writes no report when it exits 2;
* on exit 0 or 1 writes a report that parses as strict JSON (no NaN or
  Infinity) and exits 1 exactly when a record failed.

Valid values stay small (n <= 128). The grid's |start| and span reach
1e308: the generators refuse a grid on which a sample's exponent
overflows, before any array arithmetic.

Whatever output grid the quadrature options name (NaN, infinities,
+-1e308, subnormal and negative steps, counts up to 4096), `transform`
and `invert` run in-process, let no exception other than `SystemExit`
escape and exit 0 or 2; exit 0 writes a file that reads back finite on
the named grid, and exit 2 writes none. `generate` keeps the same contract
whatever its grid (as above) and its --width, --rate, --carrier and
--center (NaN, infinities, +-1e308, negative and zero), `filter` whatever
its --passband (not numbers, infinite, empty, swapped, huge or around one
u point) and its --angle or --order (NaN, infinities, 0, multiples of pi
and +-1e308) on inputs of up to 4096 samples, and `transform`, `filter`
and `invert` whatever their input file holds (a header alone, truncated
rows, lone and mixed line ends, a blank line between rows, a non-uniform
axis, underscores in a number, non-ASCII bytes and the control bytes
\\x0b, \\x0c and \\x1c-\\x1f).
"""

import dataclasses
import json
import math
import tempfile
from contextlib import suppress
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smfrft import (UniformGrid, fast_ugrid, gen_chirp, io_csv, make_angle,
                    smfrft_fast)
from smfrft.cli import cli
from smfrft.theorems import IdentityId, SuiteConfig

EXTENT = 1e308

# values of the wrong kind or out of range for every field
BAD = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -1.0, 2.5, "1",
       "", None, True, [], {}, [math.nan], [math.inf], [[0.0]], ["NOPE"],
       [None], [-1], [math.pi]]
NASTY = st.sampled_from([0.0, -0.0, 1.0, 1e-308, 1e150, -1e150, 1e308,
                         -1e308])

OPTIONAL = ("q_values", "pair_indices", "tolerance_fractional",
            "tolerance_pi_half", "tolerance_product")
LISTS = ("angles", "d_values", "q_values", "identities", "pair_indices")


def lists(elements):
    # one to three distinct entries; empty and repeated lists are bad values
    return st.lists(elements, min_size=1, max_size=3, unique=True)


@st.composite
def configs(draw):
    n = draw(st.integers(2, 128))
    # at span 3, q = 1e308 passes the carrier's q t but not the shift's q d
    span = draw(st.sampled_from([32.0, 1.0, 3.0, EXTENT])
                | st.floats(1e-6, EXTENT))
    # start and delays on the time lattice, so that they can be accepted
    lattice = st.integers(1 - n, n - 1).map(lambda k: k * (span / n))
    valid = {
        "n": st.just(n),
        "span": st.just(span),
        "start": lattice,
        "d_values": lists(lattice),
        "angles": lists(st.floats(0.1, 3.0)
                        | st.sampled_from([math.pi / 4, math.pi / 2, 1e-10])),
        "q_values": lists(NASTY | st.floats(-1e308, 1e308)),
        "identities": lists(st.sampled_from([i.value for i in IdentityId])),
        "pair_indices": lists(st.integers(0, 2)),
        "tolerance_fractional": st.floats(0.0, 1.0),
        "tolerance_pi_half": st.floats(0.0, 1.0),
        "tolerance_product": st.floats(0.0, 1.0),
    }
    assert set(valid) == {f.name for f in dataclasses.fields(SuiteConfig)}
    # most examples hold no bad field, so that the suite runs
    bad = draw(st.sampled_from([None] * 24 + list(valid)))
    config = {}
    for key, value in valid.items():
        # the defaults of the other keys are slow (N = 2048, all 15
        # identities over five angles) or off the drawn lattice
        if key in OPTIONAL and draw(st.booleans()):
            continue
        if key != bad:
            config[key] = draw(value)
        elif key in LISTS and draw(st.booleans()):
            config[key] = draw(value) * 2   # each entry twice
        else:
            config[key] = draw(st.sampled_from(BAD))
    extra = draw(st.sampled_from([None] * 18 + ["zero_floor", "bogus"]))
    if extra is not None:
        config[extra] = 1e-14
    return config


def refuse(constant):
    raise ValueError(f"report holds {constant}")


@given(config=configs())
@example(config={"q_values": [0.0, 1e308], "n": 64})
@example(config={"start": -1e152, "span": 2e152, "n": 64})
@example(config={"start": -1e200, "span": 2e200, "n": 64})
@example(config={"pair_indices": []})
@settings(max_examples=150, deadline=None)
def test_verify_config_keeps_the_exit_code_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "cfg.json"
        config_path.write_text(json.dumps(config))
        report = Path(tmp) / "report.json"
        result = CliRunner().invoke(cli, ["verify", "--config",
                                          str(config_path),
                                          "--output", str(report)])
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit), (
            result.exception)
        assert result.exit_code in (0, 1, 2), result.output
        if result.exit_code == 2:
            assert not report.exists()
            return
        rows = json.loads(report.read_text(), parse_constant=refuse)
        failed = any(not row["pass"] for row in rows)
        assert result.exit_code == (1 if failed else 0)


def run_command(args, output):
    """Invoke the CLI in-process; assert that it lets nothing but
    SystemExit escape, exits 0 or 2 and writes no output when it exits 2.
    Returns whether it exited 0."""
    result = CliRunner().invoke(cli, [*args, "--output", str(output)])
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), (
        result.exception)
    assert result.exit_code in (0, 2), result.output
    if result.exit_code == 2:
        assert not output.exists()
    return result.exit_code == 0


# grid values that overflow, vanish or are not numbers, and ordinary ones
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                         5e-324, -5e-324, 2.2e-308, 1e-300, 0.0, -0.0, 1e154,
                         1e-3])
STARTS = EDGES | st.floats(-1e3, 1e3) | st.floats(allow_nan=False)
STEPS = EDGES | st.floats(1e-4, 10.0) | st.floats(-10.0, 0.0) | st.floats()
COUNTS = st.sampled_from([-1, 0, 1, 2, 3, 4096]) | st.integers(2, 4096)
ANGLES = st.sampled_from([0.7, math.pi / 2, -2.0, 1e-6])


@pytest.fixture(scope="module")
def quadrature_inputs(tmp_path_factory):
    """A 64-sample signal's CSV file and its fast spectrum's."""
    root = tmp_path_factory.mktemp("quadrature")
    signal = gen_chirp(UniformGrid(-8.0, 0.25, 64), 1.3, 2.0)
    spectrum = smfrft_fast(signal, make_angle(0.7))
    io_csv.write_signal_csv(root / "x.csv", signal)
    io_csv.write_spectrum_csv(root / "s.csv", spectrum.ugrid, spectrum.values)
    return root


@given(invert=st.booleans(), start=STARTS, step=STEPS, count=COUNTS, phi=ANGLES)
@example(invert=False, start=-1e308, step=1e308, count=2, phi=0.7)
@example(invert=True, start=-1e308, step=1e308, count=2, phi=0.7)
@example(invert=False, start=0.0, step=1e308, count=3, phi=0.7)
@example(invert=True, start=0.0, step=5e-324, count=4096, phi=0.7)
@example(invert=False, start=1e154, step=1e150, count=64, phi=1e-6)
@settings(max_examples=150, deadline=None)
def test_quadrature_options_keep_the_exit_code_contract(quadrature_inputs, invert,
                                                        start, step, count, phi):
    if invert:
        source, read = "s.csv", io_csv.read_signal_csv
        options = [f"--start={start!r}", f"--step={step!r}", f"--count={count}"]
    else:
        source, read = "x.csv", io_csv.read_spectrum_csv
        options = [f"--ugrid={start!r}:{step!r}:{count}"]
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "out.csv"
        if not run_command(["invert" if invert else "transform", *options,
                            f"--angle={phi!r}", "--input",
                            str(quadrature_inputs / source)], output):
            return
        # the readers refuse a value that is not finite
        written = read(output)
        grid = written.grid if invert else written[0]
        assert grid.count == count and math.isclose(grid.start, start)


# generator parameters that overflow, are not numbers, or are negative or
# zero, and ordinary ones
PARAMETERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                              -1.0, 0.0, -0.0]) | st.floats(-50.0, 50.0)
# the options of each kind; one of the other kind is a usage error
KIND_OPTIONS = {"gaussian": ("center", "width", "carrier"), "chirp": ("rate", "width")}


def generate_options(kind):
    """``kind`` and some of its options, each drawn or left at its default."""
    grid = {"start": STARTS, "step": STEPS, "count": COUNTS}
    return st.tuples(st.just(kind), st.fixed_dictionaries({}, optional={
        **grid, **{name: PARAMETERS for name in KIND_OPTIONS[kind]}}))


@given(draw=st.sampled_from(sorted(KIND_OPTIONS)).flatmap(generate_options))
@example(draw=("gaussian", {"start": -1e308, "step": 1e308, "count": 2}))
@example(draw=("chirp", {"start": -1e154, "step": 1e152, "count": 64,
                         "rate": 1e-3}))
@example(draw=("chirp", {"rate": math.nan, "count": 4096}))
@example(draw=("chirp", {"carrier": 1.0}))
@settings(max_examples=150, deadline=None)
def test_generate_keeps_the_exit_code_contract(draw):
    kind, values = draw
    options = [f"--{name}={value!r}" for name, value in values.items()]
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "x.csv"
        if not run_command(["generate", "--kind", kind, *options], output):
            return
        # the reader refuses a value that is not finite; the default grid
        # is 2048 points from -16
        grid = io_csv.read_signal_csv(output).grid
        assert grid.count == values.get("count", 2048)
        assert math.isclose(grid.start, values.get("start", -16.0))


# passband bounds that are not numbers, overflow or are missing, and
# ordinary ones
BOUNDS = (st.sampled_from(["nan", "inf", "-inf", "", "1e308", "-1e308", "0"])
          | st.floats(-20.0, 20.0).map(repr))
# rotation angles (or orders) that are not numbers, overflow, vanish or put
# the angle on a multiple of pi, and ordinary ones
ROTATIONS = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                              math.pi, -math.pi, 2 * math.pi, 3 * math.pi,
                              1e6 * math.pi, 1e308, -1e308, 2.0, 4.0])
             | st.floats(-4.0, 4.0))


@st.composite
def filter_runs(draw):
    """A signal count, a passband and an --angle or --order option."""
    count = draw(st.sampled_from([2, 3, 4096]) | st.integers(2, 4096))
    ugrid = fast_ugrid(UniformGrid(-(count // 2) * 0.25, 0.25, count))
    form = draw(st.sampled_from(["bounds", "swapped", "point", "malformed"]))
    if form == "bounds":
        band = f"{draw(BOUNDS)}:{draw(BOUNDS)}"
    elif form == "malformed":
        band = draw(st.sampled_from(["", ":", "1.0", "1:2:3", "a:b"]))
    else:
        # around one u point (or exactly on it), or a band given hi:lo
        point = ugrid.point(draw(st.integers(0, count - 1)))
        half = draw(st.sampled_from([0.0, 0.25, 0.5])) * ugrid.step
        lo, hi = point - half, point + half
        band = f"{hi!r}:{lo!r}" if form == "swapped" else f"{lo!r}:{hi!r}"
    option = draw(st.sampled_from(["--angle", "--order"]))
    return count, band, f"{option}={draw(ROTATIONS)!r}"


@given(run=filter_runs())
@example(run=(4096, "-1e308:1e308", "--angle=1e308"))
@example(run=(64, "nan:1", "--order=1.0"))
@example(run=(64, "0.0:0.0", "--angle=0.7"))
@example(run=(64, "-1:1", f"--angle={math.pi!r}"))
@settings(max_examples=150, deadline=None)
def test_filter_keeps_the_exit_code_contract(run):
    count, band, rotation = run
    grid = UniformGrid(-(count // 2) * 0.25, 0.25, count)
    with tempfile.TemporaryDirectory() as tmp:
        source, output = Path(tmp) / "x.csv", Path(tmp) / "y.csv"
        io_csv.write_signal_csv(source, gen_chirp(grid, 1.3, 2.0))
        if run_command(["filter", f"--passband={band}", rotation,
                        "--input", str(source)], output):
            # the reader refuses a value that is not finite
            assert io_csv.read_signal_csv(output).grid == grid


# one command form per route through the readers: (arguments, source file,
# reader of the output)
FILE_COMMANDS = [
    (["transform", "--angle=0.7"], "x.csv", io_csv.read_spectrum_csv),
    (["transform", "--angle=0.7", "--ugrid=-4.0:0.5:16"], "x.csv",
     io_csv.read_spectrum_csv),
    (["filter", "--angle=0.7", "--passband=-2:2"], "x.csv",
     io_csv.read_signal_csv),
    (["invert", "--angle=0.7"], "s.csv", io_csv.read_signal_csv),
    (["invert", "--angle=0.7", "--step=0.25", "--count=64"], "s.csv",
     io_csv.read_signal_csv),
]
# what is dropped into a row: control bytes, non-ASCII ones, a lone \r
# and an underscore between digits
STRAY = st.sampled_from([b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
                         b"\xc3\xa9", b"\xff", b"\xc2\xa0", b"\xef\xbc\x91",
                         b"\r", b"1_0"])
ROW, AT = st.integers(1, 64), st.integers(0, 64)
# one damage to a CSV file: its kind and where (a row past the end is the
# last row, a position past the end of a row is its end)
DAMAGE = (st.tuples(st.just("header"))
          | st.tuples(st.just("truncate"), ROW, AT, st.booleans())
          | st.tuples(st.just("blank"), ROW)
          | st.tuples(st.just("axis"), ROW, st.sampled_from([1e-6, 0.01, 0.5]))
          | st.tuples(st.just("field"), ROW, st.integers(0, 2))
          | st.tuples(st.just("stray"), ROW, AT, STRAY))
# the line ends, taken in turn
ENDS = st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1,
                max_size=3)


def damage(text, damages, ends):
    """``text`` (a CSV file) with each of ``damages`` done in turn, its
    lines joined by ``ends`` in turn."""
    lines = text.encode().splitlines()
    for kind, *where in damages:
        if kind == "header":
            del lines[1:]
        if len(lines) < 2:
            continue
        row = min(where[0], len(lines) - 1)
        line = lines[row]
        if kind == "truncate":
            lines[row] = line[:min(where[1], max(len(line) - 1, 0))]
            if where[2]:
                del lines[row + 1:]
        elif kind == "blank":
            lines.insert(row, b"")
        elif kind == "axis":
            axis, comma, rest = line.partition(b",")
            with suppress(ValueError):
                lines[row] = repr(float(axis) + where[1]).encode() + comma + rest
        elif kind == "field":
            fields = line.split(b",")
            fields[min(where[1], len(fields) - 1)] = b"1_0"
            lines[row] = b",".join(fields)
        elif kind == "stray":
            at = min(where[1], len(line))
            lines[row] = line[:at] + where[2] + line[at:]
    return b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines))


@given(command=st.sampled_from(FILE_COMMANDS),
       damages=st.lists(DAMAGE, max_size=2), ends=ENDS)
@example(command=FILE_COMMANDS[0], damages=[("header",)], ends=[b"\n"])
@example(command=FILE_COMMANDS[2], damages=[], ends=[b"\r"])
@example(command=FILE_COMMANDS[3], damages=[], ends=[b"\n", b"\r\n", b"\r"])
@example(command=FILE_COMMANDS[4], damages=[("blank", 9)], ends=[b"\n"])
@example(command=FILE_COMMANDS[1], damages=[("field", 5, 0)], ends=[b"\n"])
@example(command=FILE_COMMANDS[0], damages=[("stray", 7, 0, b"\x1f")],
         ends=[b"\n"])
@settings(max_examples=200, deadline=None)
def test_input_files_keep_the_exit_code_contract(quadrature_inputs, command,
                                                 damages, ends):
    args, source, read = command
    text = (quadrature_inputs / source).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        damaged, output = Path(tmp) / source, Path(tmp) / "out.csv"
        damaged.write_bytes(damage(text, damages, ends))
        if run_command([*args, "--input", str(damaged)], output):
            # the readers refuse a value that is not finite
            read(output)
