import builtins
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiralpulse import Handedness, make_grid, population_trace, pulses_from_invariant, sps_schedule
from chiralpulse import _csvrows
from chiralpulse._csvrows import VECTOR_MIN_VALUES, format_rows
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS

TAILS = ("\n", ",1.5707963267949\n")


def _template(values, tail):
    """Reference: the ``%`` row template over the whole table."""
    row = ",".join(["%.15g"] * values.shape[1]) + tail
    return (row * len(values) % tuple(values.ravel().tolist())).encode()


def _nudged(x, ulps):
    """x moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.copysign(np.inf, ulps))
    return float(x)


# all finite floats, subnormals included: most print in exponent notation
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DECADES = st.builds(lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
                     st.floats(1.0, 10.0), st.integers(-5, 16), st.sampled_from((1.0, -1.0)))
# 16 significant digits ending in 5 sit on or next to a rounding tie at 15
_NEAR_TIES = st.builds(lambda digits, exponent, ulps: _nudged(float(f"{digits}5e{exponent}"), ulps),
                       st.integers(10 ** 14, 10 ** 15 - 1), st.integers(-21, 1),
                       st.integers(-1, 1))
_POWERS = st.builds(lambda exponent, ulps, sign: sign * _nudged(float(f"1e{exponent}"), ulps),
                    st.integers(-6, 16), st.integers(-1, 1), st.sampled_from((1.0, -1.0)))
_INTEGERS = st.one_of(st.sampled_from((0.0, -0.0)), st.integers(-10 ** 15, 10 ** 15).map(float))
VALUES = st.one_of(_FINITE, _DECADES, _NEAR_TIES, _POWERS, _INTEGERS)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 5), rows=st.integers(1, 12), tail=st.sampled_from(TAILS),
       data=st.data())
def test_vector_rows_are_the_template_bytes(width, rows, tail, data):
    # every table on the numpy path, fallback rows spliced in
    values = data.draw(st.lists(VALUES, min_size=width * rows, max_size=width * rows))
    table = np.array(values).reshape(rows, width)
    with mock.patch.object(_csvrows, "VECTOR_MIN_VALUES", 0):
        assert format_rows(table, tail) == _template(table, tail)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 5), offset=st.integers(-2, 2), tail=st.sampled_from(TAILS),
       drawn=st.lists(VALUES, min_size=1, max_size=8), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_are_the_template_bytes_at_the_size_cutoff(width, offset, tail, drawn, seed):
    # tables just below and above VECTOR_MIN_VALUES: fixed-notation values
    # over twelve decades, with the drawn values at random places
    rng = np.random.default_rng(seed)
    rows = VECTOR_MIN_VALUES // width + offset
    table = rng.uniform(-10.0, 10.0, (rows, width)) * 10.0 ** rng.integers(-4, 9, (rows, width))
    table.flat[rng.integers(0, table.size, len(drawn))] = drawn
    assert format_rows(table, tail) == _template(table, tail)


@pytest.mark.parametrize("tail", TAILS)
def test_vector_rows_on_the_rounding_edges(tail):
    # ties at 15 digits (x.5 above 1e14), carries to the next exponent, the
    # bounds of fixed notation and their neighbours, signed zeros, non-finite
    edges = [100000000000000.5, 100000000000001.5, 999999999999999.5, 999999999999998.5,
             1e15, 9.999999999999999e14, 9.9999999999999995e-5, 1e-4, 1.0000000000000001e-4,
             9.999999999999995, 0.5, 0.25, 0.125, 1.5, 2.5, -0.0, 0.0, 1e-5, 123456.0,
             0.1 + 0.2, 1 / 3, 2 / 3, np.pi, np.inf, -np.inf, np.nan]
    values = np.array(edges + [_nudged(x, s) for x in edges[:16] for s in (-1, 1)])
    values = np.concatenate([values, -values])
    for width in (1, 2, 4):
        table = values[:len(values) // width * width].reshape(-1, width)
        with mock.patch.object(_csvrows, "VECTOR_MIN_VALUES", 0):
            assert format_rows(table, tail) == _template(table, tail)


@pytest.mark.parametrize("error", [-1e-12, 1e-12])
def test_vector_rows_correct_an_exponent_estimate_one_off(error, monkeypatch):
    # a log10 that is 1e-12 off puts values within ~2e-12 of a power of ten
    # in the neighbouring decade; the exact product must move them back
    powers = 10.0 ** np.arange(-4, 15)
    values = np.concatenate([powers * (1 + j * 1e-13) for j in range(-20, 21)])
    values = np.concatenate([values, [_nudged(x, s) for x in powers for s in (-2, -1, 1, 2)]])
    table = values[:len(values) // 2 * 2].reshape(-1, 2)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
    with mock.patch.object(_csvrows, "VECTOR_MIN_VALUES", 0):
        assert format_rows(table, "\n") == _template(table, "\n")


def test_csv_writers_end_lines_in_a_bare_line_feed(tmp_path, monkeypatch):
    # emulate a platform whose text mode writes "\r\n"; binary writes pass unchanged
    text_open = builtins.open

    def crlf_open(file, mode="r", *args, **kwargs):
        if "b" not in mode and "w" in mode and kwargs.get("newline") is None:
            kwargs["newline"] = "\r\n"
        return text_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", crlf_open)
    schedule = sps_schedule(1.0)
    pulses_from_invariant(schedule, make_grid(1.0, 4000), DEFAULT_CLAMP).to_csv(
        tmp_path / "pulses.csv")
    population_trace(schedule, DEFAULT_STEPS, DEFAULT_CLAMP)[Handedness.LEFT].to_csv(
        tmp_path / "trace.csv")
    for name in ("pulses.csv", "trace.csv"):
        data = (tmp_path / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


def test_to_csv_writes_the_extra_metadata_after_its_own(tmp_path):
    # both writers take the caller's keys in to_csv and leave the result's own unchanged
    schedule = sps_schedule(1.0)
    extra = {"config.steps": 400, "config.T": 1.0}
    pulses = pulses_from_invariant(schedule, make_grid(1.0, 10), DEFAULT_CLAMP)
    trace = population_trace(schedule, DEFAULT_STEPS, DEFAULT_CLAMP)[Handedness.LEFT]
    for result, own in ((pulses, pulses.metadata), (trace, lambda: trace.metadata)):
        before = dict(own())
        path = tmp_path / "table.csv"
        result.to_csv(path, extra)
        block = [line for line in path.read_text().splitlines() if line.startswith("#")]
        assert block == [f"# {key} = {value}" for key, value in {**before, **extra}.items()]
        assert block[-2:] == ["# config.steps = 400", "# config.T = 1.0"]
        assert own() == before


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("width", [1, 3, 4])
def test_row_blocks_are_the_template_bytes(tail, width):
    # blocks of a few rows, with fallback rows (exponent notation) in the first,
    # a middle and the last block, at block edges and inside blocks
    rng = np.random.default_rng(width)
    table = rng.uniform(-10.0, 10.0, (40, width)) * 10.0 ** rng.integers(-4, 9, (40, width))
    for row in (0, 2, 17, 20, 21, 39):
        table[row, row % width] = [1e-7, -3e20, np.inf][row % 3]
    for block_rows in (1, 2, 3, 7, 40, 41):
        with mock.patch.object(_csvrows, "VECTOR_MIN_VALUES", 0), \
                mock.patch.object(_csvrows, "BLOCK_VALUES", block_rows * width):
            assert format_rows(table, tail) == _template(table, tail), block_rows


def test_write_table_writes_the_format_rows_bytes_after_its_header(tmp_path):
    # a default sps pulses.csv: several blocks, fallback rows in the first and last
    pulses = pulses_from_invariant(sps_schedule(0.68), make_grid(0.68, 12000), DEFAULT_CLAMP / 0.68)
    table = np.column_stack([pulses.times, pulses.omega, pulses.omega_q])
    tail = TAILS[1]
    assert table.size > 3 * _csvrows.BLOCK_VALUES
    path = tmp_path / "table.csv"
    _csvrows.write_table(path, {"a": 1, "b": "x"}, "t,omega,omega_q,gamma", table, tail)
    rows = format_rows(table, tail)
    assert path.read_bytes() == b"# a = 1\n# b = x\nt,omega,omega_q,gamma\n" + rows
    lines, block_rows = rows.splitlines(), _csvrows.BLOCK_VALUES // 3
    assert any(b"e" in line for line in lines[:block_rows])
    assert any(b"e" in line for line in lines[len(lines) // block_rows * block_rows:])
    assert rows == _template(table, tail)
