"""Properties of the signal and FRF CSV codecs: exact round trips, the bytes
of a row-by-row formatter, and the same verdict from the fast parse and the
per-row parse."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mrfrf import io as mio
from mrfrf.errors import DataFormatError
from mrfrf.lti import FrfMatrix, dft_grid
from mrfrf.multirate import SignalRecord

CODEC = settings(max_examples=60, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

SPECIAL = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16,
           1e-5, 1e22, 1.7976931348623157e308, 0.1, -1.0 / 3.0)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | \
    st.sampled_from(SPECIAL)


@st.composite
def records(draw):
    """A record of 1-3 channels and 1-4 periods of 1-12 samples."""
    n_ch = draw(st.integers(1, 3))
    periods = draw(st.integers(1, 4))
    length = draw(st.integers(1, 12))
    data = draw(hnp.arrays(np.float64, (n_ch, length * periods),
                           elements=FLOATS))
    return SignalRecord(data, 1e-4, n_periods=periods)


def _row_by_row(record):
    """The signal CSV text, one repr per value, one row at a time."""
    lines = [f"# format_version={mio.FORMAT_VERSION}",
             ",".join(f"ch{c}" for c in range(record.n_channels))]
    for n in range(record.n_samples):
        lines.append(",".join(repr(float(x)) for x in record.data[:, n]))
    return "\n".join(lines) + "\n"


@CODEC
@given(rec=records())
def test_write_then_read_is_bit_identical(tmp_path, rec):
    path = tmp_path / "rec.csv"
    mio.write_signal_csv(path, rec)
    back = mio.read_signal_csv(path, rec.sample_time,
                               n_periods=rec.n_periods)
    assert back.data.tobytes() == rec.data.tobytes()


@CODEC
@given(rec=records())
def test_writer_bytes_match_row_by_row_formatter(tmp_path, monkeypatch, rec):
    monkeypatch.setattr(mio, "_CHUNK_ROWS", 5)   # records span chunks
    path = tmp_path / "rec.csv"
    mio.write_signal_csv(path, rec)
    assert path.read_bytes() == _row_by_row(rec).encode()


def _per_row(*args, **kwargs):
    """read_signal_csv with the per-row parse of every row of the file."""
    fast = mio._parse_fast
    mio._parse_fast = lambda *args: None
    try:
        return mio.read_signal_csv(*args, **kwargs)
    finally:
        mio._parse_fast = fast


@pytest.mark.parametrize("value,message", [("1.0x", "not numeric"),
                                           ("-inf", "not finite")])
def test_bad_value_in_the_last_period_names_its_row(tmp_path, value,
                                                    message):
    rec = SignalRecord(np.tile([[1.0, -0.0, 2.5], [3.0, 4.0, 0.0]], 4),
                       1e-4, n_periods=4)
    path = tmp_path / "rec.csv"
    mio.write_signal_csv(path, rec)
    lines = path.read_text().splitlines()
    # sample 11 of 12, file row 13, its text as long as before ("-0.0,4.0")
    lines[-2] = "7.0," + value
    path.write_text("\n".join(lines) + "\n")
    for read in (mio.read_signal_csv, _per_row):
        with pytest.raises(DataFormatError,
                           match=f"row 13 is {message}") as exc:
            read(path, 1e-4, n_periods=4)
        assert exc.value.row == 13


TOKEN = st.text(alphabet="0123456789.eE+-_ xnaif,\t\x1f\xa0#", max_size=6)


@st.composite
def corrupted_files(draw):
    """Signal CSV text with one row possibly corrupted (a field replaced by
    an arbitrary token, a field dropped or added, a trailing comma) and
    comment and blank lines mixed in after the header.  Returns the text
    and the file row of a corruption that must be reported, or None."""
    n_ch = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    values = draw(hnp.arrays(np.float64, (n, n_ch), elements=FLOATS))
    rows = [[repr(float(v)) for v in row] for row in values]
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["token", "drop", "extra", "trailing",
                                 "intact"]))
    must_fail = kind in ("extra", "trailing") or (kind == "drop" and n_ch > 1)
    if kind == "token":
        rows[j][draw(st.integers(0, n_ch - 1))] = draw(TOKEN)
    elif kind == "drop":
        rows[j].pop()
    elif kind == "extra":
        rows[j].append(draw(TOKEN))
    elif kind == "trailing":
        rows[j][-1] += ","
    lines = [(i == j, ",".join(r)) for i, r in enumerate(rows)]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "  ", "# note", "#", "#1.0,x"]))
        lines.insert(draw(st.integers(0, len(lines))), (False, filler))
    header = ",".join(f"ch{c}" for c in range(n_ch))
    text = (f"# format_version=1\n{header}\n"
            + "".join(line + "\n" for _, line in lines))
    bad_row = None
    if must_fail:
        bad_row = 3 + [target for target, _ in lines].index(True)
    return text, bad_row


def _verdict(path):
    try:
        return mio.read_signal_csv(path, 1e-4).data.tobytes()
    except DataFormatError as e:
        return e.row, str(e)


@CODEC
@given(case=corrupted_files())
@example(case=("ch0,ch1\n1_0,2.0\n", None))
@example(case=("ch0,ch1\n1.0\x1f,2.0\n", None))
@example(case=("ch0\n1.0\n# mid-file comment\n\n2.0,\n", 5))
def test_fast_parse_and_row_loop_agree(tmp_path, monkeypatch, case):
    text, bad_row = case
    path = tmp_path / "rec.csv"
    path.write_text(text, encoding="utf-8")
    fast = _verdict(path)
    with monkeypatch.context() as m:
        m.setattr(mio, "_parse_fast", lambda *args: None)
        rows = _verdict(path)
    assert fast == rows
    if bad_row is not None:
        assert isinstance(fast, tuple) and fast[0] == bad_row


def test_underscore_digits_read_as_float_does(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("ch0,ch1\n1_0,2.0\n# c\n\n3.5,-0.0\n")
    back = mio.read_signal_csv(path, 1e-4)
    assert back.data.tobytes() == np.array([[10.0, 3.5], [2.0, -0.0]]).tobytes()


def _frf_row_by_row(frf, i, j, flags):
    """The FRF entry CSV text, one row at a time: a flagged non-finite
    value is written as 0.0, 0.0."""
    lines = [f"# format_version={mio.FORMAT_VERSION}", "k,freq_hz,re,im,flag"]
    for k in range(frf.n_bins):
        v = frf.values[k, i, j]
        blank = flags[k] and not np.isfinite(v)
        re, im = (0.0, 0.0) if blank else (v.real, v.imag)
        lines.append(f"{k},{float(frf.omega[k] / (2.0 * np.pi))!r},"
                     f"{float(re)!r},{float(im)!r},{int(flags[k])}")
    return "\n".join(lines) + "\n"


@CODEC
@given(data=st.data())
def test_frf_writer_bytes_match_row_by_row_formatter(tmp_path, data):
    n = data.draw(st.integers(0, 12))
    parts = FLOATS | st.sampled_from([np.nan, np.inf, -np.inf])
    values = np.empty((n, 1, 2), dtype=complex)   # keeps signed zeros
    values.real, values.imag = (
        data.draw(hnp.arrays(np.float64, (n, 1, 2), elements=parts))
        for _ in range(2))
    flags = data.draw(hnp.arrays(np.bool_, n))
    frf = FrfMatrix(values, dft_grid(n, 1e-4), 1e-4)
    path = tmp_path / "frf.csv"
    mio.write_frf_entry_csv(path, frf, 0, 1, flags=flags)
    assert path.read_bytes() == _frf_row_by_row(frf, 0, 1, flags).encode()
