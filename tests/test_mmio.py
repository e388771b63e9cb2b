import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pinvperturb import MatrixMarketError, mmio, read_matrix, write_matrix
from conftest import random_complex


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadArray:
    def test_real_column_major(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        m = read_matrix(path)
        np.testing.assert_array_equal(m, [[1.0, 3.0], [2.0, 4.0]])
        assert m.dtype == np.float64

    def test_identity(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
        np.testing.assert_array_equal(read_matrix(path), np.eye(2))

    def test_comments_and_blank_lines(self, tmp_path):
        text = (
            "%%MatrixMarket matrix array real general\n"
            "% a comment\n\n"
            "1 2\n% another\n3.5\n\n-1e-3\n"
        )
        np.testing.assert_array_equal(read_matrix(_write(tmp_path, text)), [[3.5, -1e-3]])

    def test_complex_entries(self, tmp_path):
        text = "%%MatrixMarket matrix array complex general\n1 1\n2 3\n"
        np.testing.assert_array_equal(read_matrix(_write(tmp_path, text)), [[2 + 3j]])


class TestReadCoordinate:
    def test_single_complex_entry(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 2 3\n"
        m = read_matrix(_write(tmp_path, text))
        np.testing.assert_array_equal(m, [[2 + 3j, 0], [0, 0]])

    def test_duplicates_accumulate(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.5\n1 1 0.25\n"
        np.testing.assert_array_equal(read_matrix(_write(tmp_path, text)), [[1.75]])

    def test_zero_matrix(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n3 2 0\n"
        np.testing.assert_array_equal(read_matrix(_write(tmp_path, text)), np.zeros((3, 2)))


class TestDiagnostics:
    def test_bad_banner(self, tmp_path):
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix(_write(tmp_path, "%%NotMatrixMarket matrix array real general\n1 1\n1\n"))
        assert exc.value.line == 1

    def test_short_header(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="malformed header"):
            read_matrix(_write(tmp_path, "%%MatrixMarket matrix array real\n1 1\n1\n"))

    def test_unsupported_field(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="unsupported field 'integer'"):
            read_matrix(_write(tmp_path, "%%MatrixMarket matrix array integer general\n1 1\n1\n"))

    def test_unsupported_symmetry(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="unsupported symmetry class 'symmetric'"):
            read_matrix(
                _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 5\n")
            )

    def test_out_of_range_index_has_line(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n"
        with pytest.raises(MatrixMarketError, match="out of range") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 3

    def test_non_numeric_token(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n1 1\npotato\n"
        with pytest.raises(MatrixMarketError, match="non-numeric token 'potato'") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 3

    def test_too_few_entries(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n"
        with pytest.raises(MatrixMarketError, match="unexpected end of file"):
            read_matrix(_write(tmp_path, text))

    def test_trailing_data(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n1 1\n1\n2\n"
        with pytest.raises(MatrixMarketError, match="trailing data"):
            read_matrix(_write(tmp_path, text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(MatrixMarketError, match="empty file"):
            read_matrix(_write(tmp_path, ""))

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_array_value_has_line(self, tmp_path, token):
        text = f"%%MatrixMarket matrix array complex general\n1 2\n1 2\n3 {token}\n"
        with pytest.raises(MatrixMarketError, match=f"non-finite value '{token}'") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 4

    def test_non_finite_coordinate_value_has_line(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n% note\n2 1 inf\n"
        with pytest.raises(MatrixMarketError, match="non-finite value 'inf'") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 5

    def test_duplicates_overflowing_are_refused(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1e308\n1 1 1e308\n"
        with pytest.raises(MatrixMarketError, match=r"\(1, 1\) sum to a non-finite") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 4

    # a size numpy cannot even represent; a representable but huge one such as
    # "100000 100000 0" would really try to allocate, so it is not run
    UNALLOCATABLE = "99999999999999999999 2 1"

    def test_unallocatable_size_after_bulk_pass(self, tmp_path):
        body = f"{self.UNALLOCATABLE}\n1 1 5\n"
        assert mmio._read_bulk(body, "coordinate", "real") is None
        text = "%%MatrixMarket matrix coordinate real general\n" + body
        with pytest.raises(MatrixMarketError, match="cannot allocate a 99999999999999999999 x 2") as exc:
            read_matrix(_write(tmp_path, text))
        assert exc.value.line == 2

    def test_unallocatable_size_in_scanner(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            f"% the scanner reads this file\n{self.UNALLOCATABLE}\n1 1 5\n"
        )
        path = _write(tmp_path, text)
        with pytest.raises(MatrixMarketError, match="cannot allocate") as exc:
            read_matrix(path)
        assert (exc.value.path, exc.value.line) == (str(path), 3)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "nope.mtx")


class TestWrite:
    def test_zero_matrix_coordinate(self, tmp_path):
        path = tmp_path / "z.mtx"
        write_matrix(np.zeros((2, 3)), path, format="coordinate")
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[1] == "2 3 0"
        assert len(lines) == 2

    def test_identity_array_round_trip(self, tmp_path):
        path = tmp_path / "i.mtx"
        write_matrix(np.eye(2), path, format="array")
        np.testing.assert_array_equal(read_matrix(path), np.eye(2))

    def test_complex_field_selected_automatically(self, tmp_path):
        path = tmp_path / "c.mtx"
        write_matrix(np.array([[1.0 + 0.5j]]), path)
        assert "complex" in path.read_text().splitlines()[0]
        write_matrix(np.array([[1.0]]), path)
        assert "real" in path.read_text().splitlines()[0]

    def test_format_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(np.eye(2), tmp_path / "x.mtx", format="csv")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_round_trip(self, tmp_path, fmt, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        if seed % 2:
            m = m.real.astype(complex)
        path = tmp_path / "rt.mtx"
        write_matrix(m, path, format=fmt)
        back = read_matrix(path)
        # 17 significant digits make binary64 round trips exact
        assert np.max(np.abs(back - m)) == 0.0

    def test_scipy_reads_our_output(self, tmp_path):
        rng = np.random.default_rng(10)
        m = random_complex(rng, 4, 4)
        for fmt in ("array", "coordinate"):
            path = tmp_path / f"ours_{fmt}.mtx"
            write_matrix(m, path, format=fmt)
            theirs = scipy.io.mmread(path)
            if hasattr(theirs, "toarray"):
                theirs = theirs.toarray()
            np.testing.assert_array_equal(np.asarray(theirs, dtype=complex), m)

    def test_we_read_scipy_output(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 3, 5)
        path = tmp_path / "theirs.mtx"
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, m)
        np.testing.assert_allclose(read_matrix(path), m, atol=0, rtol=0)


# -- the bulk reader and writer against the line scanner and the per-entry writer --

_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
_SPACES = [" ", "  ", "\t", "\x1f", "\xa0", " \t "]
_ODD_TOKENS = ["junk", "%", "0", "-1", "99", "1_0", "1.0", "+1", "\u0661", "nan", "inf",
               "1e400", "1e-400", "+.5", "0x1", "99999999999999999999"]
# comment lines for the block after the banner: the bulk pass skips the
# plain ones and declines those holding another line break
_LEADING_COMMENTS = ["%", "% note", "%%MatrixMarket matrix array real general", "%\t1 1",
                     "% caf\xe9", "%\r", "% a\vb", "% 1 1\r2", "%\x85", "% 1\u20282"]
_finite = st.floats(allow_nan=False, allow_infinity=False)
_value_token = st.one_of(_finite.map(lambda x: "%.17g" % x), _finite.map(repr),
                         st.integers(-(10**6), 10**6).map(str))


@st.composite
def _mtx_texts(draw):
    """A valid Matrix Market text, perhaps with a leading comment block, then up
    to four random defects."""
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    field = draw(st.sampled_from(["real", "complex"]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width = 1 if field == "real" else 2
    lines = [f"%%MatrixMarket matrix {fmt} {field} general"]
    lines += draw(st.lists(st.sampled_from(_LEADING_COMMENTS), max_size=3))
    if fmt == "array":
        lines.append(f"{rows} {cols}")
        count = rows * cols
    else:
        count = draw(st.integers(0, rows * cols + 2))
        lines.append(f"{rows} {cols} {count}")
    for _ in range(count):
        tokens = [draw(_value_token) for _ in range(width)]
        if fmt == "coordinate":
            tokens = [str(draw(st.integers(1, rows))), str(draw(st.integers(1, cols)))] + tokens
        lines.append(" ".join(tokens))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, len(lines)))
        tokens = lines[k].split(" ") if k < len(lines) else []
        defect = draw(st.sampled_from(
            ["junk", "drop", "replace", "comment", "blank", "spaces", "break"]))
        if defect == "comment":
            lines.insert(k, draw(st.sampled_from(["% note", "  % indented", "%"])))
        elif defect == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t"])))
        elif not tokens:
            continue
        elif defect == "junk":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_ODD_TOKENS)))
        elif defect == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif defect == "replace":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        elif defect == "spaces":
            lines[k] = draw(st.sampled_from(_SPACES + _BREAKS)).join(tokens)
            continue
        else:
            lines[k] = lines[k].replace(" ", draw(st.sampled_from(_BREAKS)), 1)
            continue
        if defect in ("junk", "drop", "replace"):
            lines[k] = " ".join(tokens)
    sep = draw(st.sampled_from(["\n"] * 4 + _BREAKS))
    return sep.join(lines) + draw(st.sampled_from(["\n", "", sep, "\n\n"]))


def _outcome(call, path):
    try:
        m = call(path)
    except Exception as exc:  # the type and text must agree too
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("matrix", m.dtype, m.shape, m.tobytes(), m.flags.c_contiguous)


def _scanned(path):
    """The line scanner alone, as the fallback of read_matrix runs it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fmt, field, _ = mmio._header(text, path)
    return mmio._scan(text.splitlines(), fmt, field, path)


def _per_entry_render(m, format):
    """Matrix Market text rendered one entry at a time (the reference writer)."""
    mat = np.asarray(m, dtype=np.complex128)
    rows, cols = mat.shape
    field = "complex" if np.any(mat.imag != 0.0) else "real"

    def render(value) -> str:
        if field == "complex":
            return f"{value.real:.17g} {value.imag:.17g}"
        return f"{value.real:.17g}"

    out = [f"%%MatrixMarket matrix {format} {field} general"]
    if format == "array":
        out.append(f"{rows} {cols}")
        for j in range(cols):
            for i in range(rows):
                out.append(render(mat[i, j]))
    else:
        nz = [(i, j) for j in range(cols) for i in range(rows) if mat[i, j] != 0.0]
        out.append(f"{rows} {cols} {len(nz)}")
        for i, j in nz:
            out.append(f"{i + 1} {j + 1} {render(mat[i, j])}")
    return "\n".join(out) + "\n"


_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                            1.7976931348623157e308, -1.0, 0.1])
_part = st.one_of(_special, _finite)


class TestBulkEquivalence:
    @given(text=_mtx_texts())
    @settings(max_examples=400, deadline=None)
    def test_reader_matches_scanner(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bulk") / "m.mtx"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(read_matrix, str(path)) == _outcome(_scanned, str(path))

    @pytest.mark.parametrize("sep", _BREAKS + _SPACES)
    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix array complex general\n1 1\n1{sep}2\n",
        "%%MatrixMarket matrix array real general\n2 1\n1{sep}2\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1{sep}2\n",
        "%%MatrixMarket matrix coordinate real general\n1{sep}1 1\n1 1 2\n",
    ], ids=["array-complex", "array-real", "coordinate-entry", "coordinate-size"])
    def test_every_separator_matches_scanner(self, tmp_path, text, sep):
        path = tmp_path / "m.mtx"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.format(sep=sep))
        assert _outcome(read_matrix, str(path)) == _outcome(_scanned, str(path))

    def test_scanner_runs_only_when_the_bulk_pass_declines(self, tmp_path, monkeypatch):
        calls = []
        scan = mmio._scan
        monkeypatch.setattr(mmio, "_scan", lambda *a: calls.append(1) or scan(*a))
        write_matrix(random_complex(np.random.default_rng(3), 5, 4), tmp_path / "w.mtx")
        read_matrix(tmp_path / "w.mtx")
        assert calls == []
        read_matrix(_write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\n% c\n2\n"))
        assert calls == [1]

    @pytest.mark.parametrize("block, bulk", [
        ("%\n", True),
        ("% a\n%\n%% b\n", True),
        ("% a\r\n", True),
        ("% caf\xe9\n", True),
        ("% a\vb\n", False),
        ("% a\r1 2\n", False),
        ("  % indented\n", False),
        ("\n% after a blank line\n", False),
    ])
    def test_leading_comment_block(self, tmp_path, monkeypatch, block, bulk):
        path = tmp_path / "m.mtx"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"%%MatrixMarket matrix array complex general\n{block}1 2\n1 2\n3 -4\n")
        scanned = _outcome(_scanned, str(path))
        calls = []
        scan = mmio._scan
        monkeypatch.setattr(mmio, "_scan", lambda *a: calls.append(1) or scan(*a))
        assert _outcome(read_matrix, str(path)) == scanned
        assert calls == ([] if bulk else [1])

    def test_scipy_output_stays_in_bulk(self, tmp_path, monkeypatch):
        m = random_complex(np.random.default_rng(12), 6, 4)
        path = tmp_path / "theirs.mtx"
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, m, comment="two\nlines")
        assert path.read_text().startswith("%%MatrixMarket matrix array complex general\n%")
        scanned = _scanned(path)
        monkeypatch.setattr(mmio, "_scan", None)
        bulk = read_matrix(path)
        assert (bulk.dtype, bulk.tobytes()) == (scanned.dtype, scanned.tobytes())

    @given(
        m=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: st.tuples(arrays(np.float64, shape, elements=_part),
                                    arrays(np.float64, shape, elements=_part),
                                    st.booleans())),
        fmt=st.sampled_from(["array", "coordinate"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_per_entry_render(self, tmp_path_factory, m, fmt):
        re, im, complex_field = m
        mat = re + 1j * im if complex_field else re
        path = tmp_path_factory.mktemp("bulk") / "w.mtx"
        write_matrix(mat, path, format=fmt)
        assert path.read_bytes() == _per_entry_render(mat, fmt).encode()

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("mat", [
        np.zeros((2, 3)),
        np.full((2, 2), -0.0),
        np.array([[5e-324, -2.2250738585072009e-308], [1e-310, 0.0]]),
        np.array([[1.0 - 0.0j, -0.0 + 5e-324j], [0.0, 1e300 - 1e-300j]]),
        np.arange(12.0).reshape(3, 4) - 5.5,
    ], ids=["zero", "negative-zero", "subnormal", "complex", "real"])
    def test_writer_special_values(self, tmp_path, fmt, mat):
        path = tmp_path / "w.mtx"
        write_matrix(mat, path, format=fmt)
        assert path.read_bytes() == _per_entry_render(mat, fmt).encode()
        back = read_matrix(path)
        assert np.array_equal(back, mat)
        # the field written is the field read: complex only with a nonzero imaginary part
        assert back.dtype == (np.complex128 if np.any(np.imag(mat)) else np.float64)
