"""Canonical CSV: round-trips, validation errors with line numbers."""

import csv
import hashlib
import io
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portcanyon.angular import AngularScan, Stacking, VehicleState
from portcanyon.dataio import (
    _CHUNK_ROWS,
    CANONICAL_HEADER,
    _ingest_columnar,
    _ingest_rows,
    _NotCanonical,
    file_sha256,
    ingest,
    provenance_line,
    write_scans,
    write_table,
)
from portcanyon.errors import DomainError, GridError, IngestError
from portcanyon.synth import SynthConfig, build_layout, generate_campaign

GRID = np.radians(360.0 * np.arange(12) / 12)


def make_scan(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    defaults = dict(
        tx="TX1_63", x=5.0, y=3.5, angles=GRID,
        gains=rng.lognormal(-14.0, 1.0, GRID.size),
    )
    defaults.update(kwargs)
    return AngularScan(**defaults)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestWriter:
    def test_layout_of_written_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scans(path, [make_scan()], seed=7)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# portcanyon ")
        assert "seed=7" in lines[0]
        assert lines[1] == CANONICAL_HEADER
        assert len(lines) == 2 + GRID.size

    def test_single_360_row_scan(self, tmp_path):
        angles = np.radians(np.arange(360.0))
        rng = np.random.default_rng(1)
        scan = AngularScan(
            tx="TX2", x=1.0, y=3.5, angles=angles,
            gains=rng.lognormal(-14, 1, 360),
        )
        path = tmp_path / "one.csv"
        write_scans(path, [scan])
        back = ingest(path)
        assert len(back) == 1
        assert back[0].angles.size == 360

    def test_deterministic_bytes(self, tmp_path):
        scans = [make_scan(), make_scan(seed=1, x=9.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scans(a, scans, seed=3)
        write_scans(b, scans, seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert file_sha256(a) == file_sha256(b)


    def test_output_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            scans_path, table_path = tmp_path / "scans.csv", tmp_path / "table.csv"
            write_scans(scans_path, [make_scan()])
            write_table(table_path, ("a",), [(1.0,)])
        finally:
            os.umask(old)
        assert stat.S_IMODE(scans_path.stat().st_mode) == 0o644
        assert stat.S_IMODE(table_path.stat().st_mode) == 0o644


class TestRoundTrip:
    def test_scan_round_trip_precision(self, tmp_path):
        scans = [make_scan(seed=s, x=float(s)) for s in range(1, 4)]
        path = tmp_path / "rt.csv"
        write_scans(path, scans)
        back = ingest(path)
        assert len(back) == len(scans)
        for orig, rec in zip(scans, back):
            assert rec.key == orig.key
            assert np.allclose(rec.angles, orig.angles, atol=1e-12)
            assert np.allclose(rec.gains, orig.gains, rtol=1e-12)

    def test_campaign_round_trip(self, tmp_path):
        layout = build_layout("nonuniform")
        cfg = SynthConfig(seed=5, n_angles=24)
        scans = generate_campaign(layout, cfg, vehicle_mode="dense")
        path = tmp_path / "campaign.csv"
        write_scans(path, scans, seed=cfg.seed)
        back = ingest(path)
        assert [s.key for s in back] == [s.key for s in scans]
        for orig, rec in zip(scans, back):
            assert np.allclose(rec.gains, orig.gains, rtol=1e-12)


class TestIngestValidation:
    def header(self):
        return [provenance_line(), CANONICAL_HEADER]

    def rows_for(self, n=12, tx="TX2", x="1.0", y="3.5"):
        return [
            f"{tx},{x},{y},{k * 360.0 / n},-60.0,absent,uniform" for k in range(n)
        ]

    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv(path, self.header() + self.rows_for())
        scans = ingest(path)
        assert len(scans) == 1
        assert scans[0].tx == "TX2"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        write_csv(path, self.rows_for())
        with pytest.raises(IngestError, match="header"):
            ingest(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        rows = self.rows_for()
        rows[3] = "TX2,1.0,3.5,90.0,-60.0,absent"
        path = tmp_path / "cols.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="line 6"):
            ingest(path)

    def test_bad_number_reports_line(self, tmp_path):
        rows = self.rows_for()
        rows[0] = "TX2,1.0,3.5,zero,-60.0,absent,uniform"
        path = tmp_path / "num.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="line 3.*phi_deg"):
            ingest(path)

    def test_non_finite_gain_rejected(self, tmp_path):
        rows = self.rows_for()
        rows[2] = "TX2,1.0,3.5,60.0,nan,absent,uniform"
        path = tmp_path / "nan.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="finite"):
            ingest(path)

    def test_duplicate_angle_reports_line(self, tmp_path):
        rows = self.rows_for() + ["TX2,1.0,3.5,0.0,-58.0,absent,uniform"]
        path = tmp_path / "dup.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match=f"line {2 + 13}.*duplicate"):
            ingest(path)

    def test_unknown_tokens_rejected(self, tmp_path):
        rows = self.rows_for()
        rows[1] = "TX2,1.0,3.5,30.0,-60.0,parked,uniform"
        path = tmp_path / "tok.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="vehicle_state"):
            ingest(path)
        rows = self.rows_for()
        rows[1] = "TX2,1.0,3.5,30.0,-60.0,absent,stacked"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="stacking"):
            ingest(path)

    def test_non_uniform_grid_names_scan_key(self, tmp_path):
        rows = self.rows_for()
        rows[5] = "TX2,1.0,3.5,151.0,-60.0,absent,uniform"
        path = tmp_path / "grid.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(GridError, match="TX2"):
            ingest(path)

    @pytest.mark.parametrize("gain_db", ["4000.0", "1e300"])
    def test_gain_overflowing_to_inf_rejected(self, tmp_path, gain_db):
        rows = self.rows_for()
        rows[2] = f"TX2,1.0,3.5,60.0,{gain_db},absent,uniform"
        path = tmp_path / "huge.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(DomainError, match=r"^scan \('TX2'.*finite"):
            ingest(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        write_csv(path, self.header() + self.rows_for())
        path.write_bytes(path.read_bytes().replace(b"TX2,1.0,3.5,30.0", b"TX\xe92,1.0,3.5,30.0"))
        with pytest.raises(IngestError, match="UTF-8"):
            ingest(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, self.header())
        with pytest.raises(IngestError, match="no measurement rows"):
            ingest(path)

    def test_comments_only_file_has_no_header(self, tmp_path):
        path = tmp_path / "comments.csv"
        write_csv(path, [provenance_line(), "# nothing else"])
        with pytest.raises(IngestError, match="^file has no header row$"):
            ingest(path)

    def test_empty_tx_id_reports_line(self, tmp_path):
        rows = self.rows_for()
        rows[4] = ",1.0,3.5,120.0,-60.0,absent,uniform"
        path = tmp_path / "notx.csv"
        write_csv(path, self.header() + rows)
        with pytest.raises(IngestError, match="^line 7: empty tx_id$"):
            ingest(path)


def test_write_table_format(tmp_path):
    path = tmp_path / "table.csv"
    write_table(
        path, ("a", "b", "count"), [(1.5, 2.5), ("x", "y"), (3, 4)], input_hash="ff"
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "input_sha256=ff" in lines[0]
    assert lines[1] == "a,b,count"
    assert lines[2] == "1.5,x,3"


# ------------------------------------------------ columnar vs row-loop ingest

def _outcome(read, path):
    """Scans a reader returns, or the (type, message) of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # the comparison covers non-toolkit errors too
        return type(exc), str(exc)


def _same_scans(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.key == b.key
        assert (repr(a.x), repr(a.y)) == (repr(b.x), repr(b.y))
        assert a.angles.tobytes() == b.angles.tobytes()
        assert a.gains.tobytes() == b.gains.tobytes()


def check_paths_agree(path) -> str:
    """Assert both ingest paths agree on path; return the one that answered.

    The columnar reader must either return exactly the row loop's scans,
    raise exactly the row loop's error, or decline; the public ingest must
    always match the row loop.
    """
    want = _outcome(_ingest_rows, path)
    columnar = _outcome(_ingest_columnar, path)
    public = _outcome(ingest, path)
    for got in (public, columnar):
        if isinstance(got, tuple) and got[0] is _NotCanonical:
            continue
        if isinstance(want, tuple):
            assert got == want
        else:
            assert not isinstance(got, tuple), got
            _same_scans(got, want)
    declined = isinstance(columnar, tuple) and columnar[0] is _NotCanonical
    return "rows" if declined else "columnar"


def _rows(tx="TX2", x="1.0", y="3.5", n=8, state="absent", stacking="uniform"):
    return [f"{tx},{x},{y},{k * 360.0 / n},{-60.0 - k},{state},{stacking}"
            for k in range(n)]


class TestColumnarIngest:
    def ingest_lines(self, tmp_path, body, head=None):
        path = tmp_path / "case.csv"
        lines = [provenance_line(), CANONICAL_HEADER] if head is None else head
        write_csv(path, lines + body)
        return check_paths_agree(path)

    def test_campaign_with_vehicle_variants(self, tmp_path):
        layout = build_layout("nonuniform")
        scans = generate_campaign(
            layout, SynthConfig(seed=3, n_angles=24), vehicle_mode="dense"
        )
        assert {s.vehicle_state.value for s in scans} == {
            "absent", "position1", "position2"
        }
        assert len({s.tx for s in scans}) > 1
        path = tmp_path / "campaign.csv"
        write_scans(path, scans, seed=3)
        assert check_paths_agree(path) == "columnar"

    def test_non_contiguous_groups_keep_first_seen_order(self, tmp_path):
        a, b = _rows(tx="TX1_63"), _rows(tx="TX2", x="5.0")
        body = a[:3] + b[5:] + a[3:] + b[:5]
        assert self.ingest_lines(tmp_path, body) == "columnar"
        assert [s.tx for s in ingest(tmp_path / "case.csv")] == ["TX1_63", "TX2"]

    def test_signed_zero_key_joins_first_seen(self, tmp_path):
        first, rest = _rows(x="-0.0")[:2], _rows(x="0.0")[2:]
        assert self.ingest_lines(tmp_path, first + rest) == "columnar"
        (scan,) = ingest(tmp_path / "case.csv")
        assert repr(scan.x) == "-0.0"

    def test_signed_zero_angle_is_a_duplicate(self, tmp_path):
        body = _rows() + ["TX2,1.0,3.5,-0.0,-60.0,absent,uniform"]
        assert self.ingest_lines(tmp_path, body) == "rows"
        with pytest.raises(IngestError, match="duplicate angle"):
            ingest(tmp_path / "case.csv")

    def test_equal_numbers_spelled_differently_share_a_key(self, tmp_path):
        body = _rows(x="1.0")[:4] + _rows(x="1.00", y="3.50e0")[4:]
        assert self.ingest_lines(tmp_path, body) == "columnar"
        assert len(ingest(tmp_path / "case.csv")) == 1

    @pytest.mark.parametrize("width", [16, 17, 40])
    def test_tx_id_at_or_over_the_field_width(self, tmp_path, width):
        tx = "TX1_" + "9" * (width - 4)
        assert self.ingest_lines(tmp_path, _rows(tx=tx)) == "rows"
        assert ingest(tmp_path / "case.csv")[0].tx == tx

    def test_tx_id_just_under_the_field_width(self, tmp_path):
        tx = "TX1_" + "9" * 11
        assert self.ingest_lines(tmp_path, _rows(tx=tx)) == "columnar"

    @pytest.mark.parametrize("row", [
        '"TX2",1.0,3.5,0.0,-60.0,absent,uniform',
        'TX2,"1.0",3.5,0.0,-60.0,absent,uniform',
        'TX2,1.0,3.5,0.0,-60.0,"absent",uniform',
        '"TX,2",1.0,3.5,0.0,-60.0,absent,uniform',
    ])
    def test_quoted_field(self, tmp_path, row):
        assert self.ingest_lines(tmp_path, [row] + _rows()[1:]) == "rows"

    def test_comment_row_mid_file(self, tmp_path):
        rows = _rows()
        body = rows[:4] + ["#TX2,1.0,3.5,45.0,-1.0,absent,uniform", "# note"] + rows[4:]
        assert self.ingest_lines(tmp_path, body) == "rows"
        assert ingest(tmp_path / "case.csv")[0].angles.size == 8

    def test_blank_lines_are_skipped(self, tmp_path):
        rows = _rows()
        body = ["", ""] + rows[:4] + [""] + rows[4:] + [""]
        head = ["", provenance_line(), "", CANONICAL_HEADER]
        assert self.ingest_lines(tmp_path, body, head=head) == "columnar"

    @pytest.mark.parametrize("blank", [" ", "   ", "\t"])
    def test_whitespace_only_line_is_an_error(self, tmp_path, blank):
        rows = _rows()
        self.ingest_lines(tmp_path, rows[:4] + [blank] + rows[4:])
        with pytest.raises(IngestError, match="line 7: expected 7 columns, got 1"):
            ingest(tmp_path / "case.csv")

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        lines = [provenance_line(), CANONICAL_HEADER] + _rows()
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
        assert check_paths_agree(path) == "rows"
        assert len(ingest(path)) == 1

    def test_spaces_around_numbers(self, tmp_path):
        body = [r.replace(",1.0,", ", 1.0 ,") for r in _rows()]
        assert self.ingest_lines(tmp_path, body) == "columnar"
        assert ingest(tmp_path / "case.csv")[0].x == 1.0

    @pytest.mark.parametrize("old, new, path_taken", [
        ("TX2,", " TX2,", "columnar"),
        (",absent,", ",absent ,", "rows"),
        (",uniform", ", uniform", "rows"),
    ])
    def test_spaces_around_text(self, tmp_path, old, new, path_taken):
        body = [r.replace(old, new) for r in _rows()]
        assert self.ingest_lines(tmp_path, body) == path_taken

    def test_underscore_in_number(self, tmp_path):
        body = [r.replace(",1.0,", ",1_0,") for r in _rows()]
        assert self.ingest_lines(tmp_path, body) == "rows"
        assert ingest(tmp_path / "case.csv")[0].x == 10.0

    def test_non_ascii_tx_id(self, tmp_path):
        assert self.ingest_lines(tmp_path, _rows(tx="TXé")) == "rows"
        assert ingest(tmp_path / "case.csv")[0].tx == "TXé"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "", "x"])
    def test_bad_numbers(self, tmp_path, bad):
        rows = _rows()
        rows[5] = rows[5].replace(",-65.0,", f",{bad},")
        assert self.ingest_lines(tmp_path, rows) == "rows"

    def test_grid_error_is_wrapped_like_the_row_loop(self, tmp_path):
        rows = _rows(tx="TX1_63") + _rows(n=9)
        rows[3] = rows[3].replace(",135.0,", ",136.0,")
        assert self.ingest_lines(tmp_path, rows) == "columnar"
        with pytest.raises(GridError, match=r"^scan \('TX1_63', 1.0, 3.5"):
            ingest(tmp_path / "case.csv")

    def test_overflowing_gain_fails_alike_on_both_paths(self, tmp_path):
        rows = _rows()
        rows[5] = rows[5].replace(",-65.0,", ",4000.0,")
        assert self.ingest_lines(tmp_path, rows) == "columnar"

    @settings(max_examples=150, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(min_value=0),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(list(',"#\r\n -.0_19e\té\x00') + ["nan", "1.00"]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_mutated_files_agree(self, edits):
        text = "\n".join(
            [provenance_line(), CANONICAL_HEADER] + _rows(tx="TX1_63") + _rows(n=9)
        ) + "\n"
        for position, action, snippet in edits:
            at = position % (len(text) + 1)
            if action == 0:
                text = text[:at] + snippet + text[at:]
            elif action == 1:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + snippet + text[at + len(snippet):]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            check_paths_agree(path)


def check_sets_agree(path) -> None:
    """Both readers that return give the same ScanSet: key columns, blocks
    and the file's sha256; the public ingest always carries that hash."""
    want_sha = hashlib.sha256(open(path, "rb").read()).hexdigest()
    sets = [_outcome(read, path) for read in (_ingest_rows, _ingest_columnar, ingest)]
    sets = [got for got in sets if not isinstance(got, tuple)]
    for got in sets:
        assert got.sha256 == want_sha
    for got in sets[1:]:
        assert got.tx.tolist() == sets[0].tx.tolist()
        for name in ("x", "y"):
            assert getattr(got, name).tobytes() == getattr(sets[0], name).tobytes()
        for name in ("vehicle_state", "stacking"):
            assert getattr(got, name).tolist() == getattr(sets[0], name).tolist()
        assert len(got.blocks) == len(sets[0].blocks)
        for a, b in zip(got.blocks, sets[0].blocks):
            assert [m.tobytes() for m in a] == [m.tobytes() for m in b]


_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(list(',"#\r\n -.0_19e\té\x00') + ["nan", "1.00", "-0.0"]),
    ),
    min_size=1,
    max_size=4,
)


class TestScanSetIngest:
    @settings(max_examples=150, deadline=None)
    @given(edits=_EDITS)
    def test_mutated_files_give_equal_sets_and_hashes(self, edits):
        # One scan split around another whose angles fall; x is -0.0, then 0.0.
        text = "\n".join([provenance_line(), CANONICAL_HEADER] + _rows(x="-0.0", n=9)[:4]
                         + _rows(tx="TX1_63")[::-1] + _rows(x="0.0", n=9)[4:]) + "\n"
        for position, action, snippet in edits:
            at = position % (len(text) + 1)
            if action == 0:
                text = text[:at] + snippet + text[at:]
            elif action == 1:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + snippet + text[at + len(snippet):]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            check_sets_agree(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_sha256_is_the_file_hash(self, tmp_path, newline):
        path = tmp_path / "case.csv"
        path.write_bytes(newline.join(
            [provenance_line(), CANONICAL_HEADER] + _rows()).encode() + newline.encode())
        assert ingest(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        check_sets_agree(path)

    def test_first_invalid_scan_in_file_order_raises(self, tmp_path):
        rows = _rows(tx="TX1_63", n=9) + _rows(n=8) + _rows(tx="TX2", x="5.0", n=9)
        rows[10] = rows[10].replace(",45.0,", ",46.0,")      # 8-angle scan: off grid
        rows[-1] = rows[-1].replace(",-68.0,", ",4000.0,")   # later 9-angle scan: overflow
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + rows)
        assert check_paths_agree(path) == "columnar"
        with pytest.raises(GridError, match=r"^scan \('TX2', 1.0, 3.5, 'absent', 'uniform'\): "
                                            "angle grid must be uniform"):
            ingest(path)

    def test_only_unsorted_rows_are_sorted(self, tmp_path, monkeypatch):
        def no_sort(*args):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", no_sort)
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows() + _rows(x="2.0"))
        assert [s.x for s in _ingest_columnar(path)] == [1.0, 2.0]
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows()[::-1])
        with pytest.raises(AssertionError, match="lexsort called"):
            _ingest_columnar(path)


# ------------------------------------------------ writers vs csv.writer oracles

def _oracle_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def oracle_table_bytes(header, rows, input_hash=None) -> bytes:
    """The row-wise csv.writer table writer the column writer replaced."""
    buf = io.StringIO()
    buf.write(provenance_line(input_hash=input_hash) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_oracle_cell(c) for c in row])
    return buf.getvalue().encode("utf-8")


def oracle_scans_bytes(scans, seed=None) -> bytes:
    """The row-wise csv.writer scan writer the per-scan writer replaced."""
    buf = io.StringIO()
    buf.write(provenance_line(seed=seed) + "\n")
    buf.write(CANONICAL_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for scan in scans:
        for phi, gain in zip(np.degrees(scan.angles), 10.0 * np.log10(scan.gains)):
            writer.writerow((
                scan.tx, repr(float(scan.x)), repr(float(scan.y)), repr(float(phi)),
                repr(float(gain)), scan.vehicle_state.value, scan.stacking.value,
            ))
    return buf.getvalue().encode("utf-8")


def table_bytes(header, columns, **kwargs) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write_table(path, header, columns, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, -1.5e300, float("inf"), float("nan")]
EDGE_TEXT = [",", '"', "\n", " leading space", "", 'a,"b"\nc', "trailing ", "plain"]
# Python 3.11's csv.writer leaves a CR unquoted (a bare CR does not read back);
# the column writer quotes it, so CR is left out of the byte-equality text.
TEXT = st.one_of(
    st.sampled_from(EDGE_TEXT),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")),
)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def tables(draw):
    """(header, columns): float and int arrays, and lists of any cell type."""
    n = draw(st.integers(min_value=0, max_value=12))
    kinds = draw(st.lists(st.sampled_from(
        ["float_array", "int_array", "int", "np_int", "text", "mixed"]), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "float_array":
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float))
        elif kind == "int_array":
            columns.append(np.array(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64))
        elif kind == "int":
            columns.append(draw(st.lists(INTS, min_size=n, max_size=n)))
        elif kind == "np_int":
            columns.append([np.int64(v) for v in draw(st.lists(INTS, min_size=n, max_size=n))])
        elif kind == "text":
            columns.append(draw(st.lists(TEXT, min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(st.one_of(FLOATS, INTS, TEXT), min_size=n, max_size=n)))
    header = draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestColumnWriter:
    @settings(max_examples=300, deadline=None)
    @given(table=tables(), input_hash=st.one_of(st.none(), st.just("ab")))
    def test_table_bytes_match_csv_writer(self, table, input_hash):
        header, columns = table
        rows = list(zip(*columns))
        assert table_bytes(header, columns, input_hash=input_hash) == \
            oracle_table_bytes(header, rows, input_hash=input_hash)

    @pytest.mark.parametrize("cells", [[""], ["", ""], ["", "x", ""], []])
    def test_one_column_of_empty_strings(self, cells):
        assert table_bytes(("",), [cells]) == \
            oracle_table_bytes(("",), [(c,) for c in cells])

    @pytest.mark.parametrize("n", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                   2 * _CHUNK_ROWS + 1])
    def test_row_counts_around_the_chunk_size(self, n):
        rng = np.random.default_rng(n)
        columns = (rng.normal(size=n), rng.integers(-5, 5, size=n),
                   [f"r{i}" if i % 3 else "a,b" for i in range(n)])
        header = ("x", "count", "label")
        assert table_bytes(header, columns) == oracle_table_bytes(header, zip(*columns))

    def test_carriage_return_is_quoted_and_reads_back(self):
        cells = ["a\rb", "\r", "c"]
        data = table_bytes(("text",), [cells]).decode("utf-8")
        assert '"a\rb"' in data
        back = list(csv.reader(io.StringIO(data, newline="")))
        assert [row[0] for row in back[2:]] == cells

    @pytest.mark.parametrize("header,columns", [
        (("a", "b"), ([1.0],)),
        (("a",), ([1.0], [2.0])),
        (("a", "b"), ([1.0, 2.0], [3.0])),
    ])
    def test_column_shape_mismatch_is_rejected(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", header, columns)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_trace(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("previous contents\n", encoding="utf-8")
        # The first chunk formats and is written; the bad cell fails in the second.
        column = [0.5] * (_CHUNK_ROWS + 3) + [object()]
        with pytest.raises(TypeError):
            write_table(path, ("x",), [column])
        assert path.read_text(encoding="utf-8") == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(st.tuples(
            TEXT.filter(bool), FLOATS.filter(np.isfinite), FLOATS.filter(np.isfinite),
            st.sampled_from([8, 12, 36]), st.sampled_from(list(VehicleState)),
            st.sampled_from(list(Stacking)), st.integers(0, 2**32 - 1),
        ), max_size=4),
        seed=st.one_of(st.none(), st.integers(0, 99)),
    )
    def test_scan_bytes_match_csv_writer(self, specs, seed):
        scans = [
            AngularScan(
                tx=tx, x=x, y=y, angles=np.radians(360.0 * np.arange(n) / n),
                gains=np.random.default_rng(g).lognormal(-14.0, 3.0, n),
                vehicle_state=vehicle, stacking=stacking,
            )
            for tx, x, y, n, vehicle, stacking, g in specs
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scans.csv")
            write_scans(path, scans, seed=seed)
            with open(path, "rb") as fh:
                assert fh.read() == oracle_scans_bytes(scans, seed=seed)

    @pytest.mark.parametrize("tx", ["TX,1", 'TX"1', 'a,"b'])
    def test_tx_id_with_csv_specials_round_trips(self, tmp_path, tx):
        scans = [make_scan(tx=tx), make_scan(seed=1, tx=tx, x=9.0)]
        path = tmp_path / "scans.csv"
        write_scans(path, scans)
        assert path.read_bytes() == oracle_scans_bytes(scans)
        back = ingest(path)
        assert [s.key for s in back] == [s.key for s in scans]
        for orig, rec in zip(scans, back):
            assert np.allclose(rec.gains, orig.gains, rtol=1e-12)
