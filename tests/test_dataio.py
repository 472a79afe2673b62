"""Canonical CSV: round-trips, validation errors with line numbers."""

import codecs
import csv
import hashlib
import io
import os
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from peaks import HAS_VMHWM, ingest_peak_kib
from scansets import Scan, grid, records, scan_set

from portcanyon import dataio
from portcanyon.angular import ScanSet, Stacking, VehicleState
from portcanyon.dataio import (
    _CHUNK_ROWS,
    CANONICAL_HEADER,
    _ingest_columnar,
    _ingest_rows,
    _NotCanonical,
    _scan_set,
    file_sha256,
    ingest,
    provenance_line,
    write_scans,
    write_table,
)
from portcanyon.errors import DomainError, GridError, IngestError
from portcanyon.synth import SynthConfig, build_layout, generate_campaign

GRID = grid(12)


def make_scan(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    defaults = dict(
        tx="TX1_63", x=5.0, y=3.5, angles=GRID,
        gains=rng.lognormal(-14.0, 1.0, GRID.size),
    )
    defaults.update(kwargs)
    return Scan(**defaults)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestWriter:
    def test_layout_of_written_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scans(path, scan_set([make_scan()]), seed=7)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# portcanyon ")
        assert "seed=7" in lines[0]
        assert lines[1] == CANONICAL_HEADER
        assert len(lines) == 2 + GRID.size

    def test_single_360_row_scan(self, tmp_path):
        angles = np.radians(np.arange(360.0))
        rng = np.random.default_rng(1)
        scan = Scan(tx="TX2", x=1.0, y=3.5, angles=angles, gains=rng.lognormal(-14, 1, 360))
        path = tmp_path / "one.csv"
        write_scans(path, scan_set([scan]))
        back = ingest(path)
        assert len(back) == 1
        assert back.grid.shape == (360,) and back.gains.shape == (1, 360)

    def test_deterministic_bytes(self, tmp_path):
        scans = scan_set([make_scan(), make_scan(seed=1, x=9.0)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert write_scans(a, scans, seed=3) == write_scans(b, scans, seed=3) == file_sha256(a)
        assert a.read_bytes() == b.read_bytes()


    def test_output_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            scans_path, table_path = tmp_path / "scans.csv", tmp_path / "table.csv"
            write_scans(scans_path, scan_set([make_scan()]))
            write_table(table_path, ("a",), [(1.0,)])
        finally:
            os.umask(old)
        assert stat.S_IMODE(scans_path.stat().st_mode) == 0o644
        assert stat.S_IMODE(table_path.stat().st_mode) == 0o644


class TestRoundTrip:
    def test_scan_round_trip_precision(self, tmp_path):
        scans = [make_scan(seed=s, x=float(s)) for s in range(1, 4)]
        path = tmp_path / "rt.csv"
        write_scans(path, scan_set(scans))
        back = ingest(path)
        assert len(back) == len(scans)
        for orig, rec in zip(scans, records(back)):
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
        assert [s.key for s in records(back)] == [s.key for s in records(scans)]
        for orig, rec in zip(records(scans), records(back)):
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
        assert scans.tx.tolist() == ["TX2"]

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


def _built(read):
    """read, then the ScanSet `_scan_set` builds of the rows it returns."""
    return lambda path: _scan_set(*read(path), file_sha256(path))


def _same_scans(got, want):
    assert len(got) == len(want)
    for a, b in zip(records(got), records(want)):
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
    want = _outcome(_built(_ingest_rows), path)
    columnar = _outcome(_built(_ingest_columnar), path)
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


def _mutated(text, edits):
    """text after each (position, action, snippet) edit: insert, delete a
    character or overwrite."""
    for position, action, snippet in edits:
        at = position % (len(text) + 1)
        if action == 0:
            text = text[:at] + snippet + text[at:]
        elif action == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + snippet + text[at + len(snippet):]
    return text


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
        assert set(scans.vehicle_state.tolist()) == {"absent", "position1", "position2"}
        assert len(set(scans.tx.tolist())) > 1
        path = tmp_path / "campaign.csv"
        write_scans(path, scans, seed=3)
        assert check_paths_agree(path) == "columnar"

    def test_non_contiguous_groups_keep_first_seen_order(self, tmp_path):
        a, b = _rows(tx="TX1_63"), _rows(tx="TX2", x="5.0")
        body = a[:3] + b[5:] + a[3:] + b[:5]
        assert self.ingest_lines(tmp_path, body) == "columnar"
        assert ingest(tmp_path / "case.csv").tx.tolist() == ["TX1_63", "TX2"]

    def test_signed_zero_key_joins_first_seen(self, tmp_path):
        first, rest = _rows(x="-0.0")[:2], _rows(x="0.0")[2:]
        assert self.ingest_lines(tmp_path, first + rest) == "columnar"
        scans = ingest(tmp_path / "case.csv")
        assert len(scans) == 1 and repr(scans.x.tolist()[0]) == "-0.0"

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
        assert ingest(tmp_path / "case.csv").tx.tolist() == [tx]

    @pytest.mark.parametrize("width, path_taken", [(31, "columnar"), (32, "rows"), (40, "rows")])
    def test_number_text_at_or_over_the_field_width(self, tmp_path, width, path_taken):
        y = "3." + "5" + "0" * (width - 3)
        assert self.ingest_lines(tmp_path, _rows(y=y)) == path_taken
        assert ingest(tmp_path / "case.csv").y.tolist() == [3.5]

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
        assert ingest(tmp_path / "case.csv").gains.shape == (1, 8)

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
        assert check_paths_agree(path) == "columnar"
        assert len(ingest(path)) == 1

    @pytest.mark.parametrize("head", [[provenance_line(), CANONICAL_HEADER], [CANONICAL_HEADER]])
    def test_one_leading_bom_reads_as_the_file_without_it(self, tmp_path, head):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, head + _rows() + _rows(x="2.0"))
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        want = _rows_of(_ingest_rows, plain)
        assert isinstance(want, tuple)
        assert _rows_of(_ingest_rows, marked) == want
        assert _rows_of(_ingest_columnar, marked) == _rows_of(_ingest_columnar, plain) == want
        assert check_paths_agree(marked) == "columnar"

    def test_a_second_bom_is_a_header_error(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_bytes(codecs.BOM_UTF8 * 2 + "\n".join([CANONICAL_HEADER] + _rows()).encode())
        assert check_paths_agree(path) == "rows"
        with pytest.raises(IngestError, match="line 1: header must be exactly"):
            ingest(path)

    def test_spaces_around_numbers(self, tmp_path):
        body = [r.replace(",1.0,", ", 1.0 ,") for r in _rows()]
        assert self.ingest_lines(tmp_path, body) == "columnar"
        assert ingest(tmp_path / "case.csv").x.tolist() == [1.0]

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
        assert ingest(tmp_path / "case.csv").x.tolist() == [10.0]

    def test_non_ascii_tx_id(self, tmp_path):
        assert self.ingest_lines(tmp_path, _rows(tx="TXé")) == "rows"
        assert ingest(tmp_path / "case.csv").tx.tolist() == ["TXé"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "", "x"])
    def test_bad_numbers(self, tmp_path, bad):
        rows = _rows()
        rows[5] = rows[5].replace(",-65.0,", f",{bad},")
        assert self.ingest_lines(tmp_path, rows) == "rows"

    def test_grid_error_is_wrapped_like_the_row_loop(self, tmp_path):
        rows = _rows(tx="TX1_63") + _rows()
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
            [provenance_line(), CANONICAL_HEADER] + _rows(tx="TX1_63") + _rows()
        ) + "\n"
        text = _mutated(text, edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            check_paths_agree(path)


def check_sets_agree(path) -> None:
    """Both readers that return give the same ScanSet: key columns, grid, gains
    and the file's sha256; the public ingest always carries that hash."""
    want_sha = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    sets = [_outcome(read, path)
            for read in (_built(_ingest_rows), _built(_ingest_columnar), ingest)]
    sets = [got for got in sets if not isinstance(got, tuple)]
    for got in sets:
        assert got.sha256 == want_sha
    for got in sets[1:]:
        assert got.tx.tolist() == sets[0].tx.tolist()
        for name in ("x", "y"):
            assert getattr(got, name).tobytes() == getattr(sets[0], name).tobytes()
        for name in ("vehicle_state", "stacking"):
            assert getattr(got, name).tolist() == getattr(sets[0], name).tolist()
        for name in ("grid", "gains"):
            assert getattr(got, name).shape == getattr(sets[0], name).shape
            assert getattr(got, name).tobytes() == getattr(sets[0], name).tobytes()


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
        text = "\n".join([provenance_line(), CANONICAL_HEADER] + _rows(x="-0.0")[:4]
                         + _rows(tx="TX1_63")[::-1] + _rows(x="0.0")[4:]) + "\n"
        text = _mutated(text, edits)
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
        rows = _rows(tx="TX1_63") + _rows() + _rows(tx="TX2", x="5.0")
        rows[9] = rows[9].replace(",45.0,", ",46.0,")        # second scan: off scan 0's grid
        rows[-1] = rows[-1].replace(",-67.0,", ",4000.0,")   # later scan: overflow
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + rows)
        assert check_paths_agree(path) == "columnar"
        with pytest.raises(GridError, match=r"^scan \('TX2', 1.0, 3.5, 'absent', 'uniform'\): "
                                            r"angles differ by up to 1.745e-02 rad from those "
                                            r"of scan \('TX1_63', 1.0, 3.5, 'absent', 'uniform'\); "
                                            "the scans of a set share one angle grid$"):
            ingest(path)
        assert not os.path.exists(str(path) + ".scanset.npz")

    def test_a_second_angle_count_is_named_before_a_later_bad_scan(self, tmp_path):
        # The 16-angle scan's gains overflow too, and a later 12-angle scan is
        # off grid; the change of angle count comes first in the file.
        bad_gain = _rows(x="2.0", n=16)
        bad_gain[5] = bad_gain[5].replace(",-65.0,", ",4000,")
        bad_grid = _rows(x="3.0", n=12)
        bad_grid[4] = bad_grid[4].replace(",120.0,", ",121.0,")
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows(n=12) + bad_gain + bad_grid)
        assert check_paths_agree(path) == "columnar"
        with pytest.raises(GridError, match=r"^scan \('TX2', 2.0, 3.5, 'absent', 'uniform'\): "
                                            r"16 angles where scan \('TX2', 1.0, .*\) has 12; "):
            ingest(path)
        assert not os.path.exists(str(path) + ".scanset.npz")

    def test_only_unsorted_rows_are_sorted(self, tmp_path, monkeypatch):
        def no_sort(*args):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", no_sort)
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows() + _rows(x="2.0"))
        assert [key[1] for key in _ingest_columnar(path)[0]] == [1.0, 2.0]
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows()[::-1])
        with pytest.raises(AssertionError, match="lexsort called"):
            _ingest_columnar(path)


# ------------------------------------------------ the columnar parse's blocks

def _rows_of(read, path):
    """The rows a reader returns, comparable bit for bit (keys by repr, so
    -0.0 and 0.0 differ), or the type of what it raises."""
    try:
        keys, sizes, phi, gain = read(path)
    except Exception as exc:  # the comparison covers non-toolkit errors too
        return type(exc)
    return ([tuple(map(repr, key)) for key in keys], [int(n) for n in sizes],
            phi.tobytes(), gain.tobytes())


def _columnar_in_blocks(path, size):
    with mock.patch.object(dataio, "_BLOCK_BYTES", size):
        return _rows_of(_ingest_columnar, path)


def _block_size(text, data):
    """A block size from the longest line (LF included) to the whole file."""
    longest = max(map(len, text.split("\n"))) + 1
    return data.draw(st.integers(min_value=longest, max_value=max(longest, len(text))))


@st.composite
def _canonical_bodies(draw):
    """Data lines of 2-5 scans, one of them split in two runs around
    another, one keyed x = -0.0 and then 0.0, some angles shuffled and blank
    lines anywhere."""
    scans = [_rows(tx=draw(st.sampled_from(["TX2", "TX1_63", "TX1_103"])), x=f"{i}.5",
                   n=draw(st.integers(min_value=8, max_value=12)),
                   state=draw(st.sampled_from(sorted(dataio._VEHICLE_TOKENS))))
             for i in range(draw(st.integers(min_value=2, max_value=5)))]
    zero = draw(st.integers(min_value=0, max_value=len(scans) - 1))
    cut = draw(st.integers(min_value=1, max_value=len(scans[zero]) - 1))
    scans[zero] = ([r.replace(f",{zero}.5,", ",-0.0,") for r in scans[zero][:cut]]
                   + [r.replace(f",{zero}.5,", ",0.0,") for r in scans[zero][cut:]])
    if draw(st.booleans()):
        scans[-1] = draw(st.permutations(scans[-1]))
    split = draw(st.integers(min_value=1, max_value=len(scans[0]) - 1))
    body = scans[0][:split] + scans[1] + scans[0][split:] + [r for s in scans[2:] for r in s]
    for at in draw(st.lists(st.integers(min_value=0, max_value=len(body)), max_size=4)):
        body.insert(at, "")
    return body


def _ended(lines, ends, last):
    """The lines, each but the last ended by its own line end, the last by last."""
    return "".join(map(str.__add__, lines[:-1], ends)) + lines[-1] + last


class TestBlockBoundaries:
    @settings(max_examples=200, deadline=None)
    @given(body=_canonical_bodies(), newline=st.sampled_from(["\n", "\r\n", "mixed"]),
           last=st.sampled_from(["", "\n", "\r\n", "\r"]), data=st.data())
    def test_blocks_give_the_row_readers_rows(self, body, newline, last, data):
        # LF, CRLF or mixed line ends; the last line ends with any of them, a
        # bare CR (csv ends a line there too) or nothing.
        lines = [provenance_line(), CANONICAL_HEADER] + body
        ends = [data.draw(st.sampled_from(["\n", "\r\n"])) if newline == "mixed" else newline
                for _ in lines[1:]]
        text = _ended(lines, ends, last)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            want = _rows_of(_ingest_rows, path)
            assert isinstance(want, tuple), want
            assert _rows_of(_ingest_columnar, path) == want
            assert _columnar_in_blocks(path, _block_size(text, data)) == want
            # A block that ends with a CR whose LF starts the next block.
            longest = max(map(len, text.split("\n"))) + 1
            split = [at + 1 for at, char in enumerate(text[:-1])
                     if char == "\r" and at + 1 >= longest]
            if split:
                assert _columnar_in_blocks(path, data.draw(st.sampled_from(split))) == want

    @settings(max_examples=100, deadline=None)
    @given(body=_canonical_bodies(), cr=st.sampled_from(["\r", "\r\r\n", "\r\r", "\n\r"]),
           data=st.data())
    def test_other_crs_go_to_the_row_reader(self, body, cr, data):
        # A bare CR, CR CR LF or LF CR between two lines of a CRLF file: the
        # row reader's csv ends lines there, the columnar reader declines,
        # in one block or many.
        lines = [provenance_line(), CANONICAL_HEADER] + body
        ends = ["\r\n"] * (len(lines) - 1)
        ends[data.draw(st.integers(min_value=0, max_value=len(ends) - 1))] = cr
        text = _ended(lines, ends, "\r\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert _rows_of(_ingest_columnar, path) is _NotCanonical
            assert _columnar_in_blocks(path, _block_size(text, data)) is _NotCanonical
            assert check_paths_agree(path) == "rows"

    @settings(max_examples=200, deadline=None)
    @given(edits=_EDITS, data=st.data())
    def test_blocks_decline_the_same_files(self, edits, data):
        text = _mutated("\n".join([provenance_line(), CANONICAL_HEADER]
                                  + _rows(x="-0.0", n=9)[:4] + _rows(tx="TX1_63")
                                  + _rows(x="0.0", n=9)[4:]) + "\n", edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            whole = _rows_of(_ingest_columnar, path)
            assert _columnar_in_blocks(path, _block_size(text, data)) == whole
            if whole is not _NotCanonical:
                assert whole == _rows_of(_ingest_rows, path)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab\n", max_size=40), limit=st.integers(min_value=0, max_value=8))
    def test_lines_fit_checks_every_line(self, text, limit):
        with mock.patch.object(dataio, "_MAX_LINE_BYTES", limit):
            assert dataio._lines_fit(text) == (max(map(len, text.split("\n"))) <= limit)

    @pytest.mark.parametrize("where", ["comment", "number"])
    def test_a_line_over_the_limit_goes_to_the_row_reader(self, tmp_path, where):
        long = dataio._MAX_LINE_BYTES
        head = [provenance_line(), CANONICAL_HEADER]
        body = _rows()
        if where == "comment":
            head.insert(0, "#" + "c" * long)
        else:
            body[3] = body[3].replace(",-63.0,", ", " + " " * long + "-63.0,")
        path = tmp_path / "case.csv"
        write_csv(path, head + body)
        assert check_paths_agree(path) == "rows"
        assert len(ingest(path)) == 1

    def test_carried_line_stays_short(self, tmp_path, monkeypatch):
        path = tmp_path / "case.csv"
        path.write_text("#" + "c" * 10 * dataio._MAX_LINE_BYTES, encoding="ascii")
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 100)
        seen, lines_fit = [], dataio._lines_fit
        monkeypatch.setattr(dataio, "_lines_fit", lambda text: seen.append(len(text))
                            or lines_fit(text))
        with pytest.raises(_NotCanonical):
            _ingest_columnar(path)
        assert max(seen) <= dataio._MAX_LINE_BYTES + 100

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs VmHWM")
    def test_cold_ingest_peak_is_a_warm_ingests(self, tmp_path):
        # A 12.5 MB file, 191 blocks; a whole-file table added about 7.5 MB.
        path = _campaign_of_600_scans(tmp_path)
        cold, warm = ingest_peak_kib(path), ingest_peak_kib(path)
        assert os.path.exists(str(path) + ".scanset.npz")
        assert cold <= warm + 4096, (cold, warm)

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs VmHWM")
    def test_warm_ingest_peak_is_its_rows_and_matrices(self, tmp_path):
        # Whole-matrix grid check temporaries and a full-size dB temporary
        # added about 5.4 MB here; holding the grid once per scan, in the
        # sidecar's rows and in the set, peaked at about 6,100 KiB.
        path = _campaign_of_600_scans(tmp_path)
        scans = ingest(path)  # cold: writes the sidecar
        # The rows a sidecar holds (angle counts, the grid, gain_db) and the
        # set's gains and grid.
        grid_bytes = scans.grid.nbytes
        data_kib = (8 * len(scans) + 2 * (grid_bytes + scans.gains.nbytes)) // 1024
        warm = ingest_peak_kib(path)
        assert warm <= data_kib + 2048, (warm, data_kib)

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs VmHWM")
    def test_warm_ingest_peak_is_its_matrices(self, tmp_path):
        # The loaded rows become the matrices in place; converting them into
        # new arrays held both, about 9,600 KiB here; holding the grid once
        # per scan peaked at about 6,100 KiB.
        path = _campaign_of_600_scans(tmp_path)
        scans = ingest(path)  # cold: writes the sidecar
        matrices_kib = (scans.gains.nbytes + scans.grid.nbytes) // 1024
        warm = ingest_peak_kib(path)
        assert warm <= matrices_kib + 3072, (warm, matrices_kib)


def _campaign_of_600_scans(tmp_path):
    """A 12.5 MB canonical file of 600 scans of 360 angles."""
    rng = np.random.default_rng(0)
    path = tmp_path / "campaign.csv"
    write_scans(path, scan_set([make_scan(x=float(i), angles=grid(360),
                                          gains=rng.lognormal(-14.0, 1.0, 360))
                                for i in range(600)]))
    return path


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
    """The row-wise csv.writer scan writer the per-scan writer replaced, over
    Scan records."""
    buf = io.StringIO()
    buf.write(provenance_line(seed=seed) + "\n")
    buf.write(CANONICAL_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for scan in scans:
        for phi, gain in zip(np.degrees(scan.angles), 10.0 * np.log10(scan.gains)):
            writer.writerow((
                scan.tx, repr(float(scan.x)), repr(float(scan.y)), repr(float(phi)),
                repr(float(gain)), VehicleState(scan.vehicle_state).value,
                Stacking(scan.stacking).value,
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
            st.sampled_from(list(VehicleState)), st.sampled_from(list(Stacking)),
            st.integers(0, 2**32 - 1),
        ), max_size=4),
        n=st.sampled_from([8, 12, 36]),
        seed=st.one_of(st.none(), st.integers(0, 99)),
    )
    def test_scan_bytes_match_csv_writer(self, specs, n, seed):
        scans = [
            Scan(tx=tx, x=x, y=y, angles=grid(n),
                 gains=np.random.default_rng(g).lognormal(-14.0, 3.0, n),
                 vehicle_state=vehicle, stacking=stacking)
            for tx, x, y, vehicle, stacking, g in specs
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scans.csv")
            write_scans(path, scan_set(scans), seed=seed)
            with open(path, "rb") as fh:
                assert fh.read() == oracle_scans_bytes(scans, seed=seed)

    @pytest.mark.parametrize("tx", ["TX,1", 'TX"1', 'a,"b'])
    def test_tx_id_with_csv_specials_round_trips(self, tmp_path, tx):
        scans = [make_scan(tx=tx), make_scan(seed=1, tx=tx, x=9.0)]
        path = tmp_path / "scans.csv"
        write_scans(path, scan_set(scans))
        assert path.read_bytes() == oracle_scans_bytes(scans)
        back = records(ingest(path))
        assert [s.key for s in back] == [s.key for s in scans]
        for orig, rec in zip(scans, back):
            assert np.allclose(rec.gains, orig.gains, rtol=1e-12)


# ------------------------------------------------------------ ScanSet sidecar

def _set_state(scans):
    """Everything a ScanSet holds, as comparable values: column values with
    their Python types, the float columns' and matrices' bytes, the hash."""
    return (
        [(v, type(v)) for key in ("tx", "vehicle_state", "stacking")
         for v in getattr(scans, key).tolist()],
        [(getattr(scans, key).dtype.str, getattr(scans, key).tobytes()) for key in ("x", "y")],
        [(m.dtype.str, m.shape, m.tobytes()) for m in (scans.grid, scans.gains)],
        scans.sha256,
    )


def _run_outcome(path, out):
    """What ingest and the `fit` and `spatial` commands give for path: the
    ScanSet's state or the error, and each command's exit code (or error),
    stdout, stderr and table bytes."""
    from contextlib import redirect_stderr, redirect_stdout

    from portcanyon.cli import main

    got = _outcome(ingest, path)
    runs = [got if isinstance(got, tuple) else _set_state(got)]
    for argv in (["fit", "--input", path, "--out", out],
                 ["spatial", "--input", path, "--out", out,
                  "--x-start", "5", "--x-step", "4", "--x-count", "2"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = _outcome(main, argv)
        table = Path(out).read_bytes() if os.path.exists(out) else None
        if table is not None:
            os.unlink(out)
        runs.append((rc, stdout.getvalue(), stderr.getvalue(), table))
    return runs


def _members(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _npz(members, raw=None) -> bytes:
    """An npz of members, with the .npy bytes of some replaced by raw ones."""
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in members.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, arr, allow_pickle=True)
            zf.writestr(name + ".npy", (raw or {}).get(name, member.getvalue()))
    return buf.getvalue()


def _raw_member(arr, **header) -> bytes:
    """The .npy bytes of arr's data under a header with some fields replaced."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": arr.dtype.str, "fortran_order": False, "shape": arr.shape, **header})
    return buf.getvalue() + arr.tobytes()


def _oversized(members) -> bytes:
    """An npz of members whose sizes and row headers all claim 10**12 times the
    rows, consistently, over the original data."""
    scale = 10**12
    raw = {name: _raw_member(members[name], shape=(members[name].size * scale,))
           for name in ("phi_deg", "gain_db")}
    return _npz(dict(members, sizes=members["sizes"] * scale), raw)


SIDECAR_KINDS = ("missing", "intact", "stale", "truncated", "bitflip", "npy", "version",
                 "extra", "pickled", "retyped", "swapped", "fortran", "reshaped", "invalid",
                 "nonpositive", "stacking", "empty", "duplicate", "oversized")


def _corrupt(kind, good, stale, sha256, pick):
    """Sidecar bytes of a kind (None: no file).  good is this file's own
    sidecar, or None if it has none; stale is another file's; pick(n) picks
    an int in [0, n)."""
    base = good if good is not None else stale
    if kind == "missing":
        return None
    if kind in ("intact", "stale"):
        return base if kind == "intact" else stale
    if kind == "truncated":
        return base[:pick(len(base))]
    if kind == "bitflip":
        at = pick(len(base))
        return base[:at] + bytes([base[at] ^ (1 << pick(8))]) + base[at + 1:]
    if kind == "npy":  # a bare .npy whose header claims 10**12 values
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            member, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
        return member.getvalue() + bytes(64)
    # The rest carry this file's hash, so only the defect stands between
    # them and a hit.
    members = dict(_members(base), sha256=np.array(sha256))
    if kind == "version":
        return _npz(dict(members, version=np.array(1, dtype=np.int64)))
    if kind == "extra":
        return _npz(dict(members, blocks=np.array([[1, 8]], dtype=np.int64)))
    if kind == "pickled":
        return _npz(dict(members, tx=members["tx"].astype(object)))
    if kind == "retyped":
        return _npz(dict(members, x=members["x"].astype("<f4")))
    if kind == "swapped":
        return _npz(dict(members, x=members["x"].astype(">f8")))
    if kind == "fortran":
        return _npz(members, {"phi_deg": _raw_member(members["phi_deg"], fortran_order=True)})
    if kind == "reshaped":
        return _npz(dict(members, x=members["x"][:-1]))
    if kind == "invalid":  # a gain whose linear value overflows
        gain_db = members["gain_db"].copy()
        gain_db[pick(gain_db.size)] = 4000.0
        return _npz(dict(members, gain_db=gain_db))
    if kind == "nonpositive":  # one more scan, of no rows
        return _npz(dict(members, sizes=np.append(members["sizes"], 0),
                         **{key: np.append(members[key], members[key][-1:])
                            for key in ScanSet.KEYS}))
    if kind == "stacking":
        return _npz(dict(members, stacking=np.full(members["stacking"].size, "bogus")))
    if kind == "empty":  # no scans at all
        return _npz({name: arr[:0] if arr.ndim else arr for name, arr in members.items()})
    if kind == "duplicate":  # one scan twice, a -0.0 x as 0.0: the same key
        sizes, gain_db = members["sizes"], members["gain_db"]
        scan = pick(sizes.size)
        start = int(sizes[:scan].sum())
        keys = {key: np.append(members[key], members[key][scan]) for key in ScanSet.KEYS}
        keys["x"][-1] += 0.0
        return _npz(dict(members, sizes=np.append(sizes, sizes[scan]), **keys,
                         gain_db=np.append(gain_db, gain_db[start:start + sizes[scan]])))
    return _oversized(members)


def _canonical_text(newline="\n"):
    body = _rows(tx="TX1_63", x="5.0") + _rows(x="-0.0") + _rows(tx="TX1_63", x="9.0")
    return newline.join([provenance_line(), CANONICAL_HEADER] + body) + newline


class TestSidecar:
    @settings(max_examples=120, deadline=None)
    @given(newline=st.sampled_from(["\n", "\r\n"]), edits=st.one_of(st.just([]), _EDITS),
           kind=st.sampled_from(SIDECAR_KINDS), data=st.data())
    def test_any_sidecar_gives_what_no_sidecar_gives(self, newline, edits, kind, data):
        text = _canonical_text(newline)
        text = _mutated(text, edits)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "case.csv"), os.path.join(tmp, "fit.csv")
            sidecar = path + ".scanset.npz"
            other = os.path.join(tmp, "other.csv")
            write_scans(other, scan_set([make_scan(), make_scan(seed=1, x=9.0)]))
            ingest(other)
            with open(other + ".scanset.npz", "rb") as fh:
                stale = fh.read()
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            want = _run_outcome(path, out)
            good = Path(sidecar).read_bytes() if os.path.exists(sidecar) else None
            assert (good is None) == isinstance(want[0][0], type)
            if os.path.exists(sidecar):
                os.unlink(sidecar)
            corrupt = _corrupt(kind, good, stale, file_sha256(path),
                               lambda n: data.draw(st.integers(0, n - 1)))
            if corrupt is not None:
                with open(sidecar, "wb") as fh:
                    fh.write(corrupt)
            assert _run_outcome(path, out) == want
            assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")]

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_each_kind_gives_what_no_sidecar_gives(self, tmp_path, kind):
        path, out = str(tmp_path / "case.csv"), str(tmp_path / "out.csv")
        other = tmp_path / "other.csv"
        write_scans(other, scan_set([make_scan(), make_scan(seed=1, x=9.0)]))
        ingest(other)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_canonical_text())
        want = _run_outcome(path, out)
        assert [run[0] for run in want[1:]] == [0, 0]
        sidecar = tmp_path / "case.csv.scanset.npz"
        corrupt = _corrupt(kind, sidecar.read_bytes(),
                           (tmp_path / "other.csv.scanset.npz").read_bytes(),
                           file_sha256(path), lambda n: n // 3)
        sidecar.unlink()
        if corrupt is not None:
            sidecar.write_bytes(corrupt)
        assert _run_outcome(path, out) == want

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_only_an_intact_sidecar_is_trusted(self, tmp_path, kind, monkeypatch):
        from portcanyon.dataio import _load_sidecar

        path = tmp_path / "case.csv"
        path.write_text(_canonical_text(), encoding="utf-8")
        other = tmp_path / "other.csv"
        write_scans(other, scan_set([make_scan(), make_scan(seed=1, x=9.0)]))
        for csv_path in (path, other):
            ingest(csv_path)
        good = (tmp_path / "case.csv.scanset.npz").read_bytes()
        stale = (tmp_path / "other.csv.scanset.npz").read_bytes()
        corrupt = _corrupt(kind, good, stale, file_sha256(path), lambda n: n // 3)
        sidecar = tmp_path / "case.csv.scanset.npz"
        sidecar.unlink()
        if corrupt is not None:
            sidecar.write_bytes(corrupt)
        read, real, real_fromfile = [], np.lib.npyio.NpzFile.__getitem__, np.fromfile
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda npz, key: read.append(key) or real(npz, key))
        monkeypatch.setattr(np, "fromfile", lambda *a, **k: read.append("fromfile")
                            or real_fromfile(*a, **k))
        got = _load_sidecar(str(sidecar), file_sha256(path), path.stat().st_size)
        # The loader passes rows that only the build refuses.
        assert (got is not None) == (kind in ("intact", "invalid"))
        if kind == "invalid":
            with pytest.raises(DomainError, match="finite"):
                _scan_set(*got, "h")
        if kind == "intact":
            assert _set_state(_scan_set(*got, "h")) == _set_state(
                _scan_set(*_ingest_columnar(path), "h"))
        if kind == "oversized":
            assert read == ["version", "sha256", "sizes", *ScanSet.KEYS]
        assert "fromfile" not in read

    @pytest.mark.parametrize("key, value", [
        ("tx", ""), ("tx", "#TX2"), ("x", np.nan), ("y", np.inf), ("y", -np.inf),
        ("vehicle_state", "parked"), ("stacking", "bogus"),
    ])
    def test_keys_must_pass_the_readers_rules(self, tmp_path, key, value):
        from portcanyon.dataio import _load_sidecar

        path = tmp_path / "case.csv"
        path.write_text(_canonical_text(), encoding="utf-8")
        sha256, size = ingest(path).sha256, path.stat().st_size
        sidecar = tmp_path / "case.csv.scanset.npz"
        assert _load_sidecar(str(sidecar), sha256, size) is not None
        members = _members(sidecar.read_bytes())
        column = members[key].tolist()
        column[1] = value
        sidecar.write_bytes(_npz(dict(members, **{key: np.array(column)})))
        assert _load_sidecar(str(sidecar), sha256, size) is None

    def test_a_hit_skips_the_byte_check(self, tmp_path, monkeypatch):
        from portcanyon import dataio

        path = tmp_path / "case.csv"
        path.write_text(_canonical_text(), encoding="utf-8")
        cold = _set_state(ingest(path))

        def no_byte_check(path):
            raise AssertionError("a sidecar hit checked the bytes")

        monkeypatch.setattr(dataio, "_body_lines", no_byte_check)
        assert _set_state(ingest(path)) == cold

    def test_sidecar_keeps_signed_zero_order_and_str_columns(self, tmp_path):
        from portcanyon.dataio import _load_sidecar

        path = tmp_path / "case.csv"
        # Three 8-angle scans, the middle one keyed at x = -0.0.
        path.write_text(_canonical_text(), encoding="utf-8")
        parsed = ingest(path)
        rows = _load_sidecar(str(path) + ".scanset.npz", parsed.sha256, path.stat().st_size)
        cached = _scan_set(*rows, parsed.sha256)
        assert _set_state(cached) == _set_state(parsed)
        assert cached.tx.tolist() == ["TX1_63", "TX2", "TX1_63"]
        assert repr(float(cached.x[1])) == "-0.0"

    def test_trailing_nul_in_tx_is_not_cached(self, tmp_path):
        path = tmp_path / "case.csv"
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + _rows(tx="TX2\x00"))
        scans = ingest(path)
        assert scans.tx.tolist() == ["TX2\x00"]
        assert not os.path.exists(str(path) + ".scanset.npz")
        assert _set_state(ingest(path)) == _set_state(scans)

    def test_a_long_tx_id_saves_no_sidecar_larger_than_the_input(self, tmp_path):
        # numpy stores a text column at its longest value's width, so one
        # 20,000-character tx_id made a tx member of 41 x 80 kB (3.3 MB) for
        # a 0.2 MB input, which the load then refused as larger than it.
        import tracemalloc

        path = tmp_path / "case.csv"
        body = sum((_rows(x=f"{k}.0") for k in range(40)), _rows(tx="TX2" + "x" * 20000))
        write_csv(path, [provenance_line(), CANONICAL_HEADER] + body)
        member = 4 * 41 * 20003
        assert member > path.stat().st_size
        tracemalloc.start()
        try:
            scans = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scans) == 41 and len(scans.tx[0]) == 20003
        assert not os.path.exists(str(path) + dataio.SIDECAR_SUFFIX)
        assert peak < member, peak


def _parsed_rows(path):
    """The rows `ingest` parses path into, by the reader it takes."""
    try:
        return _ingest_columnar(path)
    except _NotCanonical:
        return _ingest_rows(path)


def _sidecar_rows(path):
    """The rows in path's sidecar, if it holds path's content (else None)."""
    return dataio._load_sidecar(str(path) + dataio.SIDECAR_SUFFIX, file_sha256(path),
                                os.path.getsize(path))


def _saved_rows(path):
    """The rows `ingest` parses path into, as it saves them in the sidecar:
    scan 0's angles as the grid."""
    keys, sizes, phi_deg, gain_db = _parsed_rows(path)
    return keys, sizes, phi_deg[:sizes[0]], gain_db


class TestSavedSidecar:
    """`synth` saves the sidecar of the CSV it writes, from the set it holds."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_angles=st.integers(8, 40),
           layout=st.sampled_from(["uniform", "nonuniform"]),
           vehicle_mode=st.sampled_from(["none", "dense"]))
    def test_synth_sidecar_holds_the_parsed_rows(self, seed, n_angles, layout, vehicle_mode):
        from contextlib import redirect_stdout

        from portcanyon.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "campaign.csv")
            with redirect_stdout(io.StringIO()):
                assert main(["synth", "--layout", layout, "--vehicle-mode", vehicle_mode,
                             "--seed", str(seed), "--n-angles", str(n_angles),
                             "--out", path]) == 0
            saved = _rows_of(_sidecar_rows, path)
            warm = _set_state(ingest(path))
            os.unlink(path + dataio.SIDECAR_SUFFIX)
            assert saved == _rows_of(_saved_rows, path)
            assert len(saved[2]) == 8 * n_angles  # one grid's phi_deg bytes
            assert warm == _set_state(ingest(path))

    def test_sidecar_save_copies_no_member(self, tmp_path):
        # np.savez copied each row member whole (tobytes) before writing it.
        import tracemalloc

        path = _campaign_of_600_scans(tmp_path)
        rows = _saved_rows(path)
        sidecar = str(tmp_path / "rows.npz")
        tracemalloc.start()
        try:
            dataio._save_sidecar(sidecar, rows, "h", path.stat().st_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows[3].nbytes, (peak, rows[3].nbytes)
        loaded = dataio._load_sidecar(sidecar, "h", path.stat().st_size)
        assert _rows_of(lambda p: loaded, path) == _rows_of(lambda p: rows, path)
        # The very bytes np.savez writes for the same members, in the same order.
        with np.load(sidecar, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        savez = io.BytesIO()
        np.savez(savez, allow_pickle=False, **members)
        assert savez.getvalue() == Path(sidecar).read_bytes()

    def test_synth_replaces_another_csvs_sidecar(self, tmp_path, capsys):
        from portcanyon.cli import main

        other, path = tmp_path / "other.csv", tmp_path / "campaign.csv"
        write_scans(other, scan_set([make_scan(), make_scan(seed=1, x=9.0)]))
        ingest(other)
        sidecar = tmp_path / ("campaign.csv" + dataio.SIDECAR_SUFFIX)
        os.replace(str(other) + dataio.SIDECAR_SUFFIX, sidecar)
        stale = sidecar.read_bytes()
        assert main(["synth", "--layout", "uniform", "--n-angles", "8", "--out", str(path)]) == 0
        assert sidecar.read_bytes() != stale
        assert _rows_of(_sidecar_rows, path) == _rows_of(_saved_rows, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "campaign.csv", sidecar.name, "other.csv"]


class TestOneGrid:
    """A set holds one grid, scan 0's, which every selection shares."""

    N_ANGLES = 12

    def _synth(self, tmp_path):
        from contextlib import redirect_stdout

        from portcanyon.cli import main

        path = tmp_path / "campaign.csv"
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--layout", "uniform", "--vehicle-mode", "dense",
                         "--n-angles", str(self.N_ANGLES), "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("reader", ["sidecar", "columnar", "rows"])
    def test_every_reader_holds_one_grid(self, tmp_path, reader):
        path = self._synth(tmp_path)
        sidecar = str(path) + dataio.SIDECAR_SUFFIX
        if reader != "sidecar":
            os.unlink(sidecar)
        if reader == "rows":  # a quoted tx_id sends the file to the row reader
            provenance, header, first, *rest = path.read_text(encoding="ascii").splitlines()
            path.write_text("\n".join([provenance, header, '"' + first.replace(",", '",', 1),
                                       *rest]) + "\n", encoding="ascii")
            with pytest.raises(_NotCanonical):
                _ingest_columnar(path)
        elif reader == "columnar":
            _ingest_columnar(path)  # does not decline
        scans = ingest(path)
        grid_row = np.radians(_parsed_rows(path)[2][:self.N_ANGLES])
        assert scans.grid.tobytes() == grid_row.tobytes()
        assert not scans.grid.flags.writeable
        assert scans.gains.shape == (len(scans), self.N_ANGLES)
        with np.load(sidecar, allow_pickle=False) as npz:
            assert npz["phi_deg"].shape == (self.N_ANGLES,)
            assert npz["gain_db"].shape == (len(scans) * self.N_ANGLES,)
        assert _set_state(ingest(path)) == _set_state(scans)

    @pytest.mark.parametrize("case", ["negative zero start", "tiny start"])
    def test_a_grid_within_the_tolerance_reads_as_scan_0s(self, tmp_path, case):
        # The last scan's first angle moves by no more than GRID_MATCH_TOL:
        # the set is the unmodified file's, but for its hash.
        path = self._synth(tmp_path)
        os.unlink(str(path) + dataio.SIDECAR_SUFFIX)
        want = ingest(path)
        provenance, header, *rows = path.read_text(encoding="ascii").splitlines()
        at = len(rows) - self.N_ANGLES  # the last scan's first row
        first = rows[at].split(",")
        assert first[3] == "0.0"
        first[3] = "-0.0" if case == "negative zero start" else "1e-300"
        rows[at] = ",".join(first)
        path.write_text("\n".join([provenance, header, *rows]) + "\n", encoding="ascii")
        scans = ingest(path)
        assert _set_state(scans)[:3] == _set_state(want)[:3]
        with np.load(str(path) + dataio.SIDECAR_SUFFIX, allow_pickle=False) as npz:
            assert npz["phi_deg"].shape == (self.N_ANGLES,)
        assert _set_state(ingest(path)) == _set_state(scans)

    def test_a_sidecar_of_one_angle_row_per_scan_is_a_miss(self, tmp_path, monkeypatch):
        # A format-2 sidecar may hold phi_deg as one value per row; ingest
        # parses the file, gives the parse's set and saves the grid once.
        path = self._synth(tmp_path)
        sidecar = str(path) + dataio.SIDECAR_SUFFIX
        members = _members(Path(sidecar).read_bytes())
        assert members["phi_deg"].shape == (self.N_ANGLES,)
        rows = members["sizes"].size
        per_row = _npz(dict(members, phi_deg=np.tile(members["phi_deg"], rows)))
        with open(sidecar, "wb") as fh:
            fh.write(per_row)
        assert _sidecar_rows(path) is None
        parses = []
        monkeypatch.setattr(dataio, "_ingest_columnar",
                            lambda p, read=dataio._ingest_columnar: parses.append(p) or read(p))
        scans = ingest(path)
        assert parses == [path]
        assert _members(Path(sidecar).read_bytes())["phi_deg"].shape == (self.N_ANGLES,)
        assert _rows_of(_sidecar_rows, path) == _rows_of(_saved_rows, path)
        os.unlink(sidecar)
        assert _set_state(scans) == _set_state(ingest(path))
