"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench

They need neither the program nor a run: the percentile rule, the digest
normalization, the table checks, the self-time computation and the
speed-probe scaling.
"""

import pytest

from checks import campaign_problems, digest, normalized, table_problems, tail_percentile
from spans import Recorder, command_balance, covered, inclusive_time, self_times
from speedometer import REFERENCE_UNIT_S, read_samples, speed_scaled


# ------------------------------------------------------------- percentile --

def test_tail_needs_more_samples_than_the_margin():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(11)) == (100.0 / 11, 0)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))  # order must not matter
    percentile, value = tail_percentile(values)
    assert percentile == 90.0
    assert value == 90
    assert sum(v > value for v in values) == 10


def test_tail_other_margin():
    assert tail_percentile([5, 1, 4, 2, 3], beyond=2) == (60.0, 3)


# ----------------------------------------------------------------- digest --

def test_provenance_lines_do_not_change_the_digest():
    a = b"# portcanyon 0.1.0; seed=na; input_sha256=aa\nx,y\n1.0,2.0\n"
    b = b"# portcanyon 0.2.0; seed=3; input_sha256=bb; config=cc\nx,y\n1.0,2.0\n"
    assert normalized(a) == b"x,y\n1.0,2.0\n"
    assert digest(a) == digest(b)


def test_every_comment_line_is_dropped_but_not_a_hash_inside_a_line():
    data = b"# one\nx,y\n# two\n1.0,#2\n"
    assert normalized(data) == b"x,y\n1.0,#2\n"


def test_a_changed_value_changes_the_digest():
    assert digest(b"# p\nx\n1.0\n") != digest(b"# p\nx\n1.0000000000000002\n")


def test_data_without_comments_is_hashed_as_is():
    assert normalized(b"x\n1\n") == b"x\n1\n"


# ----------------------------------------------------------- table checks --

def test_cdf_table_passes_and_fails():
    good = b"# p\nv,p\n-1.0,0.5\n2.0,1.0\n"
    columns = ("v", "p")
    assert table_problems(good, columns, rows=2, monotone=columns, ends_at_one=("p",))[0] == []
    unsorted = b"v,p\n2.0,0.5\n-1.0,1.0\n"
    assert table_problems(unsorted, columns, monotone=columns)[0] == ["v is not non-decreasing"]
    short = b"v,p\n-1.0,0.5\n2.0,0.9\n"
    assert table_problems(short, columns, ends_at_one=("p",))[0] == ["p does not end at 1"]


def test_non_finite_cell_is_reported():
    problems, _ = table_problems(b"v,p\nnan,0.5\n", ("v", "p"))
    assert problems and "not finite" in problems[0]


CAMPAIGN = (
    b"# portcanyon 0.1.0; seed=0; input_sha256=na\n"
    b"tx_id,x_m,y_m,phi_deg,gain_db,vehicle_state,stacking\n"
    b"TX2,13.5,1.0,0.0,-61.5,absent,uniform\n"
    b"TX2,13.5,1.0,1.0,-60.25,position1,uniform\n"
)


def test_campaign_csv_checks():
    assert campaign_problems(CAMPAIGN, rows=2) == []
    assert campaign_problems(CAMPAIGN, rows=3) == ["2 rows, expected 3"]
    assert campaign_problems(CAMPAIGN.replace(b"-60.25", b"inf"), rows=2)
    assert campaign_problems(CAMPAIGN.replace(b"position1", b"parked"), rows=2)


# -------------------------------------------------------------- self time --

def _span(name, layer, start, end, parent, work=0):
    return [name, layer, start, end, parent, work]


SPANS = [
    _span("cli.angular", "cli", 0.0, 10.0, None),
    _span("dataio.ingest", "dataio", 1.0, 4.0, 0),
    _span("angular.gain_cdfs", "angular", 4.0, 7.0, 0),
    _span("stats.empirical_cdf", "stats", 5.0, 6.0, 2),
    _span("dataio.write_table", "dataio", 7.5, 9.0, 0),
]


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_subtracts_children():
    assert self_times(SPANS) == [10 - 3 - 3 - 1.5, 3.0, 2.0, 1.0, 1.5]


def test_layer_and_cli_self_times_add_up_to_the_command_span():
    owners, root, residual = command_balance(SPANS)
    assert owners == {"cli": 2.5, "dataio": 4.5, "angular": 2.0, "stats": 1.0}
    assert root == 10.0
    assert residual == pytest.approx(0.0)


def test_inclusive_time_does_not_count_nested_repeats_twice():
    spans = [
        _span("cli.x", "cli", 0.0, 10.0, None),
        _span("angular.to_db", "angular", 1.0, 5.0, 0),
        _span("stats.empirical_cdf", "stats", 2.0, 4.0, 1),
        _span("angular.to_db", "angular", 2.5, 3.0, 2),
        _span("angular.to_db", "angular", 6.0, 7.0, 0),
    ]
    assert inclusive_time(spans, "angular.to_db") == 5.0


# --------------------------------------------------------------- recorder --

class _Boom(Exception):
    pass


def test_recorder_skips_calls_inside_the_same_layer_and_counts_errors():
    recorder = Recorder("t", toolkit_error=_Boom)

    def inner(x):
        return x + 1

    def fail():
        raise _Boom("no")

    inner_shim = recorder.shim(inner, "stats", "stats.inner")
    outer_shim = recorder.shim(lambda x: inner_shim(x) * 2, "stats", "stats.outer")
    root = recorder.shim(lambda: outer_shim(1) + inner_shim(0), "cli", "cli.fit")
    assert root() == 5
    assert [s[0] for s in recorder.spans] == ["cli.fit", "stats.outer", "stats.inner"]
    assert [s[4] for s in recorder.spans] == [None, 0, 0]

    with pytest.raises(_Boom):
        recorder.shim(fail, "linkbudget", "linkbudget.fail")()
    assert recorder.errors == {"linkbudget": 1}
    assert recorder.stack == []


# ------------------------------------------------------------ speed probe --

def test_a_step_at_half_speed_counts_as_half_its_wall_time():
    samples = [(t / 10, 2 * REFERENCE_UNIT_S) for t in range(100)]
    assert speed_scaled(samples, 1.0, 3.0) == pytest.approx(1.0)


def test_only_samples_inside_the_step_count():
    samples = [(t / 10, REFERENCE_UNIT_S * (1 if t < 50 else 4)) for t in range(100)]
    assert speed_scaled(samples, 0.0, 2.0) == pytest.approx(2.0)
    assert speed_scaled(samples, 6.0, 8.0) == pytest.approx(0.5)


def test_a_probe_cut_by_a_context_switch_is_trimmed():
    samples = [(t / 10, REFERENCE_UNIT_S) for t in range(20)]
    samples[5] = (0.5, 50 * REFERENCE_UNIT_S)
    assert speed_scaled(samples, 0.0, 1.9) == pytest.approx(1.9)


def test_a_step_without_enough_samples_is_an_error():
    with pytest.raises(RuntimeError):
        speed_scaled([(0.5, REFERENCE_UNIT_S)], 0.0, 1.0)


def test_read_samples_skips_a_line_cut_short(tmp_path):
    path = tmp_path / "probe.txt"
    path.write_text("1.000000 0.0005000\n1.050000 0.0006000\n1.1000")
    assert read_samples(path) == [(1.0, 0.0005), (1.05, 0.0006)]
