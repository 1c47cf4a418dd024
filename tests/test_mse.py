import hashlib
import math
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_iv import _table, cli, mse
from cascade_iv._table import write_lattice_csv
from cascade_iv.config import ExperimentConfig
from cascade_iv.mse import (
    _log_factorials,
    ExponentialRefinementBoundary,
    GridSizeError,
    PacketStreamBoundary,
    SequenceBoundary,
    SingleSampleBoundary,
    log_closed_form,
    log_closed_form_single,
    log_closed_form_single_grid,
    log_closed_form_streaming_grid,
    solve_grid,
    write_grid_csv,
)
from cascade_iv.params import make_channel_params

CH10 = make_channel_params(10.0)
PBAR = 10.0 / 11.0


def dp_reference(pbar, boundary_row, r_max, t_max):
    """Hand-rolled cell-by-cell recursion, row by row, independent of solve_grid's wavefront.

    Pass ``channel.snr_bar`` as ``pbar`` for a bit-exact comparison: each cell
    is the same two products and one add as in ``solve_grid``.
    """
    m = np.ones((r_max + 1, t_max + 2))
    m[0, 1:] = boundary_row
    for r in range(1, r_max + 1):
        for t in range(0, t_max + 1):
            m[r, t + 1] = pbar * m[r - 1, t + 1] + (1 - pbar) * m[r, t]
    return m


class TestSolveGrid:
    def test_first_column_is_one_minus_pbar_power(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 8, 5)
        for r in range(1, 9):
            assert grid.at(r, 0) == pytest.approx(1.0 - PBAR**r, rel=1e-14)

    def test_first_row_is_geometric(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 12)
        for t in range(13):
            assert grid.at(1, t) == pytest.approx((1.0 / 11.0) ** (t + 1), rel=1e-13)

    def test_hand_unrolled_m21(self):
        # M_2(1) = pbar*M_1(1) + (1-pbar)*M_2(0)
        #        = (10/11)(1/121) + (1/11)(1 - 100/121)
        oracle = (10.0 / 11.0) * (1.0 / 121.0) + (1.0 / 11.0) * (1.0 - 100.0 / 121.0)
        grid = solve_grid(CH10, SingleSampleBoundary(), 2, 1)
        assert grid.at(2, 1) == pytest.approx(oracle, rel=1e-14)
        assert grid.at(2, 1) == pytest.approx(0.023291, abs=5e-7)

    def test_matches_naive_recursion(self):
        boundary = ExponentialRefinementBoundary(0.7)
        grid = solve_grid(CH10, boundary, 12, 18)
        ref = dp_reference(PBAR, boundary.profile(18), 12, 18)
        assert np.allclose(grid.values, ref, rtol=1e-13, atol=0)

    def test_initial_column_is_one(self):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 3), 4, 6)
        assert (grid.values[:, 0] == 1.0).all()

    def test_recursion_identity_all_interior_cells(self):
        for boundary in (
            SingleSampleBoundary(),
            ExponentialRefinementBoundary(0.5),
            PacketStreamBoundary(2, 2),
        ):
            grid = solve_grid(CH10, boundary, 24, 40)
            m = grid.values
            resid = m[1:, 1:] - (PBAR * m[:-1, 1:] + (1 - PBAR) * m[1:, :-1])
            assert np.abs(resid).max() <= 1e-12

    def test_values_in_unit_interval_and_monotone(self):
        for boundary in (
            SingleSampleBoundary(),
            ExponentialRefinementBoundary(1.1),
            PacketStreamBoundary(3, 4),
        ):
            grid = solve_grid(CH10, boundary, 15, 30)
            v = grid.values
            assert (v >= 0).all() and (v <= 1).all()
            assert (np.diff(v, axis=1) <= 1e-15).all()  # non-increasing in t
            assert (np.diff(v[:, 1:], axis=0) >= -1e-15).all()  # non-decreasing in r

    def test_cell_cap(self):
        with pytest.raises(GridSizeError):
            # 10001 x 10002 cells exceed DEFAULT_CELL_CAP; nothing is allocated
            solve_grid(CH10, SingleSampleBoundary(), 10_000, 10_000)

    def test_cell_cap_counts_the_t_equals_minus_one_column(self):
        # (r_max + 1) * (t_max + 2) cells: 5000 x 10000 is the cap exactly
        mse.check_grid_size(4_999, 9_998)
        with pytest.raises(GridSizeError, match=r"^grid of 50005000 cells exceeds cap 50000000$"):
            mse.check_grid_size(4_999, 9_999)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            solve_grid(CH10, SingleSampleBoundary(), 0, 5)

    @given(
        snr=st.floats(min_value=0.05, max_value=50.0),
        rate=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_refinement_grid_properties(self, snr, rate):
        ch = make_channel_params(snr)
        grid = solve_grid(ch, ExponentialRefinementBoundary(rate), 8, 12)
        v = grid.values
        assert (v >= 0).all() and (v <= 1).all()
        assert (np.diff(v, axis=1) <= 1e-15).all()


# sha256 of solve_grid(...).values, recorded from the row-by-row
# scipy.signal.lfilter solver that the wavefront replaced.
SINGLE_2000_SHA256 = "e791eee3c830d3ae5c901169aa539af68e4a1dec5889587da07dcd9e0a848727"
STAIRCASE_300x500_SHA256 = "44ad5f5d73f297924b883ce1227bb2da411d18defbef12dee69da5e89edba7b8"


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestWavefront:
    BOUNDARIES = (
        SingleSampleBoundary(),
        ExponentialRefinementBoundary(0.5),
        PacketStreamBoundary(2, 2),
        SequenceBoundary(tuple(np.linspace(0.9, 0.01, 301))),
    )
    SHAPES = ((1, 0), (3, 0), (1, 5), (300, 4), (4, 300), (24, 43), (200, 200))

    @pytest.mark.parametrize("snr", [10.0, 1.0, 0.3])
    def test_bit_identical_to_cell_by_cell_recursion(self, snr):
        ch = make_channel_params(snr)
        for boundary in self.BOUNDARIES:
            for r_max, t_max in self.SHAPES:
                grid = solve_grid(ch, boundary, r_max, t_max)
                ref = dp_reference(ch.snr_bar, boundary.profile(t_max), r_max, t_max)
                assert np.array_equal(grid.values, ref), (boundary, r_max, t_max)

    def test_pinned_lattice_bytes(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 2000, 2000)
        assert _sha256(grid.values) == SINGLE_2000_SHA256
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 300, 500)
        assert _sha256(grid.values) == STAIRCASE_300x500_SHA256

    def test_result_is_read_only(self):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 5, 7)
        assert grid.values.shape == (6, 9)
        with pytest.raises(ValueError):
            grid.values[1, 1] = 0.5

    def test_allocates_only_its_lattice(self):
        solve_grid(CH10, SingleSampleBoundary(), 3, 4)  # warm up lazy set-up
        tracemalloc.start()
        try:
            values = solve_grid(CH10, SingleSampleBoundary(), 2000, 2000).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2**20, peak - values.nbytes
        assert values.flags.c_contiguous and not values.flags.writeable

    @pytest.mark.parametrize("boundary", [
        ExponentialRefinementBoundary(0.5), PacketStreamBoundary(2, 2),
        SequenceBoundary((0.5,) * 2001),
    ])
    def test_every_boundary_allocates_only_its_lattice(self, boundary):
        # a boundary's profile builds temporaries of its own; they are freed
        # before the band scratch is allocated
        solve_grid(CH10, boundary, 3, 4)  # warm up lazy set-up
        tracemalloc.start()
        try:
            values = solve_grid(CH10, boundary, 2000, 2000).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2**20, peak - values.nbytes

    def test_tall_lattice_keeps_no_diagonal_buffers(self):
        # a diagonal of this lattice has 20,001 cells; the sweep's buffers
        # are sized by its band and its 8 columns instead
        solve_grid(CH10, SingleSampleBoundary(), 3, 4)  # warm up lazy set-up
        tracemalloc.start()
        try:
            values = solve_grid(CH10, SingleSampleBoundary(), 20_000, 6).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2**16, peak - values.nbytes

    @pytest.mark.parametrize("boundary", [
        SingleSampleBoundary(), ExponentialRefinementBoundary(20.0), PacketStreamBoundary(3, 2),
        SequenceBoundary((0.5,) * 10 + (0.0,) * 330 + (5e-16,) * 61),  # a run ended by the boundary
    ])
    def test_underflow_raises_nothing(self, boundary):
        # cells and boundary rows underflow to +0.0 whatever numpy's error state
        want = solve_grid(CH10, boundary, 30, 400).values
        with np.errstate(all="raise"):
            got = solve_grid(CH10, boundary, 30, 400).values
        assert (want[1:] == 0).any()
        assert got.tobytes() == want.tobytes()

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # the package needs numpy only: no scipy module at all may be loaded
        code = ("import sys, cascade_iv, cascade_iv.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


def wavefront_reference(channel, boundary, r_max, t_max):
    """``solve_grid``'s wavefront before it skipped the runs of +0.0: every cell computed."""
    pbar = channel.snr_bar
    qbar = 1.0 - pbar
    n_cols = t_max + 2
    values = np.empty((r_max + 1, n_cols))
    values[:, 0] = 1.0
    values[0, 1:] = boundary.profile(t_max)
    flat = values.reshape(-1)
    diag = np.ones(r_max + 1)
    up = np.empty(r_max)
    for d in range(2, r_max + n_cols):
        if d <= n_cols:
            diag[0] = values[0, d - 1]
        lo, hi = max(1, d - n_cols + 1), min(r_max, d - 1)
        n = hi - lo + 1
        np.multiply(diag[lo - 1 : hi], pbar, out=up[:n])
        cells = diag[lo : hi + 1]
        np.multiply(cells, qbar, out=cells)
        np.add(cells, up[:n], out=cells)
        flat[d + lo * (n_cols - 1) : d + hi * (n_cols - 1) + 1 : n_cols - 1] = cells
    return values


class TestZeroRuns:
    """``solve_grid`` skips the +0.0 runs of underflowed cells without moving a byte."""

    @staticmethod
    def boundaries(t_max):
        # a refinement rate of 20 nats underflows its boundary row at t = 17; the
        # sequence stays at exactly 0, then rises by less than the 1e-15 tolerance
        profile = np.linspace(0.9, 0.0, t_max + 1)
        profile[t_max // 2 :] = 0.0
        profile[-3:-1] = 5e-16
        return (SingleSampleBoundary(), ExponentialRefinementBoundary(0.5),
                ExponentialRefinementBoundary(20.0), PacketStreamBoundary(3, 2),
                SequenceBoundary(tuple(profile)))

    @given(r_max=st.integers(1, 100), t_max=st.integers(0, 600),
           snr=st.sampled_from([0.3, 10.0, 1e3, 1e6]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_full_wavefront(self, r_max, t_max, snr):
        ch = make_channel_params(snr)
        for boundary in self.boundaries(t_max):
            got = solve_grid(ch, boundary, r_max, t_max).values
            want = wavefront_reference(ch, boundary, r_max, t_max)
            assert got.tobytes() == want.tobytes(), (boundary, r_max, t_max, snr)

    @pytest.mark.parametrize("width", [1, 2, 7, 32, 60])
    def test_bit_identical_at_every_band_width(self, monkeypatch, width):
        # narrow bands put band edges, strips and run ends at every kind of
        # cell; at 32, 40x30 and 33x31 take bands of n_cols - 1 diagonals.
        # At 60, 70x80's 150 diagonals end in a band of 30, 61x59 takes two
        # bands of n_cols - 1 and 1x58 a single band of n_cols - 1 = 59.
        monkeypatch.setattr(mse, "_BAND", width)
        for snr in (0.3, 10.0, 1e6):
            ch = make_channel_params(snr)
            for r_max, t_max in ((40, 30), (31, 32), (33, 31), (100, 3), (3, 100),
                                 (70, 80), (61, 59), (1, 58)):
                for boundary in self.boundaries(t_max):
                    got = solve_grid(ch, boundary, r_max, t_max).values
                    want = wavefront_reference(ch, boundary, r_max, t_max)
                    assert got.tobytes() == want.tobytes(), (boundary, r_max, t_max, snr)

    def test_runs_are_reached(self):
        # the hypothesis shapes hold underflowed runs, at the low-r end and mid-row
        ch = make_channel_params(1e3)
        for boundary in self.boundaries(600)[2:]:
            grid = solve_grid(ch, boundary, 40, 600).values
            assert (grid[1:] == 0).sum() > 5_000
            assert grid.tobytes() == wavefront_reference(ch, boundary, 40, 600).tobytes()


class TestClosedFormSingle:
    def test_single_relay_geometric(self):
        for t in (0, 1, 5, 40):
            assert math.exp(log_closed_form_single(CH10, 1, t)) == pytest.approx(
                (1.0 / 11.0) ** (t + 1), rel=1e-12
            )

    def test_time_zero(self):
        m30 = math.exp(log_closed_form_single(CH10, 3, 0))
        assert m30 == pytest.approx(1.0 - PBAR**3, rel=1e-12)
        assert m30 == pytest.approx(0.24868, abs=1e-5)

    def test_matches_grid_deep_cell(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 5, 50)
        assert math.exp(log_closed_form_single(CH10, 5, 50)) == pytest.approx(grid.at(5, 50),
                                                                               rel=1e-9)

    def test_grid_variant_matches_scalar(self):
        log_grid = log_closed_form_single_grid(CH10, 6, 9)
        for r in (1, 3, 6):
            for t in (0, 4, 9):
                assert log_grid[r, t] == pytest.approx(
                    log_closed_form_single(CH10, r, t), rel=1e-12
                )

    def test_matches_grid_everywhere(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 40, 60)
        log_cf = log_closed_form_single_grid(CH10, 40, 60)
        rel = np.abs(np.exp(log_cf[1:]) - grid.values[1:, 1:]) / grid.values[1:, 1:]
        assert rel.max() <= 1e-9

    def test_log_domain_survives_huge_binomials(self):
        # C(400, 200) alone overflows float64; the log route must not.
        val = log_closed_form_single(CH10, 200, 200)
        assert math.isfinite(val)

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError):
            log_closed_form_single(CH10, 0, 3)
        with pytest.raises(ValueError):
            log_closed_form_single(CH10, 3, -1)


class TestClosedFormStreaming:
    """The refinement boundary: ``log_closed_form`` and the grid form."""

    def test_time_zero_boundary_contribution(self):
        # at t=0 the only boundary cell is M_0(0) = e^{-2R}, reached through
        # r relay steps: M_r(0) = 1 - pbar^r + pbar^r e^{-2R}
        rate = 0.5
        for r in (1, 2, 5):
            m = math.exp(log_closed_form(CH10, ExponentialRefinementBoundary(rate), r, 0))
            assert m == pytest.approx(1 - PBAR**r + PBAR**r * math.exp(-2 * rate), rel=1e-13)

    def test_term_enumeration_oracle_r1_t2(self):
        # M_1(-1) = 1 reaches (1,2) through three time steps; boundary cells
        # (0,0),(0,1),(0,2) with values e^{-2R(x+1)} through one relay step
        # and 2-x time steps:
        rate = 0.5
        oracle = (1.0 / 11.0) ** 3 + PBAR * (
            math.exp(-2 * rate * 3) * 1.0
            + math.exp(-2 * rate * 2) * (1.0 / 11.0)
            + math.exp(-2 * rate * 1) * (1.0 / 11.0) ** 2
        )
        m = math.exp(log_closed_form(CH10, ExponentialRefinementBoundary(rate), 1, 2))
        assert m == pytest.approx(oracle, rel=1e-13)

    def test_total_matches_hand_unrolled_dp(self):
        rate = 0.5
        b = [math.exp(-2 * rate * (t + 1)) for t in range(3)]
        m10 = PBAR * b[0] + (1 - PBAR) * 1.0
        m11 = PBAR * b[1] + (1 - PBAR) * m10
        m12 = PBAR * b[2] + (1 - PBAR) * m11
        m = math.exp(log_closed_form(CH10, ExponentialRefinementBoundary(rate), 1, 2))
        assert m == pytest.approx(m12, rel=1e-13)

    def test_part_one_is_single_sample_closed_form(self):
        # a boundary row of zeros adds nothing: the unit column's part alone
        zeros = SequenceBoundary((0.0,) * 8)
        assert log_closed_form(CH10, zeros, 4, 7) == log_closed_form_single(CH10, 4, 7)

    def test_matches_grid_everywhere(self):
        rate = math.log(2.0)
        grid = solve_grid(CH10, ExponentialRefinementBoundary(rate), 40, 60)
        log_i, log_ii = log_closed_form_streaming_grid(CH10, rate, 40, 60)
        total = np.exp(np.logaddexp(log_i, log_ii))
        rel = np.abs(total[1:] - grid.values[1:, 1:]) / grid.values[1:, 1:]
        assert rel.max() <= 1e-9

    def test_grid_variant_matches_scalar(self):
        log_i, log_ii = log_closed_form_streaming_grid(CH10, 0.4, 5, 8)
        scalar = log_closed_form(CH10, ExponentialRefinementBoundary(0.4), 4, 6)
        assert np.logaddexp(log_i, log_ii)[4, 6] == pytest.approx(scalar, rel=1e-12)


def _pin_cells():
    """Fixed cells of a 300 x 300 lattice: its corners and 60 drawn with seed 31."""
    rng = np.random.default_rng(31)
    cells = [(1, 0), (1, 300), (300, 0), (300, 300)]
    return cells + list(zip(rng.integers(1, 301, 60).tolist(), rng.integers(0, 301, 60).tolist()))


def _hex_digest(values):
    return hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()


class TestClosedFormPins:
    """Per-cell closed forms, bit for bit.  The digests were recorded before the
    refinement form became a case of ``log_closed_form``: the single-sample form
    as it was, and the refinement one as ``np.logaddexp`` of its former (MSE_I,
    MSE_II) pair, at R = 0.5."""

    SINGLE = {
        0.3: "9ea335e94ddcc270eda9f7687d7b2e6c9aaeab37f7a2163214745528fa346c2d",
        10.0: "bc116b1ce44cf87658013a98b98f8dcd7f27b85da5860199873f8f3d428c13a8",
        1e6: "a100b2a1d2f83f41b63e97563eee6aa0c563dcca316da87cd6bd22454e672996",
    }
    REFINEMENT = {
        0.3: "e1980b8797534a1bb6639d291b3cdf3f1e2f920f2c820b0728dc224bd0ce95ff",
        10.0: "25364039534a92ff1e4a271b3de4905710e31854f6406dbd09c8ba0bda327098",
        1e6: "bf5ac43b21cc6229ef74148910110ca873179576ca5e858fa6386faa6ded00b1",
    }

    @pytest.mark.parametrize("snr", [0.3, 10.0, 1e6])
    def test_single_sample(self, snr):
        ch = make_channel_params(snr)
        values = [log_closed_form_single(ch, r, t) for r, t in _pin_cells()]
        assert _hex_digest(values) == self.SINGLE[snr]

    @pytest.mark.parametrize("snr", [0.3, 10.0, 1e6])
    def test_refinement(self, snr):
        ch, boundary = make_channel_params(snr), ExponentialRefinementBoundary(0.5)
        values = [log_closed_form(ch, boundary, r, t) for r, t in _pin_cells()]
        assert _hex_digest(values) == self.REFINEMENT[snr]


def inline_comparison(grid):
    """``cli.cmd_mse``'s comparison as it was written inline there, the oracle of
    ``mse.closed_form_discrepancy``."""
    channel, boundary, r_max, t_max = grid.channel, grid.boundary, grid.r_max, grid.t_max
    if isinstance(boundary, ExponentialRefinementBoundary):
        log_cf = np.logaddexp(*mse.log_closed_form_streaming_grid(
            channel, boundary.rate_nats, r_max, t_max))
    elif isinstance(boundary, SingleSampleBoundary):
        log_cf = mse.log_closed_form_single_grid(channel, r_max, t_max)
    else:
        return None
    dp = grid.values[1:, 1:]
    log_cf = log_cf[1:]
    cf = np.array([math.exp(x) for x in log_cf.ravel().tolist()]).reshape(dp.shape)
    linear = dp >= mse.UNDERFLOW_LINEAR
    rel = np.zeros_like(dp)
    np.divide(np.abs(cf - dp), dp, out=rel, where=linear)
    for i in np.flatnonzero(~linear):
        d = dp.flat[i]
        if d > 0:
            rel.flat[i] = abs(log_cf.flat[i] - math.log(d))
    return cf, rel


class TestClosedFormDiscrepancy:
    """``closed_form_discrepancy`` equals the inline comparison bit for bit."""

    @staticmethod
    def _assert_same(grid):
        got, want = mse.closed_form_discrepancy(grid), inline_comparison(grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        return got

    def test_single_sample_with_log_domain_cells_and_zeros(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 30, 400)
        dp = grid.values[1:, 1:]
        assert np.count_nonzero(dp == 0) == 2046
        assert np.count_nonzero((dp > 0) & (dp < mse.UNDERFLOW_LINEAR)) == 692
        _, rel = self._assert_same(grid)
        # subnormal cells carry a few bits: the 0.532 of ROADMAP item 14
        assert np.isfinite(rel).all() and round(rel.max(), 3) == 0.532

    def test_refined_source(self):
        self._assert_same(solve_grid(CH10, ExponentialRefinementBoundary(0.5), 200, 200))

    def test_nan_in_the_closed_form(self, monkeypatch):
        real = mse.log_closed_form_single_grid

        def with_nan(channel, r_max, t_max):
            out = real(channel, r_max, t_max)
            out[2, 3] = np.nan
            return out

        monkeypatch.setattr(mse, "log_closed_form_single_grid", with_nan)
        cf, rel = self._assert_same(solve_grid(CH10, SingleSampleBoundary(), 4, 6))
        assert math.isnan(cf[1, 3]) and math.isnan(rel[1, 3])
        assert np.count_nonzero(np.isnan(rel)) == 1

    @pytest.mark.parametrize("boundary", [PacketStreamBoundary(2, 3),
                                          SequenceBoundary((0.5,) * 7)])
    def test_no_closed_form(self, boundary):
        assert mse.closed_form_discrepancy(solve_grid(CH10, boundary, 4, 6)) is None


def _mp_single(pbar, r, t):
    """50-digit M_r(t) = (1-pbar)^(t+1) sum_{j<r} C(t+j, j) pbar^j from exact binomials."""
    p = mpmath.mpf(pbar)
    return (1 - p) ** (t + 1) * mpmath.fsum(math.comb(t + j, j) * p**j for j in range(r))


def _mp_boundary_part(pbar, m0, r, t):
    """50-digit MSE_II = pbar^r sum_{s<=t} M_0(t-s) C(r+s-1, s) (1-pbar)^s, with
    ``m0(x)`` the boundary cell M_0(x) as an mpmath number."""
    p = mpmath.mpf(pbar)
    return p**r * mpmath.fsum(
        m0(t - s) * math.comb(r + s - 1, s) * (1 - p) ** s for s in range(t + 1)
    )


def _mp_rel(log_value, exact):
    """|M / exact - 1| for M = exp(log_value), in mpmath."""
    return abs(mpmath.expm1(mpmath.mpf(float(log_value)) - mpmath.log(exact)))


class TestMpmathReference:
    """The log-factorial table and the closed forms against 50-digit mpmath.

    The table is a compensated running sum of ``math.log(k)``; a bare
    ``math.lgamma`` table is off by up to 3.2 ulp and SciPy's ``gammaln`` by
    2.1 ulp over the same range.
    """

    @pytest.fixture(autouse=True)
    def _dps(self):
        with mpmath.workdps(50):
            yield

    def test_table_within_one_ulp(self):
        lf = _log_factorials(4000)
        assert lf.shape == (4001,) and lf[0] == lf[1] == 0.0
        worst = max(
            abs(mpmath.mpf(float(lf[k])) - mpmath.loggamma(k + 1)) / math.ulp(float(lf[k]))
            for k in range(2, 4001)
        )
        assert worst <= 1.0, worst

    def test_log_binomials(self):
        lf = _log_factorials(800)
        ref = [mpmath.loggamma(k + 1) for k in range(801)]
        t = np.arange(401)[:, None]
        j = np.arange(401)[None, :]
        got = lf[t + j] - lf[j] - lf[t]  # the expression the closed forms use
        want = np.array([[float(ref[a + b] - ref[a] - ref[b]) for b in range(401)]
                         for a in range(401)])
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("snr", [10.0, 0.7])
    def test_closed_forms_on_sampled_cells(self, snr):
        ch = make_channel_params(snr)
        rate = 0.5
        log_single = log_closed_form_single_grid(ch, 200, 200)
        log_i, log_ii = log_closed_form_streaming_grid(ch, rate, 200, 200)
        log_total = np.logaddexp(log_i, log_ii)
        rng = np.random.default_rng(3)
        cells = [(1, 0), (1, 200), (200, 0), (200, 200)]
        cells += [(int(r), int(t)) for r, t in zip(rng.integers(1, 201, 24),
                                                   rng.integers(0, 201, 24))]

        boundary = ExponentialRefinementBoundary(rate)
        m0 = lambda x: mpmath.exp(-2 * mpmath.mpf(rate) * (x + 1))
        for r, t in cells:
            m_i = _mp_single(ch.snr_bar, r, t)
            m_ii = _mp_boundary_part(ch.snr_bar, m0, r, t)
            errs = [
                _mp_rel(log_single[r, t], m_i),
                _mp_rel(log_ii[r, t], m_ii),
                _mp_rel(log_total[r, t], m_i + m_ii),
                _mp_rel(log_closed_form_single(ch, r, t), m_i),
                _mp_rel(log_closed_form(ch, boundary, r, t), m_i + m_ii),
            ]
            assert max(errs) <= 1e-12, (r, t, errs)


U = 2.0**-53
ZERO_TAIL = tuple(0.5**k for k in range(1, 301)) + (0.0,) * 1701


def _path_sum_bound(ch, boundary, r, t, log_m):
    """First-order bound on |exp(log_closed_form) / M - 1| at a cell (r, t) where
    ``solve_grid`` holds a normal M with ln M = ``log_m``.

    An error in ln M is a relative error in M.  u = 2^-53; L = ln (r+t-1)!, the
    largest table entry a term reads; B = L + max |ln M_0| + t |ln qbar| +
    r |ln pbar| bounds every partial sum of a log term.  ulp(x) <= 2u x, and
    k ulp(x) <= 2 ulp(k x).

    - A log term reads three ln k! entries, each within one ulp of ln k!
      (``test_table_within_one_ulp``): 3 ulp(L).
    - Its four additions and one product round by 1/2 ulp(B) each; ln pbar or
      ln qbar (within one ulp) carried by j or s adds 2 ulp(B), and
      ``log_profile`` (within 4 ulp) 4 ulp(B).  A log-sum-exp passes its terms'
      errors through no larger.
    - (t+1) ln qbar and r ln pbar take 2.5 ulp(B) each, as a term's product;
      the two additions, the final logaddexp and ln M above take 1/2 ulp(B)
      each: 7 ulp(B).
    - Each of the r and t + 1 logaddexp steps of the two reductions rounds the
      log of its running sum S by at most u |ln S| + 2u.  Weighted by S's share
      of M, that is at most u (|a| + 3), with a = ln M - (t+1) ln qbar for the
      unit column's part and a = ln M - r ln pbar for the boundary's.
    - ``solve_grid``: each of the r + t steps of a path to (r, t) rounds one
      product and one sum, a boundary cell is within 2 ulp, and qbar = 1 - pbar
      rounds once if pbar < 1/2, which up to t + 1 steps of a path carry:
      at most 3 (r + t + 2) u.
    """
    big_l = float(_log_factorials(r + t - 1)[-1])
    log_m0 = np.abs(boundary.log_profile(t))
    big_b = (big_l + log_m0[np.isfinite(log_m0)].max(initial=0.0)
             + t * abs(ch.log_qbar) + r * abs(ch.log_pbar))
    reductions = U * (r * (abs(log_m) + (t + 1) * abs(ch.log_qbar) + 3)
                      + (t + 1) * (abs(log_m) + r * abs(ch.log_pbar) + 3))
    return 3 * math.ulp(big_l) + 16 * math.ulp(big_b) + reductions + 3 * (r + t + 2) * U


class TestPathSum:
    """``log_closed_form`` on every boundary kind: against ``solve_grid`` at
    normal cells, and against a 50-digit path sum at cells of any depth."""

    BOUNDARIES = [SingleSampleBoundary(), ExponentialRefinementBoundary(0.5),
                  PacketStreamBoundary(2, 2), PacketStreamBoundary(3, 5),
                  SequenceBoundary(ZERO_TAIL)]

    @pytest.mark.parametrize("shape", [(300, 500), (2000, 2000)])
    @pytest.mark.parametrize("snr", [0.3, 10.0, 1e6])
    def test_matches_lattice_at_normal_cells(self, snr, shape):
        ch = make_channel_params(snr)
        rng = np.random.default_rng(17)
        for boundary in self.BOUNDARIES:
            values = solve_grid(ch, boundary, *shape).values
            checked = 0
            while checked < 30:
                r, t = int(rng.integers(1, shape[0] + 1)), int(rng.integers(0, shape[1] + 1))
                if values[r, t + 1] < sys.float_info.min:
                    continue
                checked += 1
                log_m = math.log(values[r, t + 1])
                err = abs(math.expm1(log_closed_form(ch, boundary, r, t) - log_m))
                assert err <= _path_sum_bound(ch, boundary, r, t, log_m), (boundary, r, t, err)
            del values  # free this lattice (32 MB at 2000 x 2000) before the next is solved

    @pytest.mark.parametrize("boundary, m0", [
        (PacketStreamBoundary(2, 2), lambda x: mpmath.mpf(2) ** (-4 * (x // 2 + 1))),
        (PacketStreamBoundary(3, 5), lambda x: mpmath.mpf(2) ** (-6 * (x // 5 + 1))),
        (SequenceBoundary(ZERO_TAIL), lambda x: mpmath.mpf(ZERO_TAIL[x])),
    ], ids=["staircase_2_2", "staircase_3_5", "zero_tail"])
    def test_against_mpmath_at_any_depth(self, boundary, m0):
        ch = make_channel_params(10.0)
        rng = np.random.default_rng(5)
        cells = [(1, 0), (1, 1000), (300, 0), (300, 1000), (40, 500)]
        cells += zip(rng.integers(1, 301, 20).tolist(), rng.integers(0, 1001, 20).tolist())
        logs = []
        with mpmath.workdps(50):
            for r, t in cells:
                exact = _mp_single(ch.snr_bar, r, t) + _mp_boundary_part(ch.snr_bar, m0, r, t)
                logs.append(log_closed_form(ch, boundary, r, t))
                assert _mp_rel(logs[-1], exact) <= 1e-12, (r, t)
        assert min(logs) < math.log(sys.float_info.min)  # cells the lattice cannot hold


class TestBoundaries:
    def test_staircase_profile(self):
        b = PacketStreamBoundary(packet_bits=2, period=2)
        profile = b.profile(7)
        expected = [2.0 ** (-4 * (t // 2 + 1)) for t in range(8)]
        assert np.allclose(profile, expected, rtol=0, atol=0)

    def test_staircase_at_or_below_refinement_profile(self):
        # rate matched to the staircase: R = psi ln2 / T; equality at period ends
        psi, period = 2, 2
        rate = psi * math.log(2.0) / period
        stair = PacketStreamBoundary(psi, period).profile(11)
        smooth = ExponentialRefinementBoundary(rate).profile(11)
        assert (stair <= smooth + 1e-15).all()
        ends = np.arange(period - 1, 12, period)
        assert np.allclose(stair[ends], smooth[ends], rtol=1e-12)

    def test_staircase_grid_dominates_refinement_grid(self):
        psi, period = 2, 2
        rate = psi * math.log(2.0) / period
        g_stair = solve_grid(CH10, PacketStreamBoundary(psi, period), 12, 24)
        g_smooth = solve_grid(CH10, ExponentialRefinementBoundary(rate), 12, 24)
        assert (g_stair.values <= g_smooth.values + 1e-15).all()

    def test_single_sample_boundary_is_zero(self):
        assert (SingleSampleBoundary().profile(5) == 0).all()

    def test_sequence_boundary_validation_and_truncation(self):
        b = SequenceBoundary((0.8, 0.4, 0.4, 0.1))
        assert np.array_equal(b.profile(2), [0.8, 0.4, 0.4])
        with pytest.raises(ValueError):
            b.profile(5)  # shorter than requested horizon
        with pytest.raises(ValueError):
            SequenceBoundary((0.3, 0.5))  # increasing
        with pytest.raises(ValueError):
            SequenceBoundary((1.2, 0.5))  # outside [0, 1]
        grid = solve_grid(CH10, b, 3, 2)
        assert (grid.values >= 0).all() and (grid.values <= 1).all()

    @pytest.mark.parametrize("values", [(math.nan, 0.5, 0.1), (0.5, math.nan, 0.1)])
    def test_sequence_boundary_rejects_nan(self, values):
        # NaN fails every comparison, so it must be refused as out of range
        with pytest.raises(ValueError, match=r"boundary values must lie in \[0, 1\]"):
            SequenceBoundary(values)

    def test_refinement_profile(self):
        b = ExponentialRefinementBoundary(0.25)
        assert b.profile(3)[2] == pytest.approx(math.exp(-2 * 0.25 * 3), rel=1e-15)

    def test_log_profiles(self):
        t = np.arange(9)
        assert (SingleSampleBoundary().log_profile(8) == -np.inf).all()
        refined = ExponentialRefinementBoundary(0.25)
        assert refined.log_profile(8).tobytes() == (-2.0 * 0.25 * (t + 1)).tobytes()
        # the row is the expression it was before it went through log_profile
        assert refined.profile(8).tobytes() == np.exp(-2.0 * 0.25 * (t + 1)).tobytes()
        stair = PacketStreamBoundary(2, 3)
        assert np.allclose(stair.log_profile(8), np.log(stair.profile(8)), rtol=1e-15, atol=0)
        with np.errstate(all="raise"):
            logs = SequenceBoundary((0.5, 0.25, 0.0, 0.0)).log_profile(3)
        assert logs[:2].tobytes() == np.log([0.5, 0.25]).tobytes()
        assert (logs[2:] == -np.inf).all()

    def test_log_profiles_do_not_underflow(self):
        # 2^-2400 and e^-2000 are 0.0 in float64; their logs are not
        stair = PacketStreamBoundary(600, 1)
        assert stair.profile(1)[1] == 0.0
        assert stair.log_profile(1)[1] == pytest.approx(-2400 * math.log(2.0), rel=1e-15)
        refined = ExponentialRefinementBoundary(500.0)
        assert refined.profile(1)[1] == 0.0 and refined.log_profile(1)[1] == -2000.0


class TestGridCsv:
    def test_schema_and_order(self, tmp_path):
        grid = solve_grid(CH10, SingleSampleBoundary(), 2, 1)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,t,mse"
        assert lines[1].startswith("0,-1,1")
        # r-major then t: 3 rows per relay (t = -1, 0, 1)
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3

    @pytest.mark.parametrize("r_max,t_max", [(1, 0), (3, 7), (200, 200)])
    def test_matches_per_cell_reference(self, r_max, t_max, tmp_path):
        # 200x200 spans two formatting blocks, split inside a row
        grid = solve_grid(CH10, PacketStreamBoundary(2, 3), r_max, t_max)
        want = ["r,t,mse"] + [
            f"{r},{t},{grid.values[r, t + 1]:.17g}"
            for r in range(r_max + 1)
            for t in range(-1, t_max + 1)
        ]
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        got = path.read_text().split("\n")
        assert got.pop() == ""  # the last row ends in a newline
        # name the first differing line; a diff of 40k lines would take minutes
        bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert (bad, len(got)) == (None, len(want)), bad is not None and (got[bad], want[bad])

    def test_rerun_byte_identical(self, tmp_path):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 3, 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(grid, p1)
        write_grid_csv(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()


def lattice_csv_reference(header, columns):
    """Per-cell ``%d`` and ``f"{x:.17g}"`` formatting, the contract of ``write_lattice_csv``."""
    n_r, n_t = columns[0].shape
    rows = [header] + [
        ",".join([str(i), str(j)] + [f"{c[i, j]:.17g}" for c in columns])
        for i in range(n_r)
        for j in range(n_t)
    ]
    return "\n".join(rows) + "\n"


def first_difference(got, want):
    """(line, got line, wanted line) of the first difference; a full diff of 200k lines is slow."""
    got, want = got.split("\n"), want.split("\n")
    bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    if bad is None:
        return None if len(got) == len(want) else (min(len(got), len(want)), len(got), len(want))
    return bad, got[bad], want[bad]


def is_exact_tie(x):
    """True when x's exact decimal expansion has 18 significant digits ending in 5."""
    digits = Decimal(x).as_tuple().digits
    while digits[-1] == 0:
        digits = digits[:-1]
    return len(digits) == 18 and digits[-1] == 5


def hard_doubles():
    """Every power of two and power of ten in range with both one-ulp neighbours, and the edges."""
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ten = np.array([10.0**k for k in range(-323, 309)])
    edges = np.array([0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max, np.inf, np.nan])
    out = np.concatenate([two, np.nextafter(two, 0), np.nextafter(two, np.inf),
                          ten, np.nextafter(ten, 0), np.nextafter(ten, np.inf), edges])
    return np.concatenate([out, -out])


class TestLatticeCsvExactness:
    """``write_lattice_csv`` writes the bytes of per-value ``%.17g`` formatting."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_per_value_reference(self, tmp_path):
        rng = np.random.default_rng(20240917)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        # one in eight with a zero exponent field: subnormals of both signs
        bits[::8] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        values = np.concatenate([bits.view(np.float64), hard_doubles()])
        values = values[: values.size // 600 * 600]
        # three transposed (non-contiguous) 200-row columns
        columns = list(values.reshape(3, -1, 200).transpose(0, 2, 1))
        assert not columns[0].flags.c_contiguous
        path = tmp_path / "lattice.csv"
        write_lattice_csv(path, "r,t,a,b,c", columns)
        got = path.read_text()
        assert first_difference(got, lattice_csv_reference("r,t,a,b,c", columns)) is None

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_floats(self, tmp_path_factory, xs):
        column = np.array(xs).reshape(-1, 1)
        path = tmp_path_factory.mktemp("g17") / "lattice.csv"
        write_lattice_csv(path, "r,t,x", [column])
        assert path.read_text() == lattice_csv_reference("r,t,x", [column])


class TestLatticeCsvFallback:
    """The per-value ``%.17g`` fallback stays off the lattice files and on the hard cases."""

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        calls = []
        fallback = _table._fallback_17g

        def counting(x):
            calls.append(x)
            return fallback(x)

        monkeypatch.setattr(_table, "_fallback_17g", counting)
        return calls

    @pytest.mark.parametrize("scheme,kw,r_max,t_max", [
        ("refined_source", {"rate_nats": 0.5}, 200, 200),
        ("single_sample", {}, 30, 400),
    ])
    def test_never_fires_on_cmd_mse(self, fallback_calls, tmp_path, scheme, kw, r_max, t_max):
        cfg = ExperimentConfig(scheme=scheme, snr=10.0, r_max=r_max, t_max=t_max, **kw)
        cli.cmd_mse(cfg, str(tmp_path))
        if scheme == "single_sample":
            # the grid reaches exact zeros and subnormals, both on the fast path
            grid = solve_grid(CH10, SingleSampleBoundary(), r_max, t_max).values
            assert (grid == 0).sum() == 2447
            assert ((grid > 0) & (grid < np.finfo(float).tiny)).sum() == 467
        assert fallback_calls == []

    def test_fires_on_every_tie_and_non_finite_value(self, fallback_calls, tmp_path):
        ties = [2.0**-25, 1 + 2.0**-17, 2.0**51 - 0.25, 2.0**50 + 0.25]
        assert all(map(is_exact_tie, ties))
        values = np.array(ties + [-x for x in ties] + [np.inf, -np.inf, np.nan])
        path = tmp_path / "ties.csv"
        write_lattice_csv(path, "r,t,x", [values.reshape(1, -1)])
        assert path.read_text() == lattice_csv_reference("r,t,x", [values.reshape(1, -1)])
        assert len(fallback_calls) == values.size
        assert "2.9802322387695312e-08" in path.read_text()  # half to even


class TestWriteTable:
    """Integer and text columns, and the checks on column shapes."""

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_ints_match_percent_d(self, tmp_path_factory, ns):
        path = tmp_path_factory.mktemp("ints") / "t.csv"
        _table.write_table(path, "n", [np.array(ns, dtype=np.int64)])
        assert path.read_text() == "n\n" + "".join("%d\n" % n for n in ns)

    def test_mixed_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        _table.write_table(path, "a,b,c,d", [
            np.array([0, 7, 10_000], dtype=np.uint64),
            ["", "<0.5", "E1"],
            np.array([b"inst", b"", b"delayed"]),
            np.array([-0.0, 0.1, 1e22]),
        ])
        assert path.read_text() == "a,b,c,d\n0,,inst,-0\n7,<0.5,,0.10000000000000001\n10000,E1,delayed,1e+22\n"

    def test_rejects_mismatched_shapes_and_dtypes(self, tmp_path):
        with pytest.raises(ValueError):
            _table.write_table(tmp_path / "t.csv", "a,b", [np.zeros(3), np.zeros(4)])
        with pytest.raises(TypeError):
            _table.write_table(tmp_path / "t.csv", "a", [np.zeros(3, dtype=complex)])

    @pytest.mark.parametrize("columns", [
        [np.zeros(3, dtype=complex)],
        [np.zeros(3), np.zeros(3, dtype=bool)],
        [np.zeros(3), np.zeros(4)],
        [np.zeros((2, 2, 2))],
    ], ids=["complex", "bool", "shapes", "3-D"])
    def test_rejected_call_leaves_existing_file_untouched(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old,table\n1,2\n")
        with pytest.raises((TypeError, ValueError)):
            _table.write_table(path, "a,b", columns)
        assert path.read_bytes() == b"old,table\n1,2\n"

    def test_open_table_appends_rows(self, tmp_path):
        values = np.concatenate([hard_doubles(), np.linspace(-3, 3, 9_000)])
        whole, pieces = tmp_path / "whole.csv", tmp_path / "pieces.csv"
        _table.write_table(whole, "i,x", [np.arange(values.size), values])
        with _table.open_table(pieces, "i,x") as append:
            for lo, text in _table.g17_fields(values):
                append([np.arange(lo, lo + text.size), text])
        assert pieces.read_bytes() == whole.read_bytes()

    def test_g17_text_keeps_shape(self):
        text = _table.g17_text(np.array([[0.1, -np.inf], [1e22, 123.0]]))
        assert text.tolist() == [[b"0.10000000000000001", b"-inf"], [b"1e+22", b"123"]]
        assert _table.g17_text(2.0**-25) == b"2.9802322387695312e-08"
        assert _table.g17_text(np.empty((0, 3))).shape == (0, 3)

    def test_g17_text_is_percent_formatting(self):
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf, np.nan,
                  1e22, 2.0**-25, 0.1, -123.456, 1e16, 9.999999999999999e16]
        text = _table.g17_text(np.array(values).reshape(1, -1, 1))
        assert text.dtype.kind == "S" and text.shape == (1, len(values), 1)
        assert text.ravel().tolist() == [("%.17g" % x).encode() for x in values]


class TestLatticeCsvMemory:
    """Formatting is block-wise: the traced peak stays far below the lattice's text size."""

    LIMIT = 4 * 2**20

    @staticmethod
    def traced_peak(path, header, columns):
        write_lattice_csv(path, header, [c[:1, :1] for c in columns])  # build the tables
        tracemalloc.start()
        try:
            write_lattice_csv(path, header, columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_three_column_mse_csv(self, tmp_path):
        dp = solve_grid(CH10, ExponentialRefinementBoundary(0.5), 200, 200).values[1:, 1:]
        log_i, log_ii = log_closed_form_streaming_grid(CH10, 0.5, 200, 200)
        cf = np.exp(np.logaddexp(log_i, log_ii)[1:])
        rel = np.abs(cf - dp) / dp
        peak = self.traced_peak(tmp_path / "mse.csv", "r,t,mse_dp,mse_closed,rel_discrepancy",
                                [dp, cf, rel])
        assert peak <= self.LIMIT, peak

    def test_grid_csv(self, tmp_path):
        grid = solve_grid(CH10, SingleSampleBoundary(), 300, 300)
        peak = self.traced_peak(tmp_path / "mse_grid.csv", "r,t,mse", [grid.values])
        assert peak <= self.LIMIT, peak
