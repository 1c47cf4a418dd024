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

from cascade_iv import cli, mse as mse_mod
from cascade_iv.config import ExperimentConfig
from cascade_iv.mse import (
    _log_factorials,
    ExponentialRefinementBoundary,
    GridSizeError,
    PacketStreamBoundary,
    SequenceBoundary,
    SingleSampleBoundary,
    closed_form_single,
    closed_form_streaming,
    log_closed_form_single,
    log_closed_form_single_grid,
    log_closed_form_streaming,
    log_closed_form_streaming_grid,
    mse_at_velocity,
    solve_grid,
    write_grid_csv,
    write_lattice_csv,
)
from cascade_iv.params import HopConvention, Velocity, make_channel_params

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
            solve_grid(CH10, SingleSampleBoundary(), 1000, 1000, cell_cap=1000)

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

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # the package needs numpy only: no scipy module at all may be loaded
        code = ("import sys, cascade_iv, cascade_iv.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestClosedFormSingle:
    def test_single_relay_geometric(self):
        for t in (0, 1, 5, 40):
            assert closed_form_single(CH10, 1, t) == pytest.approx(
                (1.0 / 11.0) ** (t + 1), rel=1e-12
            )

    def test_time_zero(self):
        assert closed_form_single(CH10, 3, 0) == pytest.approx(1.0 - PBAR**3, rel=1e-12)
        assert closed_form_single(CH10, 3, 0) == pytest.approx(0.24868, abs=1e-5)

    def test_matches_grid_deep_cell(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 5, 50)
        assert closed_form_single(CH10, 5, 50) == pytest.approx(grid.at(5, 50), rel=1e-9)

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
            closed_form_single(CH10, 0, 3)
        with pytest.raises(ValueError):
            closed_form_single(CH10, 3, -1)


class TestClosedFormStreaming:
    def test_time_zero_boundary_contribution(self):
        # at t=0 the only boundary cell is M_0(0) = e^{-2R}, reached through
        # r relay steps: MSE_II(r, 0) = pbar^r e^{-2R}
        rate = 0.5
        for r in (1, 2, 5):
            _, mse_ii = closed_form_streaming(CH10, rate, r, 0)
            assert mse_ii == pytest.approx(PBAR**r * math.exp(-2 * rate), rel=1e-13)

    def test_term_enumeration_oracle_r1_t2(self):
        # boundary cells (0,0),(0,1),(0,2) with values e^{-2R(x+1)} reach (1,2)
        # via one relay step and 2-x time steps:
        rate = 0.5
        oracle = PBAR * (
            math.exp(-2 * rate * 3) * 1.0
            + math.exp(-2 * rate * 2) * (1.0 / 11.0)
            + math.exp(-2 * rate * 1) * (1.0 / 11.0) ** 2
        )
        _, mse_ii = closed_form_streaming(CH10, rate, 1, 2)
        assert mse_ii == pytest.approx(oracle, rel=1e-13)

    def test_total_matches_hand_unrolled_dp(self):
        rate = 0.5
        b = [math.exp(-2 * rate * (t + 1)) for t in range(3)]
        m10 = PBAR * b[0] + (1 - PBAR) * 1.0
        m11 = PBAR * b[1] + (1 - PBAR) * m10
        m12 = PBAR * b[2] + (1 - PBAR) * m11
        mse_i, mse_ii = closed_form_streaming(CH10, rate, 1, 2)
        assert mse_i + mse_ii == pytest.approx(m12, rel=1e-13)

    def test_part_one_is_single_sample_closed_form(self):
        mse_i, _ = closed_form_streaming(CH10, 0.8, 4, 7)
        assert mse_i == closed_form_single(CH10, 4, 7)

    def test_matches_grid_everywhere(self):
        rate = math.log(2.0)
        grid = solve_grid(CH10, ExponentialRefinementBoundary(rate), 40, 60)
        log_i, log_ii = log_closed_form_streaming_grid(CH10, rate, 40, 60)
        total = np.exp(np.logaddexp(log_i, log_ii))
        rel = np.abs(total[1:] - grid.values[1:, 1:]) / grid.values[1:, 1:]
        assert rel.max() <= 1e-9

    def test_grid_variant_matches_scalar(self):
        log_i, log_ii = log_closed_form_streaming_grid(CH10, 0.4, 5, 8)
        si, sii = log_closed_form_streaming(CH10, 0.4, 4, 6)
        assert log_i[4, 6] == pytest.approx(si, rel=1e-12)
        assert log_ii[4, 6] == pytest.approx(sii, rel=1e-12)


def _mp_single(pbar, r, t):
    """50-digit M_r(t) = (1-pbar)^(t+1) sum_{j<r} C(t+j, j) pbar^j from exact binomials."""
    p = mpmath.mpf(pbar)
    return (1 - p) ** (t + 1) * mpmath.fsum(math.comb(t + j, j) * p**j for j in range(r))


def _mp_boundary_part(pbar, rate, r, t):
    """50-digit MSE_II = pbar^r sum_{s<=t} exp(-2R(t-s+1)) C(r+s-1, s) (1-pbar)^s."""
    p, two_r = mpmath.mpf(pbar), 2 * mpmath.mpf(rate)
    return p**r * mpmath.fsum(
        mpmath.exp(-two_r * (t - s + 1)) * math.comb(r + s - 1, s) * (1 - p) ** s
        for s in range(t + 1)
    )


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

        def rel(log_value, exact):
            return abs(mpmath.expm1(mpmath.mpf(float(log_value)) - mpmath.log(exact)))

        for r, t in cells:
            m_i = _mp_single(ch.snr_bar, r, t)
            m_ii = _mp_boundary_part(ch.snr_bar, rate, r, t)
            s_i, s_ii = log_closed_form_streaming(ch, rate, r, t)
            errs = [
                rel(log_single[r, t], m_i),
                rel(log_total[r, t], m_i + m_ii),
                rel(log_closed_form_single(ch, r, t), m_i),
                rel(s_i, m_i),
                rel(s_ii, m_ii),
            ]
            assert max(errs) <= 1e-12, (r, t, errs)


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

    def test_refinement_profile(self):
        b = ExponentialRefinementBoundary(0.25)
        assert b.profile(3)[2] == pytest.approx(math.exp(-2 * 0.25 * 3), rel=1e-15)


class TestMseAtVelocity:
    def test_infinite_velocity_hits_time_zero(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 5)
        got = mse_at_velocity(grid, Velocity(1e9), 1)
        assert got == 1.0 - PBAR

    def test_unit_velocity(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 4, 4)
        assert mse_at_velocity(grid, Velocity(1.0), 4) == grid.at(4, 4)

    def test_velocity_five(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 10, 4)
        assert mse_at_velocity(grid, Velocity(5.0), 10) == grid.at(10, 2)

    def test_delayed_equals_instantaneous_after_translation(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 6, 12)
        inst = mse_at_velocity(grid, Velocity(1.0), 6)
        delayed = mse_at_velocity(grid, Velocity(0.5, HopConvention.DELAYED), 6)
        assert delayed == inst

    def test_callable_backend(self):
        got = mse_at_velocity(lambda r, t: closed_form_single(CH10, r, t), Velocity(2.0), 9)
        assert got == closed_form_single(CH10, 9, 4)

    def test_beyond_grid_rejected(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 4, 3)
        with pytest.raises(IndexError):
            mse_at_velocity(grid, Velocity(0.5), 4)


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


def lattice_csv_reference(header, columns, r0=0, t0=0):
    """Per-cell ``%d`` and ``f"{x:.17g}"`` formatting, the contract of ``write_lattice_csv``."""
    n_r, n_t = columns[0].shape
    rows = [header] + [
        ",".join([str(r0 + i), str(t0 + j)] + [f"{c[i, j]:.17g}" for c in columns])
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
        write_lattice_csv(path, "r,t,a,b,c", columns, r0=1, t0=-1)
        got = path.read_text()
        assert first_difference(got, lattice_csv_reference("r,t,a,b,c", columns, 1, -1)) is None

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
        fallback = mse_mod._fallback_17g

        def counting(x):
            calls.append(x)
            return fallback(x)

        monkeypatch.setattr(mse_mod, "_fallback_17g", counting)
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


class TestLatticeCsvMemory:
    """Formatting is block-wise: the traced peak stays far below the lattice's text size."""

    LIMIT = 4 * 2**20

    @staticmethod
    def traced_peak(path, header, columns, **kw):
        write_lattice_csv(path, header, [c[:1, :1] for c in columns])  # build the tables
        tracemalloc.start()
        try:
            write_lattice_csv(path, header, columns, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_three_column_mse_csv(self, tmp_path):
        dp = solve_grid(CH10, ExponentialRefinementBoundary(0.5), 200, 200).values[1:, 1:]
        log_i, log_ii = log_closed_form_streaming_grid(CH10, 0.5, 200, 200)
        cf = np.exp(np.logaddexp(log_i, log_ii)[1:])
        rel = np.abs(cf - dp) / dp
        peak = self.traced_peak(tmp_path / "mse.csv", "r,t,mse_dp,mse_closed,rel_discrepancy",
                                [dp, cf, rel], r0=1)
        assert peak <= self.LIMIT, peak

    def test_grid_csv(self, tmp_path):
        grid = solve_grid(CH10, SingleSampleBoundary(), 300, 300)
        peak = self.traced_peak(tmp_path / "mse_grid.csv", "r,t,mse", [grid.values], t0=-1)
        assert peak <= self.LIMIT, peak
