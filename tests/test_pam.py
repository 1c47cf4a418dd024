import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_iv import pam

SQRT3 = math.sqrt(3.0)


def all_bit_strings(n):
    return [np.array(b, dtype=np.int8) for b in itertools.product((0, 1), repeat=n)]


class TestEncode:
    def test_two_zero_bits(self):
        assert pam.encode([0, 0]) == pytest.approx(3 * SQRT3 / 4, rel=1e-15)

    def test_sign_symmetry(self):
        assert pam.encode([1, 1]) == pytest.approx(-3 * SQRT3 / 4, rel=1e-15)
        for bits in all_bit_strings(5):
            assert pam.encode(1 - bits) == pytest.approx(-pam.encode(bits), abs=1e-15)

    def test_alternating_four_bits(self):
        # sqrt3 (1/2 - 1/4 + 1/8 - 1/16) = sqrt3 * 5/16
        assert pam.encode([0, 1, 0, 1]) == pytest.approx(SQRT3 * 5 / 16, rel=1e-15)
        assert pam.encode([0, 1, 0, 1]) == pytest.approx(0.54127, abs=5e-6)

    def test_depth_prefix(self):
        bits = [0, 1, 1, 0]
        assert pam.encode(bits, 2) == pam.encode([0, 1])

    def test_depth_beyond_available_rejected(self):
        with pytest.raises(ValueError):
            pam.encode([0, 1], 3)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            pam.encode([0, 2])

    def test_variance_formula(self):
        # Var(S^psi) over uniform bits = 1 - 4^-psi  (geometric series oracle)
        for psi in (1, 2, 3, 6, 10):
            pts = np.array([pam.encode(b) for b in all_bit_strings(psi)])
            var = np.mean(pts**2)  # zero mean by symmetry
            geometric = 3.0 * sum(4.0 ** (-(i + 1)) for i in range(psi))
            assert var == pytest.approx(geometric, rel=1e-12)
            assert var == pytest.approx(1.0 - 4.0 ** (-psi), rel=1e-12)


class TestDecode:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_round_trip_exhaustive(self, n):
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
        w = SQRT3 * np.exp2(-(np.arange(n) + 1.0))
        points = ((1 - 2 * bits) * w).sum(axis=1)
        decoded = pam.decode_bits(points, n)
        assert np.array_equal(decoded, bits.T)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_within_half_min_distance(self, n):
        rng = np.random.default_rng(5)
        for bits in all_bit_strings(n)[:: max(1, 2**n // 32)]:
            point = pam.encode(bits)
            for _ in range(4):
                shift = rng.uniform(-0.49, 0.49) * pam.min_distance(n)
                assert np.array_equal(pam.decode_bits(point + shift, n), bits)

    def test_worst_direction_beyond_half_min_distance_errs(self):
        n = 6
        d = pam.min_distance(n)
        for bits in all_bit_strings(n):
            point = pam.encode(bits)
            # push past the midpoint toward the adjacent constellation point
            direction = 1.0 if point < 0 else -1.0
            decoded = pam.decode_bits(point + direction * 0.51 * d, n)
            assert not np.array_equal(decoded, bits)

    def test_midpoint_tie_takes_smaller_value(self):
        # 0.0 is the midpoint between -sqrt3/2 and +sqrt3/2
        assert pam.decode_bits(0.0, 1)[0] == 1
        # ties deeper in the tree behave the same
        point = pam.encode([0, 1])  # sqrt3/4; midpoint of its children is itself
        decoded = pam.decode_bits(point, 3)
        assert pam.encode(decoded) <= point

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_equivalent_to_nearest_neighbor_search(self, n):
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
        w = SQRT3 * np.exp2(-(np.arange(n) + 1.0))
        points = ((1 - 2 * bits) * w).sum(axis=1)
        order = np.argsort(points)
        rng = np.random.default_rng(11)
        for est in rng.uniform(-2.1, 2.1, size=200):
            dist = np.abs(points - est)
            best = dist.min()
            # slicer tie rule: smaller constellation value wins
            candidates = np.flatnonzero(dist <= best)
            want = bits[candidates[np.argmin(points[candidates])]]
            assert np.array_equal(pam.decode_bits(est, n), want)

    def test_prefix_separation(self):
        # distinct n-bit prefixes sit at least D_n apart (exhaustive, n <= 10)
        for n in (1, 4, 7, 10):
            pts = np.sort([pam.encode(b) for b in all_bit_strings(n)])
            assert np.diff(pts).min() >= pam.min_distance(n) - 1e-12

    def test_batch_shape(self):
        out = pam.decode_bits(np.zeros((4, 5)), 3)
        assert out.shape == (3, 4, 5)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_shape_and_values_for_any_input_rank(self, shape):
        # the bits are stored bit-major: the result is (n,) + the input shape
        est = np.random.default_rng(5).uniform(-2.0, 2.0, size=shape)
        out = pam.decode_bits(est, 6)
        assert out.shape == (6,) + shape and out.dtype == np.int8
        for idx in np.ndindex(shape):
            assert np.array_equal(out[(slice(None),) + idx], pam.decode_bits(float(est[idx]), 6))
        assert out.flags.c_contiguous

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pam.decode_bits(math.nan, 2)


def slicer_reference(estimate, n):
    """The slicer loop ``decode_bits`` replaced: int8 bits, contributions via float temporaries."""
    residual = np.asarray(estimate, dtype=float).copy()
    out = np.empty((n,) + residual.shape, dtype=np.int8)
    for i in range(n):
        b = (residual <= 0.0).astype(np.int8)
        out[i] = b
        residual -= SQRT3 * (1.0 - 2.0 * b) * 2.0 ** (-(i + 1))
    return out


def _points(bits):
    """Constellation points of bit rows, summed as the sources sum them."""
    w = SQRT3 * np.exp2(-(np.arange(bits.shape[1]) + 1.0))
    return ((1.0 - 2.0 * bits) * w).sum(axis=1)


@st.composite
def _slicer_inputs(draw):
    """Estimates rich in exact ties (points, midpoints, their neighbours and ±0.0)."""
    depth = draw(st.integers(1, 60))
    bits = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=depth, max_size=depth),
                                  min_size=1, max_size=8)), dtype=np.int8)
    points = _points(bits)
    midpoints = 0.5 * (points[:-1] + points[1:])
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    free = np.array(draw(st.lists(st.floats(-3.0, 3.0), max_size=8)))
    est = np.concatenate([points, midpoints, tiny, free])
    est = np.concatenate([est, np.nextafter(est, np.inf), np.nextafter(est, -np.inf)])
    # beyond bit 1022 the contributions are subnormal, beyond 1074 zero
    n = draw(st.one_of(st.integers(1, 70), st.integers(1015, 1080)))
    return est, n


class TestSlicerKernel:
    """``decode_bits`` makes the same decisions as the reference loop."""

    @given(_slicer_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        est, n = case
        got = pam.decode_bits(est, n)
        want = slicer_reference(est, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_signed_zeros_and_deep_ties(self):
        bits = np.array(list(itertools.product((0, 1), repeat=10)), dtype=np.int8)
        points = np.sort(_points(bits))
        est = np.concatenate([points, 0.5 * (points[:-1] + points[1:]), [0.0, -0.0]])
        for n in (1, 10, 11, 1100):
            assert np.array_equal(pam.decode_bits(est, n), slicer_reference(est, n))
        assert np.array_equal(pam.decode_bits(np.float64(-0.0), 3), slicer_reference(-0.0, 3))


class TestDitheredDecode:
    def test_zero_dither_equals_slicer(self):
        rng = np.random.default_rng(0)
        est = rng.uniform(-1.5, 1.5, size=64)
        plain = pam.decode_bits(est, 4)
        dith = pam.dithered_decode(est, alpha=0.7, n=4, dither=np.zeros(64))
        assert np.array_equal(plain, dith)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            pam.dithered_decode(0.3, alpha=1.0, n=2, dither=0.0)
        with pytest.raises(ValueError):
            pam.dithered_decode(0.3, alpha=0.0, n=2, dither=0.0)

    def test_deep_packet_statistics_match_uniform_source(self):
        # S^psi + U^psi is uniform on [-sqrt3, sqrt3): for psi large the
        # dithered estimate reproduces the infinite-constellation law
        rng = np.random.default_rng(7)
        psi = 30
        bits = rng.integers(0, 2, size=(20_000, psi))
        w = SQRT3 * np.exp2(-(np.arange(psi) + 1.0))
        s_fin = ((1 - 2 * bits) * w).sum(axis=1)
        half = 0.5 * pam.min_distance(psi)
        u = rng.uniform(-half, half, size=20_000)
        s = s_fin + u
        assert abs(s.mean()) < 0.02
        assert np.var(s) == pytest.approx(1.0, abs=0.02)
        # Kolmogorov-Smirnov style sup-distance against the uniform CDF
        xs = np.sort(s)
        cdf = (xs + SQRT3) / (2 * SQRT3)
        emp = np.arange(1, xs.size + 1) / xs.size
        assert np.abs(emp - cdf).max() < 0.015


class TestErrorStats:
    def test_perfect_decode_all_zero(self):
        stats = pam.ErrorStats()
        truth = np.array([[0] * 8, [1] * 8, [1] * 8, [0] * 8], dtype=np.int8)
        pam.tally_errors(stats, truth.copy(), truth, r=2, t=5, packet_bits=2, period=3)
        for (_, _), cell in stats.cells.items():
            assert cell.bit_errors == 0
            assert cell.prefix_errors == 0
            assert cell.packet_errors == 0
            assert cell.worst_bit_rate() == 0.0

    def test_single_flip_propagates_to_prefixes(self):
        stats = pam.ErrorStats()
        truth = np.zeros((6, 1), dtype=np.int8)
        decoded = truth.copy()
        decoded[2, 0] = 1  # bit 2 lives in packet 1 (psi = 2)
        pam.tally_errors(stats, decoded, truth, r=1, t=6, packet_bits=2, period=3)
        # packet 0 at delay 6: clean; packet 1 at delay 3: bit + packet + prefix
        assert stats.cells[(1, 6)].bit_errors == 0
        assert stats.cells[(1, 6)].prefix_errors == 0
        assert stats.cells[(1, 3)].bit_errors == 1
        assert stats.cells[(1, 3)].packet_errors == 1
        assert stats.cells[(1, 3)].prefix_errors == 1
        # packet 2 at delay 0: its own bits are clean but the prefix is not
        assert stats.cells[(1, 0)].bit_errors == 0
        assert stats.cells[(1, 0)].packet_errors == 0
        assert stats.cells[(1, 0)].prefix_errors == 1

    def test_streaming_schedule_delta_indexing(self):
        # psi=2, T=3, 3 packets: bit n is generated at floor(n/2)*3
        stats = pam.ErrorStats()
        truth = np.zeros((6, 4), dtype=np.int8)
        pam.tally_errors(stats, truth.copy(), truth, r=3, t=7, packet_bits=2, period=3)
        assert set(stats.cells.keys()) == {(3, 7), (3, 4), (3, 1)}
        assert all(c.n_trials == 4 for c in stats.cells.values())

    def test_future_packets_not_tallied(self):
        stats = pam.ErrorStats()
        truth = np.zeros((8, 2), dtype=np.int8)
        pam.tally_errors(stats, truth.copy(), truth, r=1, t=2, packet_bits=2, period=3)
        assert set(stats.cells.keys()) == {(1, 2)}

    def test_prefix_at_least_worst_bit(self):
        rng = np.random.default_rng(3)
        stats = pam.ErrorStats()
        truth = rng.integers(0, 2, size=(4, 500)).astype(np.int8)
        noisy = truth ^ (rng.random((4, 500)) < 0.2).astype(np.int8)
        pam.tally_errors(stats, noisy, truth, r=1, t=4, packet_bits=2, period=2)
        for cell in stats.cells.values():
            worst_count = max(err for err, _ in cell.per_bit.values())
            assert cell.prefix_errors >= worst_count
            assert cell.packet_errors >= worst_count

    def test_merge_and_rows(self):
        a, b = pam.ErrorStats(), pam.ErrorStats()
        truth = np.zeros((2, 3), dtype=np.int8)
        flipped = truth.copy()
        flipped[1] = 1
        pam.tally_errors(a, flipped, truth, r=1, t=0, packet_bits=2, period=2)
        pam.tally_errors(b, truth.copy(), truth, r=1, t=0, packet_bits=2, period=2)
        a.merge(b)
        rows = list(a.rows())
        assert rows == [(1, 0, 6, 3, 3, 3, 0.5)]

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError):
            pam.tally_errors(
                pam.ErrorStats(),
                np.zeros((4, 2), dtype=np.int8),
                np.zeros((6, 2), dtype=np.int8),
                r=0,
                t=0,
                packet_bits=2,
                period=1,
            )

    @pytest.mark.parametrize("period", [0, -1])
    def test_period_below_one_rejected(self, period):
        stats = pam.ErrorStats()
        truth = np.zeros((4, 2), dtype=np.int8)
        with pytest.raises(ValueError, match="period"):
            pam.tally_errors(stats, truth.copy(), truth, r=0, t=3, packet_bits=2, period=period)
        assert stats.cells == {}


def reference_tally(stats, decoded, truth, r, t, packet_bits, period):
    """Packet-by-packet tally, the scalar reference for ``pam.tally_errors``."""
    decoded = np.asarray(decoded)
    truth = np.asarray(truth)
    n_bits, n_trials = decoded.shape
    mism = decoded != truth
    prefix_any = np.zeros(n_trials, dtype=bool)
    for tau in range(n_bits // packet_bits):
        gen_time = tau * period
        if gen_time > t:
            break
        delta = t - gen_time
        sl = mism[tau * packet_bits : (tau + 1) * packet_bits]
        prefix_any |= sl.any(axis=0)
        cell = stats.cell(r, delta)
        cell.n_trials += n_trials
        per_bit_err = sl.sum(axis=1)
        cell.bit_errors += int(per_bit_err.sum())
        cell.packet_errors += int(sl.any(axis=0).sum())
        cell.prefix_errors += int(prefix_any.sum())
        for j in range(packet_bits):
            cur = cell.per_bit.setdefault((tau, j), [0, 0])
            cur[0] += int(per_bit_err[j])
            cur[1] += n_trials


class TestTallyAgainstReference:
    @pytest.mark.parametrize("psi", [1, 2, 3])
    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_every_field_matches_scalar_loop(self, psi, period):
        rng = np.random.default_rng(100 * psi + period)
        n_packets = 5
        for t in (0, 1, period, 2 * period + 1, 4 * period, 10 * period):
            for p_flip in (0.0, 0.05, 0.5):
                truth = rng.integers(0, 2, size=(n_packets * psi, 300)).astype(np.int8)
                decoded = truth ^ (rng.random(truth.shape) < p_flip).astype(np.int8)
                fast, slow = pam.ErrorStats(), pam.ErrorStats()
                # tally twice into the same stats to cover accumulation
                for _ in range(2):
                    pam.tally_errors(fast, decoded, truth, 4, t, psi, period)
                    reference_tally(slow, decoded, truth, 4, t, psi, period)
                assert fast.cells.keys() == slow.cells.keys()
                for key, want in slow.cells.items():
                    got = fast.cells[key]
                    assert (got.n_trials, got.bit_errors, got.prefix_errors, got.packet_errors) == (
                        want.n_trials, want.bit_errors, want.prefix_errors, want.packet_errors
                    )
                    assert got.per_bit == want.per_bit
                    assert all(type(v) is int for pair in got.per_bit.values() for v in pair)
                assert list(fast.rows()) == list(slow.rows())

    @settings(max_examples=60, deadline=None)
    @given(
        n_trials=st.integers(1, 40),
        psi=st.integers(1, 3),
        n_packets=st.integers(1, 4),
        period=st.integers(1, 3),
        t=st.integers(-1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_memory_order_does_not_matter(self, n_trials, psi, n_packets, period, t, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 2, size=(n_packets * psi, n_trials)).astype(np.int8)
        decoded = truth ^ (rng.random(truth.shape) < 0.3).astype(np.int8)
        reference = pam.ErrorStats()
        reference_tally(reference, decoded, truth, 1, t, psi, period)
        for d_order, t_order in itertools.product("CF", repeat=2):
            stats = pam.ErrorStats()
            pam.tally_errors(stats, np.asarray(decoded, order=d_order),
                             np.asarray(truth, order=t_order), 1, t, psi, period)
            assert list(stats.rows()) == list(reference.rows())

    def test_later_packets_not_generated_yet(self):
        truth = np.zeros((8, 50), dtype=np.int8)
        decoded = np.ones_like(truth)
        fast, slow = pam.ErrorStats(), pam.ErrorStats()
        pam.tally_errors(fast, decoded, truth, 2, 3, 2, 2)  # packets 0 and 1 of 4
        reference_tally(slow, decoded, truth, 2, 3, 2, 2)
        assert set(fast.cells) == set(slow.cells) == {(2, 3), (2, 1)}
        assert list(fast.rows()) == list(slow.rows())
        pam.tally_errors(fast, decoded, truth, 2, -1, 2, 2)  # nothing generated
        assert set(fast.cells) == {(2, 3), (2, 1)}
