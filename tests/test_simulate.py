import dataclasses
import concurrent.futures
import functools
import gc
import hashlib
import math
import multiprocessing
import re
import tracemalloc

import numpy as np
import pytest

from cascade_iv import exponents as xp
from cascade_iv import pam
from cascade_iv import simulate as sim
from cascade_iv.mse import (
    ExponentialRefinementBoundary,
    MseGrid,
    PacketStreamBoundary,
    SingleSampleBoundary,
    solve_grid,
)
from cascade_iv.params import make_channel_params, make_stream_params

CH10 = make_channel_params(10.0)
PBAR = 10.0 / 11.0


@pytest.fixture(scope="module")
def small_gains():
    grid = solve_grid(CH10, SingleSampleBoundary(), 5, 20)
    return sim.precompute_gains(grid)


class TestNoise:
    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "rademacher"])
    def test_unit_moments_at_one_million_samples(self, kind):
        gen = sim.trial_generator(123, 0)
        z = sim.draw_noise(gen, kind, 1_000_000)
        n = z.size
        # 5 sigma CLT budgets; the variance estimator subtracts the squared
        # sample mean, which dominates for Rademacher noise (z^2 is constant)
        assert abs(z.mean()) <= 5.0 / math.sqrt(n)
        kurt = np.mean(z**4) - 1.0  # var of z^2 around unit variance
        budget = 5.0 * math.sqrt(max(kurt, 0.0) / n) + z.mean() ** 2 + 1e-9
        assert abs(z.var() - 1.0) <= budget

    def test_zero_kind(self):
        gen = sim.trial_generator(1, 2)
        assert not sim.draw_noise(gen, "zero", (3, 4)).any()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sim.draw_noise(sim.trial_generator(0, 0), "cauchy", 3)

    @pytest.mark.parametrize("kind", sim.NOISE_KINDS)
    def test_out_form_matches_returning_form(self, kind):
        want = sim.draw_noise(sim.trial_generator(4, 2), kind, (3, 5))
        buf = np.full((3, 5), np.nan)
        gen = sim.trial_generator(4, 2)
        got = sim.draw_noise(gen, kind, (3, 5), out=buf)
        assert got is buf
        assert np.array_equal(buf, want)
        # the stream advanced exactly as far as the returning form's
        ref = sim.trial_generator(4, 2)
        sim.draw_noise(ref, kind, (3, 5))
        assert np.array_equal(gen.standard_normal(4), ref.standard_normal(4))

    def test_streams_keyed_by_seed_and_trial(self):
        a = sim.draw_noise(sim.trial_generator(9, 4), "gaussian", 8)
        b = sim.draw_noise(sim.trial_generator(9, 4), "gaussian", 8)
        c = sim.draw_noise(sim.trial_generator(9, 5), "gaussian", 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _draw(source, kind, seed, first, count, r_max, t_max, n_dither=0, half=0.0):
    """``sim._draw_inputs`` into a new (r_max, t_max + 1, count) array: (source, noise, dither)."""
    z = np.empty((r_max, t_max + 1, count))
    chunk = np.empty((min(sim._NOISE_CHUNK, count), r_max, t_max + 1))
    src, dither = sim._draw_inputs(source, kind, seed, first, z, chunk, n_dither, half)
    return src, z, dither


@dataclasses.dataclass(frozen=True)
class _RawWords:
    """A source of 0 that reads ``n_halves`` halves and returns its raw words as its bits."""

    n_halves: int

    def halves(self, t_max):
        return self.n_halves

    def draw_batch(self, words, t_max):
        count = words.shape[1]
        return sim.SourceBatch(s=np.zeros(count), shat0=np.zeros((t_max + 1, count)), bits=words)


class TestBatchStreams:
    """One Philox per batch, reset per trial, reads each trial's own stream."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 1, 2**32 + 5])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_reset_matches_fresh_generator(self, seed, first, kind):
        r_max, t_max, n_dither, half = 2, 3, 3, 0.25
        src, z, dither = _draw(
            sim.KnownSampleSource(), kind, seed, first, 3, r_max, t_max, n_dither, half
        )
        assert z.shape == (r_max, t_max + 1, 3)
        for b in range(3):
            gen = sim.trial_generator(seed, first + b)
            # source, then r-major noise, then dither, as the README states
            assert src.s[b] == gen.uniform(-pam.SQRT3, pam.SQRT3)
            assert np.array_equal(z[..., b], sim.draw_noise(gen, kind, (r_max, t_max + 1)))
            assert np.array_equal(dither[:, b], gen.uniform(-half, half, size=n_dither))

    def test_noise_layout_is_trial_contiguous_across_chunks(self):
        count = sim._NOISE_CHUNK + 7  # one full chunk and a partial one
        _, z, dither = _draw(sim.KnownSampleSource(1.0), "gaussian", 5, 10, count, 2, 2)
        assert dither is None
        assert z.flags.c_contiguous and z.shape == (2, 3, count)
        for b in (0, sim._NOISE_CHUNK - 1, sim._NOISE_CHUNK, count - 1):
            want = sim.draw_noise(sim.trial_generator(5, 10 + b), "gaussian", (2, 3))
            assert np.array_equal(z[..., b], want)

    def test_source_that_draws_nothing_still_gets_noise(self):
        # KnownSampleSource(value) reads no halves of its stream
        _, z, _ = _draw(sim.KnownSampleSource(0.5), "uniform", 3, 0, 4, 1, 2)
        for b in range(4):
            want = sim.draw_noise(sim.trial_generator(3, b), "uniform", (1, 3))
            assert np.array_equal(z[..., b], want)

    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_plain_int_resets_match_fresh_generators(self, seed):
        # two full noise chunks and one trial of a third
        count, first, n_dither, half = 2 * sim._NOISE_CHUNK + 1, 17, 2, 0.5
        src, z, dither = _draw(_RawWords(6), "gaussian", seed, first, count, 2, 2, n_dither, half)
        assert src.bits.dtype == np.uint64 and src.bits.shape == (3, count)
        for i in range(count):
            gen = sim.trial_generator(seed, first + i)
            assert np.array_equal(src.bits[:, i], gen.bit_generator.random_raw(3))
            assert np.array_equal(z[..., i], sim.draw_noise(gen, "gaussian", (2, 3)))
            assert np.array_equal(dither[:, i], gen.uniform(-half, half, size=n_dither))

    @pytest.mark.parametrize("psi", [1, 3])
    def test_odd_packet_bits_reset_the_buffered_half(self, psi):
        # the odd bit leaves a buffered 32-bit half, which the next trial's
        # reset must drop, or that trial's odd bit would read it
        src, z, _ = _draw(sim.SinglePacketSource(psi), "gaussian", 8, 3, 6, 2, 2)
        for b in range(6):
            gen = sim.trial_generator(8, 3 + b)
            assert np.array_equal(src.bits[:, b], gen.integers(0, 2, size=psi))
            assert np.array_equal(z[..., b], sim.draw_noise(gen, "gaussian", (2, 3)))

    @pytest.mark.parametrize("n", [1, 5])
    def test_odd_half_is_the_low_half_of_its_word(self, n):
        # an odd last half fills the low 32 bits of the last word, as
        # ``integers(0, 2**32, dtype=np.uint32)`` returns it
        src, _, _ = _draw(_RawWords(n), "zero", 4, 9, 3, 1, 0)
        for b in range(3):
            gen = sim.trial_generator(4, 9 + b)
            want = gen.bit_generator.random_raw(n // 2 + 1)
            assert np.array_equal(src.bits[:-1, b], want[:-1])
            assert src.bits[-1, b] == want[-1] & np.uint64(2**32 - 1)


def _rows_digest(stats):
    text = "\n".join(",".join(repr(v) for v in row) for row in stats.rows())
    return hashlib.sha256(text.encode()).hexdigest()


def _aggregate_digest(agg):
    h = hashlib.sha256()
    for f in dataclasses.fields(agg):
        value = getattr(agg, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class TestRawWordBits:
    """Packet bits cut from raw Philox words equal ``integers(0, 2, size=n)``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 67, 68])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1, 2**32 + 5])
    def test_matches_integers_and_leaves_the_stream_in_step(self, n, seed, trial):
        # Rademacher noise reads 32-bit halves, so after an odd n its first
        # value is the half the last bit left buffered
        source = sim.SinglePacketSource(n)
        src, z, dither = _draw(source, "rademacher", seed, trial, 1, 2, 2, 2, 0.5)
        assert src.bits.dtype == np.int8 and src.bits.shape == (n, 1)
        gen = sim.trial_generator(seed, trial)
        assert np.array_equal(src.bits[:, 0], gen.integers(0, 2, size=n))
        assert np.array_equal(z[..., 0], sim.draw_noise(gen, "rademacher", (2, 3)))
        assert np.array_equal(dither[:, 0], gen.uniform(-0.5, 0.5, size=2))

    def test_batch_columns_are_the_trials(self):
        src, _, _ = _draw(sim.PacketStreamSource(3, 2), "zero", 9, 0, 5, 1, 3)
        assert src.bits.shape == (3 * 2 + 24, 5) and src.bits.flags.c_contiguous
        for i in range(5):
            want = sim.trial_generator(9, i).integers(0, 2, size=30)
            assert np.array_equal(src.bits[:, i], want)


class TestNumpyDrawsFromRawWords:
    """The numpy behaviour the raw-word sources rest on.

    A numpy release that changed any of it would move every Monte Carlo
    byte; these tests fail first and name the draw.
    """

    @pytest.mark.parametrize("lo, hi", [(-pam.SQRT3, pam.SQRT3), (-0.25, 0.25), (0.0, 1.0)])
    def test_uniform_is_the_raw_word_formula(self, lo, hi):
        words = sim.trial_generator(11, 3).bit_generator.random_raw(100_000)
        gen = sim.trial_generator(11, 3)
        want = sim._uniform(words, lo, hi)
        assert np.array_equal(gen.uniform(lo, hi, size=99_990), want[:99_990])
        for w in want[99_990:]:
            assert gen.uniform(lo, hi) == w

    @pytest.mark.parametrize("seed", range(20))
    def test_full_range_uint32_reads_the_half_integers_0_2_reads(self, seed):
        # both read one 32-bit half: the low half of a fresh word, or the
        # buffered high half; either leaves the same generator state
        a, b = sim.trial_generator(seed, 1), sim.trial_generator(seed, 1)
        for _ in range(3):
            half = a.integers(0, 2**32, dtype=np.uint32)
            assert half >> 31 == b.integers(0, 2)
            assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert np.array_equal(a.integers(0, 2, size=5), b.integers(0, 2, size=5))


class TestRegressionPins:
    """Digests recorded from the engine before its per-trial streams were shared.

    They pin every Monte Carlo path bit for bit: batches of 1,000 over 2,500
    trials (so the last batch is short), at 1 and 3 threads.  The two
    aggregate digests were re-recorded when the output probes became
    pair-indexed: every other field stayed bit-identical, and the pair
    covariances moved by at most 1e-15 absolute (summation order).
    """

    @staticmethod
    def _decode_case(kind):
        if kind == "stream":
            gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 4, 9))
            return (gains, sim.PacketStreamSource(2, 2), "gaussian", 11,
                    [(2, 3), (4, 5), (3, 7), (4, 9)], sim.DecodeSpec("stream", 2, 2))
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 3))
        if kind == "packet":
            return (gains, sim.SinglePacketSource(2), "uniform", 9,
                    [(1, 1), (2, 2), (3, 3)], sim.DecodeSpec("packet", 2))
        alpha = sim.coefficient_trial(gains)
        if kind == "packet_dithered_n2":  # 2 of 12 bits, as test_dithered_runs_both_decoders
            spec = sim.DecodeSpec("packet_dithered", 12, decode_bits_n=2,
                                  alphas=np.array([alpha[2, 2]]))
            return gains, sim.SinglePacketSource(12), "gaussian", 13, [(2, 2)], spec
        cells = [(2, 2), (3, 3)]
        spec = sim.DecodeSpec("packet_dithered", 3, decode_bits_n=3,
                              alphas=np.array([alpha[r, t] for r, t in cells]))
        return gains, sim.SinglePacketSource(3), "rademacher", 13, cells, spec

    PINNED_ROWS = {
        "stream": ("517e226c9452c7dcca9f9753d72b379ba390ea754735a7490810a722d69fb80c", None),
        "packet": ("5f5726eef151b5cdd58baa077c390cd08a9a62a4bfb519b7631c118f66b54f0a", None),
        "packet_dithered": (
            "17a6ff0e78af15e42fad0ffe552817220b0c3eede88c195530eb2f22f5c9daeb",
            "cc7031ec724392bf378368ed52300029167b16f6c276e352aedb6a2d4a312abe",
        ),
        "packet_dithered_n2": (
            "f1f4ea9386502c323199cb1f13e3e119f2b4c1021cbbb215a95eb002d869ef41",
            "e1534a086dae82c5fdab90698e9764429ae2c8bfc77d789ca1962776b6272df3",
        ),
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("kind", ["stream", "packet", "packet_dithered", "packet_dithered_n2"])
    def test_decode_rows(self, kind, threads):
        gains, source, noise, seed, cells, spec = self._decode_case(kind)
        primary, secondary = sim.run_decoding_monte_carlo(
            gains, source, noise, 2_500, seed, cells, spec, batch_size=1_000, threads=threads
        )
        got = (_rows_digest(primary), secondary and _rows_digest(secondary))
        assert got == self.PINNED_ROWS[kind]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_probe_aggregate(self, threads):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 5))
        agg = sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", 2_500, 5,
                                  batch_size=1_000, threads=threads)
        assert _aggregate_digest(agg) == (
            "42ed217437eb8bcad384fd86d713742cf2ffff5840a804a50223ecb4aa2f00b3"
        )

    def test_packet_stream_aggregate(self):
        gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 3, 6))
        agg = sim.run_monte_carlo(gains, sim.PacketStreamSource(2, 2), "uniform", 2_500, 6,
                                  batch_size=1_000)
        assert _aggregate_digest(agg) == (
            "766bf3bcfcd4fb77de8769cba9adb33275fc3a2d7e9341a15f3ccfda00a6c215"
        )

    def test_single_trial_traces(self):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 5))
        tr = sim.run_trial(gains, sim.KnownSampleSource(), "gaussian", 7, 3)
        def digest(*arrays):
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

        assert tr.z.shape == (3, 6)
        assert digest(tr.z) == (
            "7bbc25f566d55883309751869377010f7a64dfb8192a06d4e0abdc0ea5a5171a"
        )
        assert digest(tr.estimates) == (
            "23748e4ffde1c117c88fc6686c94955973e464da15f5ea5fa46ee895d30bcc2b"
        )
        assert digest(tr.x, tr.y) == (
            "af0de15b2640e122973bda06c4f2cf5738a7599ccfd4c999019d236d84f89050"
        )
        assert digest(sim.coefficient_trial(gains)) == (
            "05efa318f2a2a6c7c868f536e86b874a27f756aff4a05d7522a88926c07a2bbf"
        )


class TestRegressionPinsInLeafBlocks(TestRegressionPins):
    """The same pins with every batch cut into its smallest blocks.

    A summed batch of 1,000 then runs as eight blocks of at most 128
    trials, whose sums ``_Moments.join`` adds along numpy's pairwise tree;
    a decoded batch runs one trial a block.
    """

    @pytest.fixture(autouse=True)
    def leaf_blocks(self, monkeypatch):
        # a budget below one trial leaves only the floors: numpy's 128-value
        # leaf for summed runs, one trial for decode runs
        monkeypatch.setattr(sim, "_BLOCK_BUDGET", 0)

    @pytest.mark.parametrize("noise", sim.NOISE_KINDS)
    def test_single_batch_matches_time_major(self, noise, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 6, 20))
        source, draw, blocks, buffers = sim.PacketStreamSource(2, 2), sim._draw_inputs, [], []

        def counting_draw(source, noise_kind, master_seed, start, out, chunk, *args):
            blocks.append(out.shape[-1])
            buffers.append((out.base, chunk))
            return draw(source, noise_kind, master_seed, start, out, chunk, *args)

        def aggregate():
            return sim.run_monte_carlo(gains, source, noise, 300, 17, batch_size=300, threads=1)

        monkeypatch.setattr(sim, "_draw_inputs", counting_draw)
        agg = aggregate()
        assert blocks == [72, 72, 72, 84]  # 300 = (72 + 72) + (72 + 84)
        # one noise buffer and one staging chunk, each sized to the largest block
        buffer, chunk = buffers[0]
        assert all(b[0] is buffer and b[1] is chunk for b in buffers)
        assert buffer.size == 6 * 21 * 84 and chunk.shape == (84, 6, 21)
        monkeypatch.setattr(sim, "_simulate_batch", _time_major_simulate_batch)
        assert _aggregate_digest(agg) == _aggregate_digest(aggregate())


# ---------------------------------------------------------------------------
# Time-major reference engine
# ---------------------------------------------------------------------------
#
# The engine the wavefront ``sim._sweep`` replaced: one time step at a time,
# one hop at a time, on the same (r_max+1, B) state and with the same
# arithmetic per cell.  Observers see every node after each time step.

def _time_major_sweep(gains, shat0, z, on_step, first_trial, hops=None):
    r_max, T, count = z.shape
    silent = gains.silent.tolist()
    beta = gains.beta.tolist()
    gamma = gains.gamma.tolist()
    est = np.zeros((r_max + 1, count))
    x = np.empty(count)
    y = np.empty(count)
    scaled = np.empty(count)
    for t in range(T):
        est[0] = shat0[t]
        with np.errstate(invalid="ignore"):
            for r in range(r_max):
                if hops is not None:
                    x, y = hops[0][r], hops[1][r]
                if silent[r][t]:
                    if hops is not None:
                        x.fill(0.0)
                        y[...] = z[r, t]
                    continue
                np.subtract(est[r], est[r + 1], out=x)
                x *= beta[r][t]
                np.add(x, z[r, t], out=y)
                np.multiply(y, gamma[r + 1][t], out=scaled)
                est[r + 1] += scaled
        if not np.isfinite(est).all():
            bad_r = int(np.argwhere(~np.isfinite(est))[0, 0])
            raise FloatingPointError(
                f"non-finite estimate at node r={bad_r}, t={t} "
                f"(trials {first_trial}..{first_trial + count - 1})"
            )
        on_step(t, est)


class _TimeMajorMoments:
    """The per-time-step observer that accumulated ``run_monte_carlo``'s sums."""

    def __init__(self, gains, s, z):
        r_max, T, count = z.shape
        self.gains, self.s, self.z = gains, s, z
        self.hops = (np.empty((r_max, count)), np.empty((r_max, count)))
        self.prev = np.zeros((r_max + 1, count))
        self.y0 = np.empty((r_max, count))
        self.y_prev = np.empty((r_max, count))
        n_pairs = len(sim.probe_pairs(T))
        self.sums = {
            "n": count,
            "err_sum": np.zeros((r_max + 1, T)),
            "sq_sum": np.zeros((r_max + 1, T)),
            "sq2_sum": np.zeros((r_max + 1, T)),
            "pow_sum": np.zeros((r_max, T)),
            "pow2_sum": np.zeros((r_max, T)),
            "identity_max": 0.0,
            "d_sum": np.zeros((r_max + 1, T)),
            "d2_sum": np.zeros((r_max + 1, T)),
            "y_sum": np.zeros((r_max, T)),
            "yy_sum": np.zeros((r_max, n_pairs)),
            "y2y2_sum": np.zeros((r_max, n_pairs)),
        }

    def _add_pair(self, k, y, other):
        prod = y * other
        self.sums["yy_sum"][:, k] = prod.sum(axis=1)
        prod *= prod
        self.sums["y2y2_sum"][:, k] = prod.sum(axis=1)

    def __call__(self, t, est):
        sums, s, prev = self.sums, self.s, self.prev
        x, y = self.hops
        err = s[None, :] - est
        sq = err * err
        sums["err_sum"][:, t] = err.sum(axis=1)
        sums["sq_sum"][:, t] = sq.sum(axis=1)
        sums["sq2_sum"][:, t] = (sq * sq).sum(axis=1)
        x2 = x * x
        sums["pow_sum"][:, t] = x2.sum(axis=1)
        sums["pow2_sum"][:, t] = (x2 * x2).sum(axis=1)
        active = ~self.gains.silent[:, t]
        if active.any():
            pbar = self.gains.channel.snr_bar
            resid = est[1:][active] - (
                pbar * est[:-1][active]
                + (1.0 - pbar) * prev[1:][active]
                + self.gains.gamma[1:, t][active, None] * self.z[:, t][active]
            )
            sums["identity_max"] = max(sums["identity_max"], float(np.abs(resid).max()))
        d = err[1:-1] * (s - prev[2:]) - sq[1:-1]
        sums["d_sum"][1:-1, t] = d.sum(axis=1)
        sums["d2_sum"][1:-1, t] = (d * d).sum(axis=1)
        sums["y_sum"][:, t] = y.sum(axis=1)
        if t >= 1:
            self._add_pair(t - 1, y, self.y_prev)
        if t >= 2:
            self._add_pair(self.z.shape[1] + t - 3, y, self.y0)
        if t == 0:
            self.y0[...] = y
        self.y_prev[...] = y
        prev[...] = est


def _time_major_simulate_batch(gains, source, noise_kind, master_seed, start_trial, count):
    src, z, _ = _draw(source, noise_kind, master_seed, start_trial, count,
                      gains.r_max, gains.t_max)
    moments = _TimeMajorMoments(gains, src.s, z)
    _time_major_sweep(gains, src.shat0, z, moments, start_trial, hops=moments.hops)
    return moments.sums


def _time_major_trace(gains, source, noise_kind, master_seed, trial_index):
    """(estimates, x, y) of one trial."""
    r_max, T = gains.r_max, gains.t_max + 1
    src, z, _ = _draw(source, noise_kind, master_seed, trial_index, 1, r_max, gains.t_max)
    est, x, y = np.empty((r_max + 1, T)), np.empty((r_max, T)), np.empty((r_max, T))
    hops = (np.empty((r_max, 1)), np.empty((r_max, 1)))

    def record(t, state):
        est[:, t] = state[:, 0]
        x[:, t] = hops[0][:, 0]
        y[:, t] = hops[1][:, 0]

    _time_major_sweep(gains, src.shat0, z, record, trial_index, hops=hops)
    return est, x, y


def _time_major_captures(gains, source, noise_kind, master_seed, start, count, cells):
    """(n_cells, B) estimates at ``cells`` from one whole-batch sweep."""
    src, z, _ = _draw(source, noise_kind, master_seed, start, count, gains.r_max, gains.t_max)
    captures = np.empty((len(cells), count))

    def capture(t, est):
        for idx, (r, u) in enumerate(cells):
            if u == t:
                captures[idx] = est[r]

    _time_major_sweep(gains, src.shat0, z, capture, start)
    return captures


@dataclasses.dataclass(frozen=True)
class _WithBits:
    """``source`` with one zero packet bit per trial, so that a decoding run
    captures its estimates; it reads the same stream as ``source``."""

    source: object

    def halves(self, t_max):
        return self.source.halves(t_max)

    def draw_batch(self, words, t_max):
        src = self.source.draw_batch(words, t_max)
        return dataclasses.replace(src, bits=np.zeros((1, len(src.s)), dtype=np.int8))


def _decode_inputs(gains, source, noise_kind, master_seed, start, count, cells, decode):
    """What ``sim._decode_batch`` hands the slicer and the tally, cell by cell.

    Returns the (n_cells, count) estimates that reach ``pam.decode_bits`` and
    the list of truth arrays that reach ``pam.tally_errors``.
    """
    captures, truths = [], []
    decode_bits, tally_errors = pam.decode_bits, pam.tally_errors

    def spy_decode(estimate, n):
        captures.append(estimate.copy())
        return decode_bits(estimate, n)

    def spy_tally(stats, decoded, truth, *args):
        truths.append(truth)
        return tally_errors(stats, decoded, truth, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pam, "decode_bits", spy_decode)
        m.setattr(pam, "tally_errors", spy_tally)
        sim._decode_batch(gains, source, noise_kind, master_seed, cells, decode, start, count)
    return np.array(captures), truths


def _set_block(monkeypatch, gains, trials):
    """Give a block of ``gains``' lattice a budget of ``trials`` trials (at the least
    128 in summed runs and 1 in decode runs)."""
    monkeypatch.setattr(sim, "_BLOCK_BUDGET", trials * 8 * gains.r_max * (gains.t_max + 1))


def _same_bits(a, b):
    """Equal float arrays bit for bit (so +0.0 differs from -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWavefrontMatchesTimeMajor:
    """The anti-diagonal engine reproduces the time-major reference bit for bit."""

    TRIALS, SEED = 300, 17

    def _check(self, gains, source, noise, monkeypatch, trials=TRIALS):
        for trial in (0, 5):
            tr = sim.run_trial(gains, source, noise, self.SEED, trial)
            want = _time_major_trace(gains, source, noise, self.SEED, trial)
            for got, ref in zip((tr.estimates, tr.x, tr.y), want):
                assert _same_bits(got, ref)

        def aggregate():
            return sim.run_monte_carlo(gains, source, noise, trials, self.SEED,
                                       batch_size=128, threads=1)

        agg = aggregate()
        with monkeypatch.context() as m:
            m.setattr(sim, "_simulate_batch", _time_major_simulate_batch)
            ref = aggregate()
        for f in dataclasses.fields(agg):
            got, want = getattr(agg, f.name), getattr(ref, f.name)
            if isinstance(got, np.ndarray):
                assert _same_bits(got, want), f.name
            else:
                assert repr(got) == repr(want), f.name

        cells = [(r, t) for r in range(gains.r_max + 1) for t in range(gains.t_max + 1)]
        _set_block(monkeypatch, gains, 64)  # several blocks, the last one short
        caps, _ = _decode_inputs(gains, _WithBits(source), noise, self.SEED, 3, trials, cells,
                                 sim.DecodeSpec("packet", 1))
        ref = _time_major_captures(gains, source, noise, self.SEED, 3, trials, cells)
        assert _same_bits(caps, ref)

    @pytest.mark.parametrize("t_max", [0, 1, 5, 43])
    @pytest.mark.parametrize("r_max", [1, 3, 24])
    def test_lattice_shapes(self, r_max, t_max, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), r_max, t_max))
        self._check(gains, sim.PacketStreamSource(2, 2), "gaussian", monkeypatch)

    @pytest.mark.parametrize("noise", sim.NOISE_KINDS)
    def test_noise_kinds(self, noise, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 4, 9))
        self._check(gains, sim.KnownSampleSource(), noise, monkeypatch)

    def test_all_silent_flat_lattice(self, monkeypatch):
        flat = MseGrid(channel=CH10, boundary=SingleSampleBoundary(), r_max=3, t_max=5,
                       values=np.ones((4, 7)))
        gains = sim.precompute_gains(flat)
        assert gains.silent.all()
        self._check(gains, sim.KnownSampleSource(), "gaussian", monkeypatch)

    def test_silent_and_active_hops_on_one_diagonal(self, monkeypatch):
        # the deep cells of this lattice underflow, and their hops fall silent
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 30, 400))
        mixed = [
            e for e in range(1, 431)
            if len({bool(gains.silent[n - 1, e - n])
                    for n in range(max(1, e - 400), min(30, e) + 1)}) == 2
        ]
        assert mixed
        self._check(gains, sim.KnownSampleSource(), "gaussian", monkeypatch, trials=40)


def _tree_blocks(n, trials, floor=128):
    """Trials per block of a batch of ``n`` at a budget of ``trials`` a block.

    numpy sums a row of more than 128 values as the sum of its first
    n//2 - (n//2) % 8 values plus the sum of the rest; a batch is cut at
    those splits until its blocks fit the budget or reach ``floor`` trials:
    128 in summed runs, 1 in decode runs, which cut below 16 trials at n//2.
    """
    if n <= max(trials, floor):
        return [n]
    half = n // 2 - n // 2 % 8 or n // 2
    return _tree_blocks(half, trials, floor) + _tree_blocks(n - half, trials, floor)


class _RowSums:
    """A ``_sweep`` observer that ignores the sweep and carries its block's row sums."""

    def __init__(self, sums):
        self.sums = sums

    def __call__(self, *diagonal):
        pass

    def join(self, other):
        return _RowSums(self.sums + other.sums)


class TestPairwiseTree:
    """Per-block row sums added along the driver's cuts equal ``sum(axis=1)``.

    This pins numpy's summation order, on which the bytes of every
    ``run_monte_carlo`` aggregate rest: a change to numpy's pairwise kernel
    fails here instead of silently moving them.
    """

    @pytest.mark.parametrize("n", [129, 1_000, 5_000, 12_345, 20_000, 20_001, 99_999])
    def test_joined_block_sums_equal_the_batch_sum(self, n, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 1, 0))
        rng = np.random.default_rng(n)
        a = np.empty((3, n))
        a[0] = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)  # mixed signs and scales
        a[1] = -0.0
        a[2] = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        want = a.sum(axis=1)

        def zero_draw(source, noise_kind, master_seed, start, out, *args):
            out.fill(0.0)
            _, T, count = out.shape
            return sim.SourceBatch(s=np.zeros(count), shat0=np.zeros((T, count))), None

        monkeypatch.setattr(sim, "_draw_inputs", zero_draw)
        for trials in (1, 64, 127, 128, 129, 136, 200, 256, 1_000, 1_024, 2_047, 4_096):
            _set_block(monkeypatch, gains, trials)
            blocks = []

            def leaf(block, src, z, dither):
                blocks.append(block.stop - block.start)
                # a fresh C-contiguous slab, as the engine's observers sum
                return _RowSums(np.ascontiguousarray(a[:, block]).sum(axis=1))

            got = sim._run_blocks(gains, None, "zero", 0, 0, n, leaf, _RowSums.join).sums
            assert blocks == _tree_blocks(n, trials)
            assert _same_bits(got, want), trials


class TestBlockIndependence:
    """Decoding counts do not depend on how a batch is cut into blocks."""

    def test_truth_bits_are_bit_major_across_blocks(self, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 3, 9))
        source = sim.PacketStreamSource(2, 2)
        _set_block(monkeypatch, gains, 128)  # 300 trials in blocks of 72, 72, 72 and 84
        _, truths = _decode_inputs(gains, source, "gaussian", 4, 0, 300, [(1, 2), (2, 9)],
                                   sim.DecodeSpec("stream", 2, 2))
        src, _, _ = _draw(source, "gaussian", 4, 0, 300, 3, 9)
        # each truth is the first rows of one (depth, B) array of the whole
        # batch's bits: contiguous bit rows, the layout of ``pam.decode_bits``
        # output, which ``pam.tally_errors`` compares row by row
        for truth, n in zip(truths, (4, 10)):
            assert truth.flags.c_contiguous and truth.shape == (n, 300)
            assert np.array_equal(truth.base, src.bits)

    @pytest.mark.parametrize("block", [1, 7, 1_000])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("kind", ["stream", "packet", "packet_dithered"])
    def test_decode_rows_match_pins(self, kind, threads, block, monkeypatch):
        gains, source, noise, seed, cells, spec = TestRegressionPins._decode_case(kind)
        _set_block(monkeypatch, gains, block)
        # calls, trials and the largest block, in shared memory: at threads=3
        # the batches run in forked workers, which inherit this array
        counts = multiprocessing.Array("q", 3)
        draw = sim._draw_inputs

        def counting_draw(source, noise_kind, master_seed, start, out, *args):
            count = out.shape[-1]
            with counts.get_lock():
                counts[0] += 1
                counts[1] += count
                counts[2] = max(counts[2], count)
            return draw(source, noise_kind, master_seed, start, out, *args)

        monkeypatch.setattr(sim, "_draw_inputs", counting_draw)
        primary, secondary = sim.run_decoding_monte_carlo(
            gains, source, noise, 2_500, seed, cells, spec, batch_size=1_000, threads=threads
        )
        calls, trials, largest = counts[:]
        # batches of 1,000, 1,000 and 500 trials, each cut along numpy's pairwise
        # tree down to the budget, one trial at the least
        blocks = 2 * _tree_blocks(1_000, block, 1) + _tree_blocks(500, block, 1)
        assert trials == 2_500 and largest == max(blocks)
        assert calls == len(blocks)
        got = (_rows_digest(primary), secondary and _rows_digest(secondary))
        assert got == TestRegressionPins.PINNED_ROWS[kind]


def _criterion8_case():
    """Gains, source and cells of criterion 8: stream decoding at v = IV/2 over r = 4..24."""
    psi, period, tau_cap = 2, 2, 8
    v = 0.5 * xp.iv_lower_bound_stream(CH10, make_stream_params(psi, period, CH10).rate_nats)
    deltas = {r: math.floor(r / v) for r in (4, 8, 12, 16, 20, 24)}
    t_max = tau_cap * period + max(deltas.values())
    gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(psi, period), 24, t_max))
    cells = [(r, tau * period + d) for r, d in deltas.items() for tau in range(tau_cap + 1)]
    return gains, sim.PacketStreamSource(psi, period), cells


def test_decoding_memory_is_bounded_by_blocks():
    # A criterion-8 batch holds its captures and bits; the noise lives one
    # block at a time.
    psi, period, n = 2, 2, 20_000
    gains, source, cells = _criterion8_case()
    t_max = gains.t_max
    tracemalloc.start()
    try:
        sim.run_decoding_monte_carlo(gains, source, "gaussian", n, 14, cells,
                                     sim.DecodeSpec("stream", psi, period), threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch_noise = 8 * 24 * (t_max + 1) * n  # what one whole-batch sweep held: 169 MB
    captures_and_bits = 8 * len(cells) * n + source.depth(t_max) * n
    assert peak <= 3 * sim._BLOCK_BUDGET + captures_and_bits < batch_noise / 2, peak


@pytest.mark.parametrize("join", [None, max], ids=["decode", "summed"])
def test_criterion8_blocks_and_chunk(join, monkeypatch):
    """At 8,448 bytes of noise a trial, a batch of 20,000 is cut into the same
    blocks of about 1,250 trials whether decoded or summed, each staged 128
    trials at a time."""
    gains, _, _ = _criterion8_case()
    assert 8 * gains.r_max * (gains.t_max + 1) == 8_448
    blocks, chunks = [], set()

    def zero_draw(source, noise_kind, master_seed, start, out, chunk, *args):
        blocks.append(out.shape[-1])
        chunks.add(chunk.shape[0])
        out.fill(0.0)
        _, T, count = out.shape
        return sim.SourceBatch(s=np.zeros(count), shat0=np.zeros((T, count))), None

    monkeypatch.setattr(sim, "_draw_inputs", zero_draw)
    monkeypatch.setattr(sim, "_sweep", lambda *args: None)
    sim._run_blocks(gains, None, "zero", 0, 0, 20_000, lambda *args: 0, join)
    assert blocks == _tree_blocks(20_000, sim._BLOCK_BUDGET // 8_448)
    assert blocks == _tree_blocks(20_000, sim._BLOCK_BUDGET // 8_448, 1)
    assert 1_240 <= min(blocks) <= max(blocks) <= 1_256 and chunks == {128}


def test_decoding_memory_on_a_big_lattice(monkeypatch):
    """722 KB of noise a trial: decode blocks go below 128 trials, and the
    staging chunk below 128, so the noise stays within the block budget.
    Cut so, 200 trials decode as they do in one block."""
    source = sim.SinglePacketSource(2)
    gains = sim.precompute_gains(solve_grid(CH10, source.boundary(), 300, 300))
    assert 8 * gains.r_max * (gains.t_max + 1) == 722_400
    cells = [(1, 0), (2, 1), (2, 2), (5, 3)] + [(r, r) for r in range(10, 301, 58)]
    spec = sim.DecodeSpec("packet", 2)

    def rows():
        primary, _ = sim.run_decoding_monte_carlo(gains, source, "gaussian", 200, 21, cells,
                                                  spec, threads=1)
        return list(primary.rows())

    tracemalloc.start()
    try:
        cut = rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sim._BLOCK_BUDGET, peak
    monkeypatch.setattr(sim, "_BLOCK_BUDGET", 200 * 722_400)  # one block of 200 trials
    whole = rows()
    assert cut == whole
    assert any(row[3] > 0 for row in cut)  # some packet errors, so the rows compare counts


class TestGains:
    def test_first_hop_first_use_is_amplify_forward(self, small_gains):
        # beta_0(0) = sqrt(P / (M_1(-1) - M_0(0))) = sqrt(P)
        assert small_gains.beta[0, 0] == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_beta_gamma_product_is_pbar(self, small_gains):
        prod = small_gains.beta * small_gains.gamma[1:]
        active = ~small_gains.silent
        assert np.allclose(prod[active], PBAR, atol=1e-13, rtol=0)

    def test_values_from_grid_formulas(self, small_gains):
        grid = small_gains.grid
        # hop 1 at t = 1: beta_1(1), gamma_2(1) from the lattice cells
        diff = grid.at(2, 0) - grid.at(1, 1)
        assert small_gains.beta[1, 1] == pytest.approx(math.sqrt(10.0 / diff), rel=1e-13)
        assert small_gains.gamma[2, 1] == pytest.approx(math.sqrt(10.0 * diff) / 11.0, rel=1e-13)

    def test_corrupted_grid_aborts(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 4)
        values = grid.values.copy()
        values[2, 3] = values[3, 2] + 1e-6  # break monotonicity
        bad = MseGrid(channel=CH10, boundary=grid.boundary, r_max=3, t_max=4, values=values)
        with pytest.raises(sim.CorruptedGridError):
            sim.precompute_gains(bad)

    def test_degenerate_cells_marked_silent(self):
        values = np.ones((4, 7))  # flat lattice: zero decrease everywhere
        flat = MseGrid(
            channel=CH10, boundary=SingleSampleBoundary(), r_max=3, t_max=5, values=values
        )
        gains = sim.precompute_gains(flat)
        assert gains.silent.all()
        assert (gains.beta == 0).all()
        assert gains.clamp_count == 0

    def test_nonfinite_state_aborts_with_diagnostics(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 4)
        gains = sim.precompute_gains(grid)
        beta = gains.beta.copy()
        beta[1, 2] = math.inf
        broken = sim.GainTable(
            channel=gains.channel, r_max=gains.r_max, t_max=gains.t_max,
            beta=beta, gamma=gains.gamma, silent=gains.silent, grid=gains.grid,
        )
        with pytest.raises(FloatingPointError, match=r"r=2, t=2"):
            sim.run_trial(broken, sim.KnownSampleSource(), "gaussian", 1, 0)

    def test_silent_hops_produce_finite_state(self):
        values = np.ones((4, 7))
        flat = MseGrid(
            channel=CH10, boundary=SingleSampleBoundary(), r_max=3, t_max=5, values=values
        )
        gains = sim.precompute_gains(flat)
        agg = sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", 50, 3)
        assert np.isfinite(agg.mse_mean).all()
        assert (agg.power_mean == 0).all()  # nothing transmitted

    def test_expected_power_never_exceeds_constraint(self, small_gains):
        grid = small_gains.grid
        diff = grid.values[1:, :-1] - grid.values[:-1, 1:]
        power = small_gains.beta**2 * diff
        assert (power <= 10.0 * (1.0 + 1e-15)).all()
        assert small_gains.clamp_count == 0  # only beyond-rounding overshoots count


class TestSingleTrial:
    def test_zero_noise_first_estimate(self, small_gains):
        tr = sim.run_trial(small_gains, sim.KnownSampleSource(), "zero", 42, 0)
        s = tr.source_value
        assert tr.estimates[1, 0] == pytest.approx(PBAR * s, rel=1e-13)
        assert tr.squared_errors[1, 0] == pytest.approx((1 - PBAR) ** 2 * s * s, rel=1e-12)

    def test_estimate_recursion_identity_per_step(self, small_gains):
        for kind in ("gaussian", "uniform", "rademacher"):
            tr = sim.run_trial(small_gains, sim.KnownSampleSource(), kind, 7, 3)
            est, z = tr.estimates, tr.z
            for r in range(1, 6):
                for t in range(0, 21):
                    prev = est[r, t - 1] if t > 0 else 0.0
                    want = PBAR * est[r - 1, t] + (1 - PBAR) * prev + small_gains.gamma[r, t] * z[r - 1, t]
                    assert abs(est[r, t] - want) <= 1e-12

    def test_channel_io_consistency(self, small_gains):
        tr = sim.run_trial(small_gains, sim.KnownSampleSource(), "gaussian", 7, 0)
        assert np.allclose(tr.y, tr.x + tr.z, atol=1e-15)

    def test_trace_csv_schema(self, small_gains, tmp_path):
        tr = sim.run_trial(small_gains, sim.KnownSampleSource(), "gaussian", 7, 0)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r,x,y,z,estimate"
        assert len(lines) == 1 + 5 * 21

    def test_trace_csv_matches_per_cell_reference(self, tmp_path):
        # the per-cell f-string writer the lattice writer replaced
        gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 4, 29))
        tr = sim.run_trial(gains, sim.PacketStreamSource(2, 2), "gaussian", 7, 3)
        want = ["t,r,x,y,z,estimate"]
        for t in range(30):
            for r in range(4):
                want.append(f"{t},{r},{tr.x[r, t]:.17g},{tr.y[r, t]:.17g},"
                            f"{tr.z[r, t]:.17g},{tr.estimates[r + 1, t]:.17g}")
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        assert path.read_text() == "\n".join(want) + "\n"


class TestCoefficientTrial:
    def test_alpha_first_cell(self, small_gains):
        alpha = sim.coefficient_trial(small_gains)
        assert alpha[1, 0] == pytest.approx(PBAR, rel=1e-13)
        assert alpha[0, 0] == 1.0

    def test_alpha_in_unit_interval_where_estimates_live(self, small_gains):
        alpha = sim.coefficient_trial(small_gains)
        inner = alpha[1:, :10]  # early cells, far from float saturation
        assert ((inner > 0) & (inner < 1)).all()

    def test_alpha_increases_with_time(self, small_gains):
        alpha = sim.coefficient_trial(small_gains)
        assert (np.diff(alpha[1:6], axis=1) >= -1e-15).all()


class TestMonteCarlo:
    def test_empirical_mse_matches_lattice(self, small_gains):
        agg = sim.run_monte_carlo(
            small_gains, sim.KnownSampleSource(), "gaussian", 20_000, 1, threads=2
        )
        theory = small_gains.grid.values[1:, 1:]
        z = np.abs(agg.mse_mean[1:] - theory) / agg.mse_stderr[1:]
        assert z.max() <= 4.0  # smoke scale; the acceptance suite runs 1e5 at 3 sigma

    def test_power_close_to_constraint(self, small_gains):
        agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 20_000, 1)
        z = np.abs(agg.power_mean - 10.0) / agg.power_stderr
        assert z.max() <= 4.0

    def test_identity_max_tiny(self, small_gains):
        agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 2_000, 1)
        assert agg.identity_max <= 1e-12

    def test_error_mean_near_zero(self, small_gains):
        agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 20_000, 1)
        scale = np.sqrt(small_gains.grid.values[1:, 1:] / agg.n_trials)
        assert (np.abs(agg.err_mean[1:]) <= 5 * scale).all()

    def test_bit_identical_across_threads_and_batches(self, small_gains):
        a = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 30_000, 5,
                                threads=1)
        b = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 30_000, 5,
                                threads=7)
        for field in ("mse_mean", "mse_stderr", "power_mean", "y_mean", "y_cov", "y_cov_stderr",
                      "lemma8_diff_mean"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_seed_changes_aggregate(self, small_gains):
        a = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 1_000, 5)
        b = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 1_000, 6)
        assert not np.array_equal(a.mse_mean, b.mse_mean)

    @pytest.mark.parametrize("kind", ["uniform", "rademacher"])
    def test_distribution_free_second_moments(self, small_gains, kind):
        agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), kind, 20_000, 1)
        theory = small_gains.grid.values[1:, 1:]
        z = np.abs(agg.mse_mean[1:] - theory) / agg.mse_stderr[1:]
        assert z.max() <= 4.0

    def test_probe_shapes(self, small_gains):
        agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 2_000, 1)
        assert agg.y_mean.shape == (5, 21)
        assert agg.y_cov.shape == agg.y_cov_stderr.shape == (5, 39)  # 2T-3 pairs
        assert agg.lemma8_diff_mean.shape == (6, 21)

    def test_probe_pairs_order(self):
        assert sim.probe_pairs(1) == []
        assert sim.probe_pairs(2) == [(0, 1)]
        assert sim.probe_pairs(4) == [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
        assert len(sim.probe_pairs(21)) == 39


class TestProbeReference:
    """The probes of ``run_monte_carlo`` against single-trial traces reduced in numpy."""

    @pytest.mark.parametrize("noise", ["gaussian", "uniform"])
    def test_matches_stacked_traces(self, noise):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 6))
        source, n, seed = sim.KnownSampleSource(), 400, 21
        # batches of 150: three of them, the last one short
        agg = sim.run_monte_carlo(gains, source, noise, n, seed, batch_size=150, threads=1)
        y = np.stack([sim.run_trial(gains, source, noise, seed, i).y for i in range(n)])
        t, u = np.array(sim.probe_pairs(7)).T
        prod = y[:, :, t] * y[:, :, u]  # (n, r_max, n_pairs)
        y_mean = y.mean(axis=0)
        prod_mean = prod.mean(axis=0)
        cov = prod_mean - y_mean[:, t] * y_mean[:, u]
        stderr = np.sqrt(((prod * prod).mean(axis=0) - prod_mean**2) / n)
        np.testing.assert_allclose(agg.y_mean, y_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(agg.y_cov, cov, rtol=1e-12, atol=0)
        np.testing.assert_allclose(agg.y_cov_stderr, stderr, rtol=1e-12, atol=0)


def test_probe_memory_is_bounded_by_blocks():
    # a batch holds one block of noise; the probes add O(r_max B) per
    # block, not a second (r_max, T, B) output buffer
    gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 12, 200))
    batch = 5_000
    batch_noise = 12 * 201 * batch * 8  # what one whole-batch sweep held: 96 MB
    tracemalloc.start()
    try:
        sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", batch, 1,
                            batch_size=batch, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sim._BLOCK_BUDGET < batch_noise / 3, peak


def test_batches_leave_no_reference_cycles():
    # a reference cycle through a batch's closures keeps its noise buffer
    # and captures alive until the cyclic collector runs, which may be many
    # batches later
    gains = sim.precompute_gains(solve_grid(CH10, PacketStreamBoundary(2, 2), 4, 9))
    source, spec = sim.PacketStreamSource(2, 2), sim.DecodeSpec("stream", 2, 2)
    gc.collect()
    gc.disable()
    try:
        sim.run_monte_carlo(gains, source, "gaussian", 3_000, 1, threads=1)
        sim.run_decoding_monte_carlo(gains, source, "gaussian", 3_000, 1, [(2, 3)], spec,
                                     threads=1)
        sim.run_trial(gains, source, "gaussian", 1, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _words(seed, count, n_words):
    """(n_words, count) uniform raw words: ``draw_batch`` is a function of its words alone.

    Trial b's words are those drawn as row b of a (count, n_words) array.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=(count, n_words), dtype=np.uint64).T.copy()


class TestSources:
    def test_known_sample_unit_variance(self):
        batch = sim.KnownSampleSource().draw_batch(_words(3, 20_000, 1), 2)
        assert abs(batch.s.mean()) < 0.02
        assert batch.s.var() == pytest.approx(1.0, abs=0.02)
        assert (batch.shat0 == batch.s).all()

    def test_packet_stream_staircase_example(self):
        # all-zero packet of 4 bits over T=4: Shat_0(0..3) = sqrt3 * 15/16
        src = sim.PacketStreamSource(packet_bits=4, period=4)
        batch = src.draw_batch(np.zeros((16, 1), dtype=np.uint64), 7)
        expected = math.sqrt(3.0) * 15.0 / 16.0
        assert np.allclose(batch.shat0[:4, 0], expected, rtol=1e-15)
        # after the second packet the estimate deepens to 8 bits
        assert batch.shat0[4, 0] == pytest.approx(math.sqrt(3.0) * 255.0 / 256.0, rel=1e-15)

    def test_packet_stream_prefix_consistency(self):
        src = sim.PacketStreamSource(packet_bits=2, period=3)
        batch = src.draw_batch(_words(8, 16, 16), 9)
        for t in (0, 2, 3, 8, 9):
            depth = 2 * (t // 3 + 1)
            for b in range(16):
                want = pam.encode(batch.bits[:, b], depth)
                assert batch.shat0[t, b] == pytest.approx(want, rel=1e-12)

    def test_single_packet_source_constant(self):
        src = sim.SinglePacketSource(packet_bits=3)
        batch = src.draw_batch(_words(4, 64, 2), 5)
        assert (batch.shat0 == batch.s).all()
        for b in range(64):
            assert batch.s[b] == pytest.approx(pam.encode(batch.bits[:, b]), rel=1e-14)

    @pytest.mark.parametrize("count", [1, 128, 1_985])
    def test_single_packet_sums_each_trial_as_one_contiguous_row(self, count):
        # numpy sums a contiguous row of 8 or more values in 8 lanes, so at
        # psi = 11 a sum down the columns of the (psi, trials) terms rounds
        # differently; the single-packet bytes rest on the row order
        batch = sim.SinglePacketSource(11).draw_batch(_words(11, count, 6), 3)
        w = pam.SQRT3 * np.exp2(-(np.arange(11) + 1.0))
        rows = np.ascontiguousarray((1.0 - 2.0 * batch.bits.T) * w)
        assert rows.shape == (count, 11)
        assert _same_bits(batch.s, rows.sum(axis=1))

    def test_refinement_split_plan_realizes_exact_mse(self):
        # analytic check: the partition MSE factorizes over split rounds
        for rate in (0.2, math.log(2.0), 1.0, 1.7):
            plan = sim._refinement_split_plan(rate)
            factor = 1.0
            for rho in plan:
                factor *= rho**3 + (1 - rho) ** 3
            assert factor == pytest.approx(math.exp(-2 * rate), rel=1e-12)

    def test_refinement_estimates_track_cell_means(self):
        src = sim.RefinementSource(rate_nats=0.6)
        batch = src.draw_batch(_words(5, 40_000, 1), 6)
        emp = np.mean((batch.s - batch.shat0) ** 2, axis=1)
        want = np.exp(-2 * 0.6 * (np.arange(7) + 1))
        se = np.sqrt(np.var((batch.s - batch.shat0) ** 2, axis=1) / 40_000)
        assert (np.abs(emp - want) <= 4 * se).all()

    def test_refinement_is_markov_coarsening(self):
        src = sim.RefinementSource(rate_nats=0.8)
        batch = src.draw_batch(_words(6, 2_000, 1), 5)
        # same estimate at step t implies same estimate at every earlier step
        order = np.lexsort((batch.shat0[3],))
        sh = batch.shat0.T[order]
        same_late = np.diff(sh[:, 3]) == 0
        for col in (0, 1, 2):
            diffs = np.diff(sh[:, col])
            assert (np.abs(diffs[same_late]) == 0).all()

    def test_custom_refinement_profile_hits_targets(self):
        profile = (0.4, 0.4, 0.07, 0.02, 0.02, 0.004)
        src = sim.CustomRefinementSource(profile)
        batch = src.draw_batch(_words(9, 40_000, 1), 5)
        sq = (batch.s - batch.shat0) ** 2
        emp = sq.mean(axis=1)
        se = np.sqrt(sq.var(axis=1) / 40_000)
        assert (np.abs(emp - np.array(profile)) <= 4 * se).all()

    def test_custom_refinement_consistent_with_lattice(self):
        profile = tuple(float(x) for x in np.exp(-0.9 * (np.arange(9) + 1)))
        src = sim.CustomRefinementSource(profile)
        grid = solve_grid(CH10, src.boundary(), 4, 8)
        gains = sim.precompute_gains(grid)
        agg = sim.run_monte_carlo(gains, src, "gaussian", 30_000, 5)
        z = (agg.mse_mean - grid.values[:, 1:]) / np.where(
            agg.mse_stderr > 0, agg.mse_stderr, np.inf
        )
        assert np.abs(z).max() <= 4.0

    def test_refinement_rate_needs_a_normal_step_factor(self):
        # exp(-2R) falls below the smallest normal double past R = 354.198...
        for rate in (354.2, 355.0, 400.0):
            with pytest.raises(ValueError, match="too high for a refinement source"):
                sim.RefinementSource(rate)
        batch = sim.RefinementSource(354.19).draw_batch(_words(3, 100, 1), 2)
        assert np.isfinite(batch.shat0).all()
        for rate in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rate_nats must be positive"):
                sim.RefinementSource(rate)

    def test_custom_refinement_validation(self):
        with pytest.raises(ValueError):
            sim.CustomRefinementSource((0.5, 0.6))  # not monotone
        with pytest.raises(ValueError):
            sim.CustomRefinementSource((0.5, 1.5))  # outside [0, 1]
        with pytest.raises(ValueError, match=r"boundary values must lie in \[0, 1\]"):
            sim.CustomRefinementSource((0.5, float("nan")))
        short = sim.CustomRefinementSource((0.5, 0.25))
        with pytest.raises(ValueError):
            short.draw_batch(_words(0, 1, 1), t_max=5)


class TestStreamingMonteCarlo:
    def test_packet_stream_mse_matches_staircase_grid(self):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 6, 12)
        gains = sim.precompute_gains(grid)
        agg = sim.run_monte_carlo(
            gains, sim.PacketStreamSource(2, 2), "gaussian", 30_000, 5
        )
        z = (agg.mse_mean - grid.values[:, 1:]) / np.where(
            agg.mse_stderr > 0, agg.mse_stderr, np.inf
        )
        assert np.abs(z).max() <= 4.0

    def test_refined_source_mse_matches_refinement_grid(self):
        grid = solve_grid(CH10, ExponentialRefinementBoundary(0.5), 5, 12)
        gains = sim.precompute_gains(grid)
        agg = sim.run_monte_carlo(gains, sim.RefinementSource(0.5), "gaussian", 30_000, 5)
        z = (agg.mse_mean - grid.values[:, 1:]) / np.where(
            agg.mse_stderr > 0, agg.mse_stderr, np.inf
        )
        assert np.abs(z).max() <= 4.0

    def test_single_packet_mse_bounded_by_lattice(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 4, 10)
        gains = sim.precompute_gains(grid)
        agg = sim.run_monte_carlo(gains, sim.SinglePacketSource(2), "gaussian", 30_000, 5)
        slack = agg.mse_mean[1:] - grid.values[1:, 1:]
        assert (slack <= 3 * agg.mse_stderr[1:]).all()


class TestDecodingMonteCarlo:
    def test_packet_decode_counts(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 3)
        gains = sim.precompute_gains(grid)
        cells = [(2, 2), (3, 3)]
        stats, second = sim.run_decoding_monte_carlo(
            gains,
            sim.SinglePacketSource(2),
            "gaussian",
            5_000,
            9,
            cells,
            sim.DecodeSpec(kind="packet", packet_bits=2),
            threads=2,
        )
        assert second is None
        assert set(stats.cells.keys()) == {(2, 2), (3, 3)}
        for cell in stats.cells.values():
            assert cell.n_trials == 5_000
        # deeper relay at later time decodes strictly better here
        assert (
            stats.cells[(3, 3)].packet_errors <= stats.cells[(2, 2)].packet_errors
        )

    def test_deterministic_across_threads(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 3)
        gains = sim.precompute_gains(grid)
        spec = sim.DecodeSpec(kind="packet", packet_bits=2)
        kw = dict(noise_kind="gaussian", num_trials=4_000, master_seed=3)
        a, _ = sim.run_decoding_monte_carlo(
            gains, sim.SinglePacketSource(2), kw["noise_kind"], kw["num_trials"],
            kw["master_seed"], [(2, 2)], spec, threads=1,
        )
        b, _ = sim.run_decoding_monte_carlo(
            gains, sim.SinglePacketSource(2), kw["noise_kind"], kw["num_trials"],
            kw["master_seed"], [(2, 2)], spec, threads=5,
        )
        assert list(a.rows()) == list(b.rows())

    def test_stream_decode_delta_keys(self):
        grid = solve_grid(CH10, PacketStreamBoundary(2, 2), 4, 8)
        gains = sim.precompute_gains(grid)
        stats, _ = sim.run_decoding_monte_carlo(
            gains,
            sim.PacketStreamSource(2, 2),
            "gaussian",
            2_000,
            11,
            [(4, 5)],
            sim.DecodeSpec(kind="stream", packet_bits=2, period=2),
        )
        # packets 0, 1, 2 observed at delays 5, 3, 1
        assert set(stats.cells.keys()) == {(4, 5), (4, 3), (4, 1)}

    def test_dithered_runs_both_decoders(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 3, 3)
        gains = sim.precompute_gains(grid)
        alpha = sim.coefficient_trial(gains)
        cells = [(2, 2)]
        spec = sim.DecodeSpec(
            kind="packet_dithered",
            packet_bits=12,
            decode_bits_n=2,
            alphas=np.array([alpha[2, 2]]),
        )
        dith, plain = sim.run_decoding_monte_carlo(
            gains, sim.SinglePacketSource(12), "gaussian", 3_000, 13, cells, spec
        )
        assert plain is not None
        assert dith.cells[(2, 2)].n_trials == 3_000
        assert plain.cells[(2, 2)].n_trials == 3_000
        # dither adds noise, so the dithered decoder cannot beat the slicer by much
        assert dith.cells[(2, 2)].prefix_errors >= plain.cells[(2, 2)].prefix_errors

    @pytest.mark.parametrize("source", [sim.SinglePacketSource(2), sim.PacketStreamSource(2, 2)])
    def test_packet_is_stream_with_one_packet_per_lattice(self, source):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 3))
        cells = [(1, 1), (2, 2), (3, 3), (3, 0)]

        def rows(spec):
            primary, secondary = sim.run_decoding_monte_carlo(
                gains, source, "uniform", 2_500, 9, cells, spec, batch_size=1_000, threads=1
            )
            assert secondary is None
            return list(primary.rows())

        packet = rows(sim.DecodeSpec("packet", 2))
        assert packet == rows(sim.DecodeSpec("stream", 2, gains.t_max + 1))
        assert [row[:2] for row in packet] == sorted(cells)

    def test_capture_cell_validation(self):
        grid = solve_grid(CH10, SingleSampleBoundary(), 2, 2)
        gains = sim.precompute_gains(grid)
        with pytest.raises(ValueError):
            sim.run_decoding_monte_carlo(
                gains,
                sim.SinglePacketSource(2),
                "gaussian",
                100,
                0,
                [(5, 1)],
                sim.DecodeSpec(kind="packet", packet_bits=2),
            )


class TestUndecodableSource:
    """A source with fewer bits than the deepest capture cell decodes is
    refused by name before any trial, and before any noise is drawn."""

    @pytest.mark.parametrize("source, spec, cell, message", [
        (sim.KnownSampleSource(), sim.DecodeSpec("packet", 2), (2, 1),
         "KnownSampleSource(value=None) draws 0 bits per trial, "
         "but the deepest capture cell decodes 2"),
        (sim.RefinementSource(0.5), sim.DecodeSpec("stream", 2, 2), (2, 3),
         "RefinementSource(rate_nats=0.5) draws 0 bits per trial, "
         "but the deepest capture cell decodes 4"),
        (sim.SinglePacketSource(2), sim.DecodeSpec("stream", 2, 2), (2, 5),
         "SinglePacketSource(packet_bits=2) draws 2 bits per trial, "
         "but the deepest capture cell decodes 6"),
    ])
    def test_refused_before_any_noise(self, source, spec, cell, message, monkeypatch):
        gains = sim.precompute_gains(solve_grid(CH10, source.boundary(), 3, 6))
        drawn = []
        monkeypatch.setattr(sim, "draw_noise", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.run_decoding_monte_carlo(gains, source, "gaussian", 100, 0, [(2, 0), cell], spec,
                                         threads=1)
        assert drawn == []

    def test_enough_bits_still_decode(self):
        # the packet decode reads the one packet at every cell, however late
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 6))
        stats, _ = sim.run_decoding_monte_carlo(gains, sim.SinglePacketSource(2), "gaussian", 100,
                                                0, [(2, 5)], sim.DecodeSpec("packet", 2), threads=1)
        assert stats.cells[(2, 5)].n_trials == 100


class TestBadDecodeSpec:
    """A ``DecodeSpec`` checks its own fields on construction and names the bad one."""

    @pytest.mark.parametrize("args,kwargs,field", [
        (("bogus", 2), {}, "kind"),
        (("stream", 0, 2), {}, "packet_bits"),
        (("packet", -1), {}, "packet_bits"),
        (("stream", 2, 0), {}, "period"),
        (("stream", 2, -1), {}, "period"),
        (("packet_dithered", 3), {"alphas": np.array([0.5])}, "decode_bits_n"),
        (("packet_dithered", 3), {"decode_bits_n": 0, "alphas": np.array([0.5])},
         "decode_bits_n"),
        (("packet_dithered", 3), {"decode_bits_n": 3}, "alphas"),
    ])
    def test_rejected_on_construction(self, args, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            sim.DecodeSpec(*args, **kwargs)

    def test_alphas_hold_one_entry_per_capture_cell(self):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 3))
        spec = sim.DecodeSpec("packet_dithered", 3, decode_bits_n=3, alphas=np.array([0.5]))
        with pytest.raises(ValueError, match=r"^alphas must hold one entry per capture cell"):
            sim.run_decoding_monte_carlo(gains, sim.SinglePacketSource(3), "gaussian", 100, 0,
                                         [(2, 2), (3, 3)], spec, threads=1)


class TestBadMonteCarloArguments:
    """Both drivers reject a trial count or batch size below 1, naming the argument."""

    @pytest.mark.parametrize("num_trials,batch_size,name", [
        (0, 100, "num_trials"), (-3, 100, "num_trials"),
        (100, 0, "batch_size"), (100, -5, "batch_size"),
    ])
    @pytest.mark.parametrize("driver", ["moments", "decoding"])
    def test_rejected(self, driver, num_trials, batch_size, name):
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 2, 2))
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            if driver == "moments":
                sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", num_trials, 0,
                                    batch_size=batch_size, threads=1)
            else:
                sim.run_decoding_monte_carlo(gains, sim.SinglePacketSource(2), "gaussian",
                                             num_trials, 0, [(2, 2)],
                                             sim.DecodeSpec("packet", 2),
                                             batch_size=batch_size, threads=1)


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CASCADE_IV_THREADS", "9")
        assert sim.resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CASCADE_IV_THREADS", "5")
        assert sim.resolve_threads(None) == 5

    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("CASCADE_IV_THREADS", raising=False)
        assert sim.resolve_threads(None) == 1

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("CASCADE_IV_THREADS", "abc")
        with pytest.raises(ValueError, match=r"^CASCADE_IV_THREADS must be an integer, got 'abc'$"):
            sim.resolve_threads(None)


class TestWorkerProcesses:
    """Batches run in forked worker processes, which never outlive the call."""

    @staticmethod
    def _broken_gains():
        gains = sim.precompute_gains(solve_grid(CH10, SingleSampleBoundary(), 3, 4))
        beta = gains.beta.copy()
        beta[1, 2] = math.inf
        return sim.GainTable(
            channel=gains.channel, r_max=gains.r_max, t_max=gains.t_max,
            beta=beta, gamma=gains.gamma, silent=gains.silent, grid=gains.grid,
        )

    def test_worker_exception_reaches_caller(self):
        broken = self._broken_gains()
        with pytest.raises(FloatingPointError, match=r"r=2, t=2"):
            sim.run_monte_carlo(broken, sim.KnownSampleSource(), "gaussian", 200, 1,
                                batch_size=100, threads=2)
        with pytest.raises(FloatingPointError, match=r"r=2, t=2"):
            sim.run_decoding_monte_carlo(broken, sim.SinglePacketSource(2), "gaussian", 200, 1,
                                         [(2, 2)], sim.DecodeSpec("packet", 2),
                                         batch_size=100, threads=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_call(self, small_gains):
        sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 3_000, 5,
                            batch_size=1_000, threads=3)
        assert multiprocessing.active_children() == []

    def test_worker_count_capped_by_batches(self, small_gains, monkeypatch):
        seen = []

        class RecordingPool:
            """Records the pool size and runs each batch in this process."""

            def __init__(self, max_workers, mp_context):
                seen.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

            def shutdown(self, **kwargs):
                pass

        want = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 2_500, 5,
                                   batch_size=1_000, threads=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("CASCADE_IV_THREADS", "1000000")
        got = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 2_500, 5,
                                  batch_size=1_000)
        # three workers for three batches: the caller and two forked children
        assert seen == [(2, "fork")]
        assert _aggregate_digest(got) == _aggregate_digest(want)

        gains, source, noise, seed, cells, spec = TestRegressionPins._decode_case("packet")
        primary, _ = sim.run_decoding_monte_carlo(gains, source, noise, 2_500, seed, cells, spec,
                                                  batch_size=1_000)
        assert seen[1:] == [(2, "fork")]
        assert _rows_digest(primary) == TestRegressionPins.PINNED_ROWS["packet"][0]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_child_failure_reaches_the_working_caller(self, small_gains, threads):
        # batch 0 runs in the caller and succeeds; batch 1 runs in a child and
        # fails.  At threads=2 the caller's batch 2 fails too, and the lower
        # index wins.
        refusing = _RefusesFromTrial(1_000)
        with pytest.raises(ValueError, match=r"^trial 1000 refused$"):
            sim.run_monte_carlo(small_gains, refusing, "gaussian", 3_000, 5,
                                batch_size=1_000, threads=threads)
        with pytest.raises(ValueError, match=r"^trial 1000 refused$"):
            sim.run_decoding_monte_carlo(small_gains, refusing, "gaussian", 3_000, 5,
                                         [(2, 3)], sim.DecodeSpec("packet", 2),
                                         batch_size=1_000, threads=threads)
        assert multiprocessing.active_children() == []

    def test_caller_failure_wins_over_later_child_failures(self, small_gains):
        # every batch fails; batch 0 is the caller's own
        with pytest.raises(ValueError, match=r"^trial 0 refused$"):
            sim.run_monte_carlo(small_gains, _RefusesFromTrial(0), "gaussian", 3_000, 5,
                                batch_size=1_000, threads=3)
        assert multiprocessing.active_children() == []

    def test_results_identical_for_any_worker_count(self, small_gains):
        gains, source, noise, seed, cells, spec = TestRegressionPins._decode_case("stream")
        digests = set()
        for threads in (1, 2, 3, 4):
            agg = sim.run_monte_carlo(small_gains, sim.KnownSampleSource(), "gaussian", 2_500, 5,
                                      batch_size=500, threads=threads)
            primary, _ = sim.run_decoding_monte_carlo(gains, source, noise, 2_500, seed, cells,
                                                      spec, batch_size=500, threads=threads)
            digests.add((_aggregate_digest(agg), _rows_digest(primary)))
        assert len(digests) == 1
        assert digests.pop()[1] == TestRegressionPins.PINNED_ROWS["stream"][0]
        assert multiprocessing.active_children() == []


@functools.cache
def _first_words(seed, count):
    """The first raw word of each trial 0..count-1's stream, mapped to its trial."""
    return {int(sim.trial_generator(seed, i).bit_generator.random_raw()): i for i in range(count)}


@dataclasses.dataclass(frozen=True)
class _RefusesFromTrial:
    """A known source of 0.5, with two zero packet bits, that raises on any
    trial at or after ``first``.

    It tells each trial by the first word of its stream (seed 5, trials
    below 3,000), which it reads as its source draw; any other word, such
    as the all-zero probe of its bit depth, is no trial.
    """

    first: int

    def boundary(self):
        return SingleSampleBoundary()

    def halves(self, t_max):
        return 2

    def draw_batch(self, words, t_max):
        trials = [_first_words(5, 3_000).get(int(w), -1) for w in words[0]]
        refused = [trial for trial in trials if trial >= self.first]
        if refused:
            raise ValueError(f"trial {min(refused)} refused")
        bits = np.zeros((2, words.shape[1]), dtype=np.int8)
        return dataclasses.replace(sim.KnownSampleSource(0.5).draw_batch(words, t_max), bits=bits)
