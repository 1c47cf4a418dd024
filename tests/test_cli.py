import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from cascade_iv import _table, cli, config
from cascade_iv import mse as mse_mod
from cascade_iv import simulate as sim
from cascade_iv.config import ExperimentConfig
from cascade_iv.params import HopConvention, make_channel_params


def run_cli(args, tmp_path, env_extra=None):
    env = dict(os.environ)
    env.setdefault("CASCADE_IV_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cascade_iv.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


class TestConfig:
    def test_round_trip_byte_identical(self):
        cfg = ExperimentConfig(
            scheme="packet_stream",
            snr=10.0,
            packet_bits=2,
            period=2,
            velocities=(0.5, 0.875),
            num_trials=1000,
        )
        text = cfg.to_text()
        again = ExperimentConfig.from_text(text)
        assert again == cfg
        assert again.to_text() == text

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(scheme="refined_source", rate_nats=0.5, t_max=7)
        path = tmp_path / "cfg.txt"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_comments_and_blank_lines_ignored(self):
        text = "[experiment]\n# a comment\n\nscheme = single_sample\nsnr = 2\n"
        cfg = ExperimentConfig.from_text(text)
        assert cfg.snr == 2.0

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("scheme = single_sample\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("[experiment]\nwarp = 9\n")

    def test_repeated_key_rejected(self, tmp_path, capsys):
        text = "[experiment]\nmaster_seed = 3\nsnr = 2\nmaster_seed = 4\n"
        with pytest.raises(ValueError, match=r"^line 4: config key 'master_seed' already set on line 2$"):
            ExperimentConfig.from_text(text)
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text(text)
        assert cli.main(["mse", "--config", str(cfg), "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.err == "error: line 4: config key 'master_seed' already set on line 2\n"
        assert printed.out == "" and not out.exists()

    def test_packet_stream_requires_structure(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="packet_stream")

    def test_single_packet_requires_bits(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="single_packet")

    def test_refined_source_requires_rate(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="refined_source")

    @pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="^rate_nats must be positive and finite$"):
            ExperimentConfig(scheme="refined_source", rate_nats=float(rate))

    def test_velocities_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(velocities=(0.5, -1.0))

    def test_master_seed_must_be_unsigned_64_bit(self):
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                ExperimentConfig(master_seed=bad)
        assert ExperimentConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1
        text = ExperimentConfig(master_seed=2**64 - 1).to_text()
        assert ExperimentConfig.from_text(text).master_seed == 2**64 - 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_flag_is_a_usage_error(self, seed, tmp_path, capsys):
        code = cli.main(["simulate", "--seed", seed, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: master_seed") and err.count("\n") == 1, err

    def test_bad_scheme_and_noise(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="smoke_signals")
        with pytest.raises(ValueError):
            ExperimentConfig(noise="pink")


class TestTables:
    """The command table and the scheme table are the only place their names are read."""

    MINIMAL = {
        "single_sample": ({}, sim.KnownSampleSource()),
        "single_packet": ({"packet_bits": 3}, sim.SinglePacketSource(3)),
        "refined_source": ({"rate_nats": 0.5}, sim.RefinementSource(0.5)),
        "packet_stream": ({"packet_bits": 2, "period": 3}, sim.PacketStreamSource(2, 3)),
    }
    MISSING = [
        ("single_packet", {}, "single_packet requires packet_bits"),
        ("refined_source", {}, "refined_source requires rate_nats"),
        ("packet_stream", {}, "packet_stream requires packet_bits and period"),
        ("packet_stream", {"packet_bits": 2}, "packet_stream requires packet_bits and period"),
        ("packet_stream", {"period": 2}, "packet_stream requires packet_bits and period"),
    ]

    @staticmethod
    def subparsers():
        (action,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    @pytest.mark.parametrize("scheme", list(MINIMAL))
    def test_scheme_builds_its_source(self, scheme):
        keys, source = self.MINIMAL[scheme]
        built = cli._source_for(ExperimentConfig(scheme=scheme, **keys))
        assert type(built) is type(source) and built == source
        assert list(config.SCHEMES) == list(self.MINIMAL)

    @pytest.mark.parametrize("scheme, keys, message", MISSING)
    def test_missing_key_message(self, scheme, keys, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(scheme=scheme, **keys)

    def test_subparsers_are_the_command_table(self):
        assert list(self.subparsers()) == list(cli._COMMANDS) == [
            "exponents", "iv", "mse", "simulate", "packet", "stream", "verify"]

    def test_convention_choices_are_the_hop_conventions(self):
        values = tuple(c.value for c in HopConvention)
        assert config.CONVENTIONS == values == ("inst", "delayed")
        for parser in self.subparsers().values():
            (action,) = [a for a in parser._actions if a.dest == "convention"]
            assert tuple(action.choices) == values


class TestExponentsCommand:
    def test_es_equals_e1_above_capacity(self, tmp_path):
        cfg = ExperimentConfig(rate_nats=1.3, out_dir=str(tmp_path))
        (path,) = cli.cmd_exponents(cfg, str(tmp_path))
        lines = open(path).read().splitlines()
        assert lines[0] == "v,exponent,kind,convention"
        e1 = {}
        es = {}
        for ln in lines[1:]:
            v, val, kind, _ = ln.split(",")
            if kind == "E1":
                e1[v] = val
            else:
                es[v] = val
        assert e1 == es  # identical strings, not merely close

    def test_default_family_and_monotonicity(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        (path,) = cli.cmd_exponents(cfg, str(tmp_path))
        lines = open(path).read().splitlines()[1:]
        kinds = {ln.split(",")[2] for ln in lines}
        assert kinds == {"E1", "ES(R=0.1)", "ES(R=0.5)", "ES(R=1.0)", "ES(R=1.3)"}
        by_kind = {}
        for ln in lines:
            v, val, kind, _ = ln.split(",")
            by_kind.setdefault(kind, []).append(float(val))
        for kind, vals in by_kind.items():
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), kind

    def test_junction_continuity_in_output(self, tmp_path):
        ch = cli.make_channel_params(10.0)
        vb = 7.0 / 4.0  # (1-eta)/eta at R = ln 2
        cfg = ExperimentConfig(
            rate_nats=math.log(2.0),
            velocities=(vb * (1 - 1e-12), vb, vb * (1 + 1e-12)),
            out_dir=str(tmp_path),
        )
        (path,) = cli.cmd_exponents(cfg, str(tmp_path))
        es_vals = [
            float(ln.split(",")[1])
            for ln in open(path).read().splitlines()[1:]
            if ln.split(",")[2].startswith("ES")
        ]
        assert max(es_vals) - min(es_vals) <= 1e-9


class TestIvCommand:
    def test_endpoints_and_low_snr_linearity(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        (path,) = cli.cmd_iv(cfg, str(tmp_path))
        rows = [ln.split(",") for ln in open(path).read().splitlines()[1:]]
        by_p = {}
        for p, x, rate, iv, ratio, ref in rows:
            by_p.setdefault(float(p), []).append((float(x), float(iv), float(ratio), float(ref)))
        for p, entries in by_p.items():
            assert entries[0][2] == 1.0  # V(0)/P == 1
            assert entries[-1][1] == 0.0  # V(C) == 0
        low = by_p[0.1]
        # P = 0.01 is checked in acceptance; here the P = 0.1 curve is within 20%
        for x, _, ratio, ref in low:
            if x < 1.0:
                assert ratio / ref == pytest.approx(1.0, abs=0.2)


class TestMseCommand:
    def test_single_sample_discrepancy(self, tmp_path):
        cfg = ExperimentConfig(r_max=30, t_max=40, out_dir=str(tmp_path))
        paths = cli.cmd_mse(cfg, str(tmp_path))
        summary = [p for p in paths if p.endswith("mse_summary.csv")][0]
        max_rel = float(open(summary).read().splitlines()[1])
        assert max_rel <= 1e-9
        main = [p for p in paths if p.endswith("mse.csv")][0]
        first = open(main).read().splitlines()
        assert first[0] == "r,t,mse_dp,mse_closed,rel_discrepancy"
        # M_r(0) column: first row is r=1, t=0
        r1t0 = first[1].split(",")
        assert float(r1t0[2]) == pytest.approx(1 - 10.0 / 11.0, rel=1e-12)

    def test_refined_source_discrepancy(self, tmp_path):
        cfg = ExperimentConfig(
            scheme="refined_source", rate_nats=0.5, r_max=25, t_max=30, out_dir=str(tmp_path)
        )
        paths = cli.cmd_mse(cfg, str(tmp_path))
        summary = [p for p in paths if p.endswith("mse_summary.csv")][0]
        assert float(open(summary).read().splitlines()[1]) <= 1e-9

    def test_packet_stream_staircase_column(self, tmp_path):
        cfg = ExperimentConfig(
            scheme="packet_stream", packet_bits=2, period=2, r_max=3, t_max=7,
            out_dir=str(tmp_path),
        )
        paths = cli.cmd_mse(cfg, str(tmp_path))
        main = [p for p in paths if p.endswith("mse.csv")][0]
        rows = [ln.split(",") for ln in open(main).read().splitlines()[1:]]
        for r, t, _, stair in rows:
            want = 2.0 ** (-4 * (int(t) // 2 + 1))
            assert float(stair) == want

    def test_summary_propagates_nan(self, tmp_path, monkeypatch):
        real = mse_mod.log_closed_form_single_grid

        def with_nan(channel, r_max, t_max):
            out = real(channel, r_max, t_max)
            out[2, 3] = np.nan
            return out

        monkeypatch.setattr(mse_mod, "log_closed_form_single_grid", with_nan)
        cfg = ExperimentConfig(r_max=4, t_max=6, out_dir=str(tmp_path))
        cli.cmd_mse(cfg, str(tmp_path))
        summary = (tmp_path / "mse_summary.csv").read_text().splitlines()
        assert summary == ["max_rel_discrepancy", "nan"]
        rows = (tmp_path / "mse.csv").read_text().splitlines()
        assert rows[1 + 1 * 7 + 3].split(",")[3:] == ["nan", "nan"]


class TestMseBytePins:
    """sha256 of every file ``cmd_mse`` writes, recorded before it was vectorised.

    The closed-form columns of the three closed-form schemes were re-recorded
    when the log-binomials moved from SciPy's ``gammaln`` to the log-factorial
    table of ``mse``, which lies closer to 50-digit mpmath
    (``tests/test_mse.py::TestMpmathReference``).  The 30x400 single-sample and single-packet lattices reach cells that
    underflow to exactly 0 and cells below ``UNDERFLOW_LINEAR`` compared in
    the log domain; the 200x200 files span more than one formatting block.
    """

    SCHEMES = {
        "single_sample": {},
        "single_packet": {"packet_bits": 3},
        "refined_source": {"rate_nats": 0.5},
        "packet_stream": {"packet_bits": 2, "period": 3},
    }
    SHAPES = [(10.0, 1, 0), (0.7, 12, 35), (10.0, 30, 400), (10.0, 200, 200)]
    PINNED = {
        "packet_stream-0.7-12x35": {
            "mse.csv": "e3a22d8b1b9d4ebf28379a785842ee897fe729a2dc59cf8e70be3a5db70a06c5",
            "mse_grid.csv": "bddb4d748e8e2b46cfdfff93d3c6673850cbfcb77db01a2f359baa408aff9c11",
        },
        "packet_stream-10.0-1x0": {
            "mse.csv": "ac6ad8181dab50165242a25667a4ad62cf8862b24205b03724080bc522909a9c",
            "mse_grid.csv": "a9486301ebaeaceacdc7c49ec19d945504ca0ce01533c6803053c7b3478b129d",
        },
        "packet_stream-10.0-200x200": {
            "mse.csv": "d9948bb076209535a0bde9da361d1fc07b10109667b3fde3d5ed4830f1c936a5",
            "mse_grid.csv": "4a6f869219477268d29bd12f0bfc933aa8039f882130aa45ba62ca877a9915d2",
        },
        "packet_stream-10.0-30x400": {
            "mse.csv": "81db956f75195b7a8382bd1af55c192d45a7a2e1e55703cba14fec6f23d05de0",
            "mse_grid.csv": "19e016983bf15318064a27d8a61dca07cdfe09656179dfb4b11f68b8d29e1045",
        },
        "refined_source-0.7-12x35": {
            "mse.csv": "1bf4724f6a34158c02d0d08740c7d523227cdab2cb64cce238e1f0b7583e3da7",
            "mse_grid.csv": "c4f711be178c58a66c7c8895859c91606f68e5d04af6c40cbb1c944c0204378d",
            "mse_summary.csv": "50e3a5c65ff966de80645a64cba10ec16ba1098793038bb3727bf19ce3915b52",
        },
        "refined_source-10.0-1x0": {
            "mse.csv": "d2f37b61a663926f9c6425884823ac7147fbbc193a9fcca815d2b4a689961b83",
            "mse_grid.csv": "58949e14124e61b23b2844e9b08526f2ff538a272d3116fe10fc0d662ea028ac",
            "mse_summary.csv": "816a152d29dc25fd5d7f270064056589ee9c846d65ec413b2975a1759c188e33",
        },
        "refined_source-10.0-200x200": {
            "mse.csv": "9a6760023d8b780050fa00d954e74355b5fa4c9c2ead8137bfb62d4308066a38",
            "mse_grid.csv": "1ee452101a911f3fb69a112818b728e4e3a615ac4c5bd0017bfa7d164886daa0",
            "mse_summary.csv": "5fe8ff981985babcc1ae964325f11e0445d8500f73cf08f9eb2622ee5686edfd",
        },
        "refined_source-10.0-30x400": {
            "mse.csv": "456a0c31bba53593692791803f6b7e8a5e63af1735b4274782edc3e80f9f5e00",
            "mse_grid.csv": "deac433d4d89d86d1a896aa3eddb91bbfda9d7bdf68506f7373db1e33b02c1a3",
            "mse_summary.csv": "e651dea671d8027814ba3f5179a5d4ed6d81d54cdc5921f7637eee5f240107d6",
        },
        "single_packet-0.7-12x35": {
            "mse.csv": "65ae46349f5eba4bd8a1610630f205c919fe72a632031ac566c6c230af39e89a",
            "mse_grid.csv": "eb5f9062425b13d395e9ddd795828d81cecf63e418c1e55c89a5d4167ae1dcfc",
            "mse_summary.csv": "bf5719cabe2af7bb81acb8a3598d68cfc4e0139a0675baf700a8eefe7157803f",
        },
        "single_packet-10.0-1x0": {
            "mse.csv": "d2f88c67401cdc8a548350a057116228c8f48106adfc1d3308a41dbbc50f0f1f",
            "mse_grid.csv": "81ae1f34db62fde72a8881580d7abb797bacb5808b8e51234815e249a6c09ff1",
            "mse_summary.csv": "3298fb64e767e3ba25d489e224d9fe206bc1f139bb7c7c9d09da3ef17afeacee",
        },
        "single_packet-10.0-200x200": {
            "mse.csv": "d6c61447e60bef9adf0db2f7cf4c97bef6d4abc8d383724330c7625ec097c884",
            "mse_grid.csv": "b523848b20daa406c18a45aaa34978278877686ef0d60150b359049c2af289c8",
            "mse_summary.csv": "1f324cc56e600ed82a1ae266adea7692ba27f5cd64c5f2157547ec26585ac5d8",
        },
        "single_packet-10.0-30x400": {
            "mse.csv": "2bbe793206df82e5da31d31582e6014c307bffa7bcf5107d655bafef46cff3b1",
            "mse_grid.csv": "e0ccc1a2ae8380a3ab55b57ad6951d4b14f2befcc1f286735e0f7304da39b0ca",
            "mse_summary.csv": "03a71862310d5638654487b4a0a0503bddab1865bb5e571fca599629439e420b",
        },
        "single_sample-0.7-12x35": {
            "mse.csv": "65ae46349f5eba4bd8a1610630f205c919fe72a632031ac566c6c230af39e89a",
            "mse_grid.csv": "eb5f9062425b13d395e9ddd795828d81cecf63e418c1e55c89a5d4167ae1dcfc",
            "mse_summary.csv": "bf5719cabe2af7bb81acb8a3598d68cfc4e0139a0675baf700a8eefe7157803f",
        },
        "single_sample-10.0-1x0": {
            "mse.csv": "d2f88c67401cdc8a548350a057116228c8f48106adfc1d3308a41dbbc50f0f1f",
            "mse_grid.csv": "81ae1f34db62fde72a8881580d7abb797bacb5808b8e51234815e249a6c09ff1",
            "mse_summary.csv": "3298fb64e767e3ba25d489e224d9fe206bc1f139bb7c7c9d09da3ef17afeacee",
        },
        "single_sample-10.0-200x200": {
            "mse.csv": "d6c61447e60bef9adf0db2f7cf4c97bef6d4abc8d383724330c7625ec097c884",
            "mse_grid.csv": "b523848b20daa406c18a45aaa34978278877686ef0d60150b359049c2af289c8",
            "mse_summary.csv": "1f324cc56e600ed82a1ae266adea7692ba27f5cd64c5f2157547ec26585ac5d8",
        },
        "single_sample-10.0-30x400": {
            "mse.csv": "2bbe793206df82e5da31d31582e6014c307bffa7bcf5107d655bafef46cff3b1",
            "mse_grid.csv": "e0ccc1a2ae8380a3ab55b57ad6951d4b14f2befcc1f286735e0f7304da39b0ca",
            "mse_summary.csv": "03a71862310d5638654487b4a0a0503bddab1865bb5e571fca599629439e420b",
        },
    }

    @pytest.mark.parametrize("snr,r_max,t_max", SHAPES)
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_file_digests(self, scheme, snr, r_max, t_max, tmp_path):
        cfg = ExperimentConfig(scheme=scheme, snr=snr, r_max=r_max, t_max=t_max,
                               out_dir=str(tmp_path), **self.SCHEMES[scheme])
        paths = cli.cmd_mse(cfg, str(tmp_path))
        got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in paths}
        assert got == self.PINNED[f"{scheme}-{snr}-{r_max}x{t_max}"]

    # high and low SNR, where 1 - pbar formed by subtraction loses about
    # log10(1 + P) digits: these bytes move when it is formed otherwise
    EXTREME_SNR = {
        ("single_sample", 1e6): {
            "mse.csv": "2ee963cf53b0cc3fe59cf69b2ceba21680703bc2379fb4f7efaf26d3c6ddc2c8",
            "mse_grid.csv": "01e556c0cfcdd38e0f1b19377fe7d29a88e4bd25cc67254da61b85f6320ec4df",
            "mse_summary.csv": "b95ba21f6dae9b7c7361b442c39732fea7ad6589ef11c5b228d3ca3b7a3de014",
        },
        ("single_sample", 0.3): {
            "mse.csv": "e79b8ea52f15f75ecf7509cf5036210153a109b5fd8651c43e8d88c6cac67e2d",
            "mse_grid.csv": "7a9312bcf72835d8689322b37bc9081b51f04793b269e7c3dffaf960b761bda6",
            "mse_summary.csv": "8124825759f3fa561f2af5634c9f816ed2fb98b837954f04b37b07efa6bae659",
        },
        ("refined_source", 1e6): {
            "mse.csv": "e1add956ad97378e66a2e296a2a67c54d60582ad1b2e3967543795607544767f",
            "mse_grid.csv": "2fe2af8e56d16be9410e3ed02e9c6dab8f88007f4f555b1f86b2d486752621a8",
            "mse_summary.csv": "c43e757c1baf9d6d2c4d274b389603e110c018c7ea9ca50111a2b3c21a17ddf2",
        },
        ("refined_source", 0.3): {
            "mse.csv": "faf90eba6b1a3b7b38f0c21c2f14cef1e846c4265498978c3412ad48e7bfea28",
            "mse_grid.csv": "58147c38e6836499519aa3fa09927ac254c16dd5c675a144c83c5176a23311c1",
            "mse_summary.csv": "91ad9936634f5ead95c020db8ea5a61d7f2529422745f970fc58850257b66e4e",
        },
    }
    EXTREME_SHAPES = {"single_sample": ({}, 30, 200), "refined_source": ({"rate_nats": 0.5}, 60, 80)}

    @pytest.mark.parametrize("scheme,snr", list(EXTREME_SNR))
    def test_extreme_snr_digests(self, scheme, snr, tmp_path):
        keys, r_max, t_max = self.EXTREME_SHAPES[scheme]
        cfg = ExperimentConfig(scheme=scheme, snr=snr, r_max=r_max, t_max=t_max,
                               out_dir=str(tmp_path), **keys)
        paths = cli.cmd_mse(cfg, str(tmp_path))
        got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in paths}
        assert got == self.EXTREME_SNR[scheme, snr]


class TestMseWriter:
    """``cmd_mse`` formats each lattice value once and holds no text of the whole lattice."""

    # the 201x202 lattice once, then either mse_closed and rel_discrepancy over
    # its 200x201 cells r >= 1, t >= 0 and the one summary value, or nothing:
    # the staircase's boundary values M_0(t) are formatted by ``g17_text``
    @pytest.mark.parametrize("scheme, keys, beside", [
        ("single_sample", {}, 2 * 200 * 201 + 1),
        ("single_packet", {"packet_bits": 3}, 2 * 200 * 201 + 1),
        ("refined_source", {"rate_nats": 0.5}, 2 * 200 * 201 + 1),
        ("packet_stream", {"packet_bits": 2, "period": 3}, 0),
    ], ids=["single_sample", "single_packet", "refined_source", "packet_stream"])
    def test_formats_each_lattice_value_once(self, tmp_path, monkeypatch, scheme, keys, beside):
        sizes = []
        real = _table._format_floats

        def counting(values, out, tables):
            sizes.append(values.size)
            return real(values, out, tables)

        monkeypatch.setattr(_table, "_format_floats", counting)
        cfg = ExperimentConfig(scheme=scheme, r_max=200, t_max=200, **keys)
        cli.cmd_mse(cfg, str(tmp_path))
        assert sum(sizes) == 201 * 202 + beside

    def test_staircase_column_across_blocks(self, tmp_path):
        """Row 0 of a 3x5002 lattice spans two formatting blocks; every
        ``boundary_staircase`` cell is the text of M_0(t) in mse_grid.csv.
        M_0(5000) = 2^-1002 is the last step, none of them underflows."""
        cfg = ExperimentConfig(scheme="packet_stream", packet_bits=1, period=10, r_max=2,
                               t_max=5000)
        assert _table._BLOCK_ROWS < cfg.t_max + 2 < 2 * _table._BLOCK_ROWS
        cli.cmd_mse(cfg, str(tmp_path))
        grid = [ln.split(",") for ln in (tmp_path / "mse_grid.csv").read_text().splitlines()[1:]]
        row0 = {t: text for r, t, text in grid if r == "0" and t != "-1"}
        rows = [ln.split(",") for ln in (tmp_path / "mse.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 * 5001 and len(row0) == 5001
        assert all(stair == row0[t] for _, t, _, stair in rows)
        assert len(set(row0.values())) == 5000 // 10 + 1  # one value per period

    def test_memory_stays_near_the_arrays(self, tmp_path, monkeypatch):
        """The traced peak is the lattice and the closed-form arrays plus a few MiB.

        The text of the whole 601x602 lattice would add 11.5 MB.  All writing,
        mse.csv included, happens inside ``mse.write_grid_csv``, which may add
        at most 4 MiB to what ``cmd_mse`` holds when it calls it.
        """
        cfg = ExperimentConfig(scheme="refined_source", rate_nats=0.5, r_max=600, t_max=600)
        cli.cmd_mse(cfg, str(tmp_path))  # build the formatter's tables
        peaks, writer_growth = [], []
        real = mse_mod.write_grid_csv

        def measured(*args):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            real(*args)
            writer_growth.append(tracemalloc.get_traced_memory()[1] - current)

        monkeypatch.setattr(mse_mod, "write_grid_csv", measured)
        tracemalloc.start()
        try:
            mse_mod.log_closed_form_streaming_grid(make_channel_params(cfg.snr), 0.5, 600, 600)
            closed_form_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cli.cmd_mse(cfg, str(tmp_path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert writer_growth[0] <= 4 * 2**20, writer_growth
        assert max(peaks) <= 601 * 602 * 8 + closed_form_peak + 4 * 2**20, (peaks, closed_form_peak)


class TestOutputBytePins:
    """sha256 of the files ``iv``, ``exponents``, ``packet`` and ``stream`` write,
    and of a ``TrialResult.write_csv`` trace, recorded from the per-value
    ``%.17g`` writers before every CSV moved to one table writer.

    The packet run has empty ``loglog_diag`` cells (r = 2, 3) and censored
    ``<10/n`` rates (r = 9, 10); both stream runs have a censored worst-bit
    cell, and the two-velocity run writes the ``_v0``/``_v1`` files.
    """

    STREAM = {"scheme": "packet_stream", "packet_bits": 2, "period": 2, "r_max": 8,
              "num_trials": 2000, "master_seed": 3}
    CASES = {
        "iv-default": ("iv", {}, {
            "iv.csv": "8fe13aae9e4c686505b6fd377ea184c9064ffd6beac2e128ed6b7f2eba61a3bc",
        }),
        "iv-snr3": ("iv", {"snr": 3.0}, {
            "iv.csv": "7ba57fc1b5cd144da2f8b2e25a6bb24a2f9cb79e6564bad5981c100f3a81203a",
        }),
        "exponents-default": ("exponents", {}, {
            "exponents.csv": "d37e480df0b01c2635aa86ac46c6ed12be9792f62f461023749dae919a868bb0",
        }),
        "exponents-delayed": ("exponents", {"convention": "delayed"}, {
            "exponents.csv": "e072f02d0a1c12ac9e7743ec081f073437381d0cd2118b48a2858455a180bac2",
        }),
        "exponents-velocities-rate": ("exponents", {
            "scheme": "refined_source", "rate_nats": 0.7, "velocities": (0.05, 0.5, 2.0, 9.5, 12.0),
        }, {
            "exponents.csv": "0c3891505fcbec3821d768d3c2820f7aa46610e153c8c3770a98ab74548d6a63",
        }),
        "packet": ("packet", {
            "scheme": "single_packet", "packet_bits": 3, "snr": 3.0, "r_max": 10,
            "num_trials": 3000, "master_seed": 5,
        }, {
            "packet.csv": "59b0ebf7be3b34aa0b847b4ce4cfa5f377ca50fdd2e8937b5be62d1881cc7b28",
        }),
        "stream-one-velocity": ("stream", STREAM, {
            "stream_errors.csv": "97a49f763c9cb67bba53844a6eff6e7056e1addb78af0c277031f299d1517b56",
            "stream_bounds.csv": "57c9c0fcf21018de3cb1d3ce9b96caa374987ea7e449ebc7eab36f308cfbe59c",
        }),
        "stream-two-velocities": ("stream", {**STREAM, "velocities": (0.5, 2.0)}, {
            "stream_errors_v0.csv": "0532ec06833f6b9f004eb71c1007a8348ab9064ade0ceddda682a04a68d66305",
            "stream_bounds_v0.csv": "e5bf22b011eb3a387f22acd683bf434dcb4a8fbcaaa22ca4672c301499fb0a15",
            "stream_errors_v1.csv": "e47540c62261ff4fadc30415522a502dff7dc4ef0143cee2b96ffb2240cf61c1",
            "stream_bounds_v1.csv": "0379e297f0c8d23f8bb08619130e16c1b4b8ef9a818ad012318545357fd41cbe",
        }),
        # high and low SNR, where 1 - pbar formed by subtraction loses digits
        "exponents-snr1e6": ("exponents", {"snr": 1e6}, {
            "exponents.csv": "eb93b456acbaf4cef413fa7c715cdd7a6fd3b6352dbcdd7c33261ca3e2a4e945",
        }),
        "exponents-snr0.3": ("exponents", {"snr": 0.3}, {
            "exponents.csv": "113781af491d8ad684371e894e6318e211ecc1c7d6404f2663d382baa3edb961",
        }),
        # 44 silent hops on the decoded lattice
        "packet-silent": ("packet", {
            "scheme": "single_packet", "packet_bits": 2, "snr": 10.0, "r_max": 300,
            "num_trials": 200, "master_seed": 3,
        }, {
            "packet.csv": "b88146bfdc3c2f337b0ebae7d8e68f1be8eb2dc8f91f6e7850dc0e19b63cb826",
        }),
    }
    TRACE_SHA256 = "e681139e1d173e960db44fcf519647b61e08386ea7dc28043dd497e0ada2d0d2"

    @pytest.mark.parametrize("case", list(CASES))
    def test_file_digests(self, case, tmp_path):
        command, fields, want = self.CASES[case]
        cfg = ExperimentConfig(out_dir=str(tmp_path), **fields)
        paths = getattr(cli, f"cmd_{command}")(cfg, str(tmp_path))
        got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in paths}
        assert got == want

    def test_trial_trace_digest(self, tmp_path):
        grid = mse_mod.solve_grid(make_channel_params(10.0),
                                  mse_mod.ExponentialRefinementBoundary(0.5), 4, 9)
        trial = sim.run_trial(sim.precompute_gains(grid), sim.RefinementSource(0.5),
                              "gaussian", 11, 3)
        path = tmp_path / "trace.csv"
        trial.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TRACE_SHA256


class TestEntryPoint:
    def test_import_leaves_monte_carlo_modules_unloaded(self):
        # numpy.random, multiprocessing, concurrent.futures and statistics load on first use
        code = ("import sys, cascade_iv.cli; print(sorted(m for m in ('numpy.random', "
                "'multiprocessing', 'concurrent.futures', 'statistics') if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert cli.main(["iv", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["exponents", "--out", str(tmp_path / "b"), "--convention", "delayed"]) == 0
        assert capsys.readouterr().out.split() == [
            str(tmp_path / "a" / "iv.csv"), str(tmp_path / "b" / "exponents.csv")]
        lines = (tmp_path / "b" / "exponents.csv").read_text().splitlines()
        assert lines[1].endswith(",delayed")


class TestSimulateCommand:
    def test_small_run_passes_and_is_deterministic(self, tmp_path):
        cfg = ExperimentConfig(r_max=3, t_max=8, num_trials=20_000, master_seed=7,
                               out_dir=str(tmp_path))
        paths = cli.cmd_simulate(cfg, str(tmp_path))
        report = json.load(open([p for p in paths if p.endswith("report.json")][0]))
        assert all(v["passed"] for v in report)
        sim_csv = [p for p in paths if p.endswith("simulate.csv")][0]
        first = open(sim_csv, "rb").read()
        cli.cmd_simulate(cfg, str(tmp_path))
        assert open(sim_csv, "rb").read() == first

    def test_schema(self, tmp_path):
        cfg = ExperimentConfig(r_max=2, t_max=3, num_trials=2_000, master_seed=7,
                               out_dir=str(tmp_path))
        try:
            paths = cli.cmd_simulate(cfg, str(tmp_path))
        except cli.VerificationFailure as exc:  # tiny runs may miss 3 sigma
            paths = exc.paths
        sim_csv = [p for p in paths if p.endswith("simulate.csv")][0]
        lines = open(sim_csv).read().splitlines()
        assert lines[0] == "r,t,emp_mse,emp_power,stderr_mse,n_trials"
        assert len(lines) == 1 + 3 * 4
        last = lines[-1].split(",")
        assert last[3] == ""  # node r_max transmits on no simulated hop


class TestSimulateBytePins:
    """sha256 of every file ``cmd_simulate`` writes, recorded before the output
    probes were accumulated pair by pair instead of from a full T×T product.

    ``t_max=0`` has no probe pair and ``t_max=1`` exactly one.  The 3×40 run
    fails ``mse_vs_theory`` and ``power_equality`` where the lattice falls
    below about 1e-30, so its ``failures.json`` is pinned as well.
    """

    CASES = {
        "default": ({}, {
            "report.json": "be4836fa74db9205da6b558a0f2f0621131913684b0f58ec7c109f946184d10a",
            "simulate.csv": "080640aad7349ed1ee03bd2309285a0238165adc17fe25f6080720075f8bbfc2",
        }),
        "t_max=0": ({"t_max": 0}, {
            "report.json": "855af403928bbe6f39177ddc72bb296b2ca5d1cf05d4e04ead61c642ec776fb5",
            "simulate.csv": "5d39ea357e668c16dcb61e25e7cbbbeeae9ae6f255febac6e6f6542d2fa4f72a",
        }),
        "t_max=1": ({"t_max": 1}, {
            "report.json": "ce4bdbb50da9a357042698f14b53e9b33feee5fe2260813e69a106fd83f90025",
            "simulate.csv": "5bf722a18f1ae090da312d67d128a23ba019b73743e3a7205e8e5415babebd94",
        }),
        "deep-3x40": ({"r_max": 3, "t_max": 40, "num_trials": 20_000, "master_seed": 1}, {
            "failures.json": "cfb92992467a37fa1c0b18559e2bc2255353a289a8acbdd52b738c3755327c52",
            "report.json": "d38a69bb967ad08e1e032c39747542b3985d89ebbb33231078187f52c511eaed",
            "simulate.csv": "6ef201135d10e57efaf0bb4e0b46cf0ee4c065a5bc84e646a1a2d1b1e90a9349",
        }),
        # 11 packet bits per source value: numpy sums each trial's 11 terms
        # in 8 lanes, an order a sum down the trial axis would not keep
        "single_packet-psi11": ({"scheme": "single_packet", "packet_bits": 11, "r_max": 4,
                                 "t_max": 12, "num_trials": 30_000, "master_seed": 3}, {
            "report.json": "9acc6498809cb34914382cc6e4f58a6f3938b7cd82a906180651f2ff2c90a6d4",
            "simulate.csv": "8621680c1019270be80959d190eee70b2a38a16d6108a221223166136642fe38",
        }),
        # 2,708 silent hops, on diagonals that also hold active ones; it
        # fails where the lattice falls below about 1e-30, like the 3x40 run
        "silent-30x400": ({"r_max": 30, "t_max": 400, "num_trials": 600, "master_seed": 14}, {
            "failures.json": "8141d508a9ff997aa647b57c85aa8c5d6f469f9b63df521c9f59e3ab24c38a69",
            "report.json": "3adf1ca94654735dd5fa18493be196fd8f9bb7ef06e8b9ae2027613f44adabe0",
            "simulate.csv": "15a9e46b8a6ac5ad1877efc25830f2b40f08301dd2e1052699259c533454dc9c",
        }),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_file_digests(self, case, tmp_path):
        overrides, want = self.CASES[case]
        cfg = ExperimentConfig(out_dir=str(tmp_path), **overrides)
        try:
            paths = cli.cmd_simulate(cfg, str(tmp_path))
        except cli.VerificationFailure as exc:
            paths = exc.paths
        got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in paths}
        assert got == want


class TestSimulateBytePinsInLeafBlocks(TestSimulateBytePins):
    """The same digests with every batch cut into blocks of at most 128 trials."""

    @pytest.fixture(autouse=True)
    def leaf_blocks(self, monkeypatch):
        # a budget below one trial leaves only numpy's 128-value floor
        monkeypatch.setattr(sim, "_BLOCK_BUDGET", 0)


class TestCensored:
    def test_threshold_is_ten_expected_errors(self):
        # 10 errors in 400 trials is reported; 9 is censored
        assert cli._censored(10 / 400, 400) == b"0.025000000000000001"
        assert cli._censored(9 / 400, 400) == b"<0.025000000000000001"
        assert cli._censored(0.0, 400) == b"<0.025000000000000001"

    def test_cells_of_an_array_keep_its_shape(self):
        got = cli._censored(np.array([[0.5, 0.0], [1e-4, 0.25]]),
                            np.array([[100, 100], [10_000, 40]]))
        assert got.dtype.kind == "S"
        assert got.tolist() == [[b"0.5", b"<0.10000000000000001"], [b"<0.001", b"0.25"]]


class TestTextColumnsAreBytes:
    """Every text column a command hands the table writer is bytes, so the
    writer never re-encodes a ``str`` cell."""

    CASES = {
        "mse": dict(scheme="packet_stream", packet_bits=2, period=3, r_max=5, t_max=6),
        "simulate": dict(r_max=3, t_max=4, num_trials=2_000),
        "packet": dict(scheme="single_packet", packet_bits=2, r_max=4, num_trials=2_000),
        "stream": dict(scheme="packet_stream", packet_bits=2, period=2, r_max=8,
                       num_trials=2_000),
        "exponents": dict(velocities=(0.5, 1.0, 2.0)),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_no_str_column(self, command, tmp_path, monkeypatch):
        kinds = []
        real = _table._checked

        def checked(columns):
            columns = list(columns)
            kinds.append([np.asarray(c).dtype.kind for c in columns])
            return real(columns)

        monkeypatch.setattr(_table, "_checked", checked)
        cfg = ExperimentConfig(out_dir=str(tmp_path), **self.CASES[command])
        try:
            getattr(cli, f"cmd_{command}")(cfg, str(tmp_path))
        except cli.VerificationFailure:
            pass  # the files are written before the verdicts
        assert kinds and all("U" not in call for call in kinds), kinds
        assert any("S" in call for call in kinds), kinds


class TestSimulateVerdicts:
    """Each check family is tested at its Bonferroni threshold."""

    CFG = ExperimentConfig(r_max=3, t_max=8, num_trials=20_000)
    SEEDS = range(1, 11)

    @pytest.fixture(scope="class")
    def aggregates(self):
        cfg = self.CFG
        grid = mse_mod.solve_grid(make_channel_params(cfg.snr), mse_mod.SingleSampleBoundary(),
                                  cfg.r_max, cfg.t_max)
        gains = sim.precompute_gains(grid)
        return grid, [
            sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", cfg.num_trials,
                                seed, threads=1)
            for seed in self.SEEDS
        ]

    def test_thresholds(self):
        assert cli._family_threshold(1) == pytest.approx(3.0, abs=1e-3)  # alpha is 3 sigma
        assert cli._family_threshold(1, one_sided=True) == pytest.approx(2.782, abs=1e-3)
        assert cli._family_threshold(105) == pytest.approx(4.208, abs=1e-3)
        assert cli._family_threshold(195) > cli._family_threshold(105)

    @pytest.mark.parametrize("m", [1, 105, 195])
    @pytest.mark.parametrize("one_sided", [False, True])
    def test_threshold_matches_mpmath(self, m, one_sided):
        # sqrt(2) erfinv(2p - 1) at 50 digits, for the float p the function inverts
        tail = cli.VERDICT_ALPHA / m
        p = 1.0 - (tail if one_sided else 0.5 * tail)
        with mpmath.workdps(50):
            want = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
            assert abs(cli._family_threshold(m, one_sided) - want) <= 4e-15

    def test_correct_code_passes_at_seeds_1_to_10(self, aggregates):
        # a per-cell 3-sigma rule failed output_decorrelation at seeds 2 and 8
        grid, aggs = aggregates
        for seed, agg in zip(self.SEEDS, aggs):
            verdicts = cli.simulate_verdicts(self.CFG, agg, grid)
            assert all(v["passed"] for v in verdicts), (seed, verdicts)
            by_check = {v["check"]: v["detail"] for v in verdicts}
            assert by_check["mse_vs_theory"] == (
                "0 of 27 cells outside 3.891 stderr (Bonferroni, family-wise alpha 0.0027)"
            )
            assert "0 of 45 pairs outside 4.013 stderr" in by_check["output_decorrelation"]

    def test_theory_at_shifted_snr_fails_at_seeds_1_to_10(self, aggregates):
        # power of the checks: compare the runs with theory for a 5% higher SNR
        _, aggs = aggregates
        cfg = dataclasses.replace(self.CFG, snr=self.CFG.snr * 1.05)
        wrong = mse_mod.solve_grid(make_channel_params(cfg.snr), mse_mod.SingleSampleBoundary(),
                                   cfg.r_max, cfg.t_max)
        for seed, agg in zip(self.SEEDS, aggs):
            failed = {v["check"] for v in cli.simulate_verdicts(cfg, agg, wrong) if not v["passed"]}
            assert {"mse_vs_theory", "power_equality"} <= failed, (seed, failed)


class TestEndToEnd:
    def test_verify_command_passes(self, tmp_path):
        res = run_cli(["verify", "--out", str(tmp_path)], tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "[PASS]" in res.stdout
        assert "[FAIL]" not in res.stdout

    def test_failure_exit_code_and_machine_readable_list(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_verify_checks",
            lambda: [{"check": "rigged", "passed": False, "detail": "forced"}],
        )
        code = cli.main(["verify", "--out", str(tmp_path)])
        assert code == 1
        failures = json.load(open(tmp_path / "failures.json"))
        assert failures[0]["check"] == "rigged"

    def test_usage_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("[experiment]\nscheme = packet_stream\n")
        res = run_cli(["mse", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "error" in res.stderr.lower()

    @pytest.mark.parametrize("command", ["simulate", "packet", "stream"])
    def test_non_integer_thread_count_is_a_usage_error(self, tmp_path, command):
        out = tmp_path / "out"
        res = run_cli([command, "--out", str(out), "--trials", "100"], tmp_path,
                      env_extra={"CASCADE_IV_THREADS": "abc"})
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr == "error: CASCADE_IV_THREADS must be an integer, got 'abc'\n"
        assert res.stdout == "" and not out.exists()

    def test_flag_overrides(self, tmp_path):
        res = run_cli(
            ["simulate", "--out", str(tmp_path / "o"), "--trials", "2000", "--seed", "7"],
            tmp_path,
        )
        # a 2000-trial run may legitimately fail a statistical verdict,
        # but only as a verification failure: a child that crashes also exits 1
        assert res.returncode in (0, 1), res.stdout + res.stderr
        if res.returncode == 1:
            assert (tmp_path / "o" / "failures.json").is_file(), res.stderr
            assert res.stderr.startswith("FAIL:"), res.stderr
        lines = open(tmp_path / "o" / "simulate.csv").read().splitlines()
        assert lines[1].split(",")[5] == "2000"

    def test_packet_command(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        ExperimentConfig(
            scheme="single_packet", packet_bits=2, r_max=4, num_trials=4_000,
            master_seed=3, out_dir=str(tmp_path),
        ).save(cfg)
        res = run_cli(["packet", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = open(tmp_path / "packet.csv").read().splitlines()
        assert lines[0] == (
            "r,t,n_trials,errors,packet_err,bound_chebyshev,bound_gaussian,"
            "bound_prefix,loglog_diag"
        )
        assert len(lines) == 4  # r = 2, 3, 4

    def test_stream_command_and_rate_above_capacity_path(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        ExperimentConfig(
            scheme="packet_stream", packet_bits=2, period=2, r_max=8,
            num_trials=2_000, master_seed=3, out_dir=str(tmp_path),
        ).save(cfg)
        res = run_cli(["stream", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = open(tmp_path / "stream_bounds.csv").read().splitlines()
        assert lines[0] == "r,delta,v,worst_bit_pe,exact_envelope_bound,envelope_exponent_per_delta"

        # rate >= capacity: refuse to suggest a velocity ...
        ExperimentConfig(
            scheme="packet_stream", packet_bits=4, period=2, r_max=4,
            num_trials=500, master_seed=3, out_dir=str(tmp_path / "abovecap"),
        ).save(cfg)
        res = run_cli(["stream", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "velocit" in res.stderr
        assert not (tmp_path / "abovecap").exists()
        # ... but run when the user forces one, reporting a vacuous envelope
        ExperimentConfig(
            scheme="packet_stream", packet_bits=4, period=2, r_max=4,
            velocities=(1.0,), num_trials=500, master_seed=3,
            out_dir=str(tmp_path / "forced"),
        ).save(cfg)
        res = run_cli(["stream", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = open(tmp_path / "forced" / "stream_bounds.csv").read().splitlines()
        assert lines[1].split(",")[5] == "-inf"

    @pytest.mark.parametrize("command, fields, minimum", [
        ("packet", {"scheme": "single_packet", "packet_bits": 2}, 2),
        ("stream", {"scheme": "packet_stream", "packet_bits": 2, "period": 2}, 4),
    ])
    def test_decode_command_below_minimum_r_max_is_a_usage_error(
        self, tmp_path, command, fields, minimum
    ):
        # packets are decoded from r = 2 on, stream relays at r = 4, 8, ...
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        ExperimentConfig(
            r_max=minimum - 1, num_trials=100, master_seed=3, out_dir=str(out), **fields
        ).save(cfg)
        res = run_cli([command, "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert f"{command} command needs r_max >= {minimum}" in res.stderr
        assert res.stdout == "" and not out.exists()

    @pytest.mark.parametrize("command, keys", [
        ("packet", "packet_bits"), ("stream", "packet_bits and period"),
    ])
    def test_decode_command_without_its_keys_is_a_usage_error(self, tmp_path, capsys, command,
                                                             keys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        ExperimentConfig(scheme="refined_source", rate_nats=0.5, r_max=8,
                         out_dir=str(out)).save(cfg)
        assert cli.main([command, "--config", str(cfg)]) == 2
        printed = capsys.readouterr()
        assert printed.err == f"error: {command} command requires {keys}\n"
        assert printed.out == "" and not out.exists()

    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        outputs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            cfg = tmp_path / f"cfg{threads}.txt"
            ExperimentConfig(
                r_max=3, t_max=6, num_trials=10_000, master_seed=7, out_dir=str(out)
            ).save(cfg)
            res = run_cli(
                ["simulate", "--config", str(cfg)], tmp_path,
                env_extra={"CASCADE_IV_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            outputs[threads] = (out / "simulate.csv").read_bytes()
        assert outputs["1"] == outputs["4"]

    MULTI_BATCH = {
        "simulate": {"r_max": 3, "t_max": 6, "num_trials": 45_000, "master_seed": 7},
        "packet": {"scheme": "single_packet", "packet_bits": 3, "r_max": 4,
                   "num_trials": 45_000, "master_seed": 5},
        "stream": {"scheme": "packet_stream", "packet_bits": 2, "period": 2, "r_max": 4,
                   "num_trials": 45_000, "master_seed": 3},
    }

    @pytest.mark.parametrize("command", list(MULTI_BATCH))
    def test_multi_batch_bytes_across_worker_counts(self, command, tmp_path, capsys,
                                                    monkeypatch):
        # 45,000 trials are three default batches, so 2 and 4 workers fork
        # children beside the working caller
        runs = {}
        for threads in ("1", "2", "4"):
            out = tmp_path / f"w{threads}"
            cfg = tmp_path / f"w{threads}.cfg"
            ExperimentConfig(out_dir=str(out), **self.MULTI_BATCH[command]).save(cfg)
            monkeypatch.setenv("CASCADE_IV_THREADS", threads)
            code = cli.main([command, "--config", str(cfg)])
            printed = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs[threads] = (code, printed.out.replace(str(out), "<out>"), printed.err, files)
        assert runs["1"][0] == 0 and runs["1"][3]
        assert runs["1"] == runs["2"] == runs["4"]

    def test_packet_command_above_snr_velocity_is_reported_not_asserted(self, tmp_path):
        # v > P: the errors stay bounded away from zero; the command still
        # emits the observation columns and exits cleanly
        cfg = tmp_path / "cfg.txt"
        ExperimentConfig(
            scheme="single_packet", packet_bits=2, r_max=6, velocities=(15.0,),
            num_trials=4_000, master_seed=3, out_dir=str(tmp_path),
        ).save(cfg)
        res = run_cli(["packet", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = [ln.split(",") for ln in open(tmp_path / "packet.csv").read().splitlines()[1:]]
        assert all(r[1] == "0" for r in rows)  # floor(r/15) = 0 for r <= 6
        errs = [int(r[3]) for r in rows]
        assert min(errs) > 0  # no convergence at velocities above the bound

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["iv", "mse", "simulate", "packet", "stream", "verify"])
    def test_delayed_convention_is_a_usage_error_outside_exponents(self, command, via, tmp_path,
                                                                  capsys):
        # only exponents translates velocities to delayed hops; the others
        # would treat delayed-hop velocities as instantaneous
        out = tmp_path / "out"
        args = [command, "--out", str(out)]
        if via == "flag":
            args += ["--convention", "delayed"]
        else:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text("[experiment]\nconvention = delayed\n")
            args += ["--config", str(cfg)]
        assert cli.main(args) == 2
        printed = capsys.readouterr()
        assert printed.err == (f"error: {command} ignores the hop convention; "
                               "convention = delayed is read only by the exponents command\n")
        assert printed.out == "" and not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    @pytest.mark.parametrize("command", ["exponents", "iv", "mse", "verify"])
    def test_verify_seed_and_trials_are_usage_errors(self, command, flag, tmp_path, capsys):
        # verify runs fixed checks with their own seeds and trial counts; the
        # analytic commands draw nothing at all
        why = "runs fixed checks" if command == "verify" else "runs no Monte Carlo"
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out), flag, "3"]) == 2
        printed = capsys.readouterr()
        assert printed.err == f"error: {command} {why} and reads no {flag}\n"
        assert printed.out == "" and not out.exists()

    def test_packet_takes_one_velocity(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "out"
        ExperimentConfig(
            scheme="single_packet", packet_bits=2, r_max=6, velocities=(0.5, 1.5, 3.0),
            num_trials=2_000, master_seed=3, out_dir=str(out),
        ).save(cfg)
        assert cli.main(["packet", "--config", str(cfg)]) == 2
        printed = capsys.readouterr()
        assert printed.err == (
            "error: packet command takes one velocity, got 3; run it once per velocity\n"
        )
        assert printed.out == "" and not out.exists()

    def test_convention_flag_changes_exponent_grid(self, tmp_path):
        res = run_cli(["exponents", "--out", str(tmp_path / "a"), "--convention", "delayed"], tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        lines = open(tmp_path / "a" / "exponents.csv").read().splitlines()[1:]
        vs = [float(ln.split(",")[0]) for ln in lines]
        assert max(vs) < 1.0
        assert lines[0].endswith(",delayed")


class TestRefusedBeforeAnyOutput:
    """Input a command cannot run is one ``error:`` line, exit 2 and no output directory."""

    @staticmethod
    def refused(tmp_path, capsys, command, text):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text("[experiment]\n" + text)
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 2, printed.err
        assert printed.out == "" and not out.exists()
        assert printed.err.startswith("error: ") and printed.err.count("\n") == 1, printed.err
        return printed.err

    @pytest.mark.parametrize("command, text, cells", [
        ("mse", "r_max = 10000\nt_max = 10000\n", 100_030_002),
        ("simulate", "r_max = 10000\nt_max = 10000\n", 100_030_002),
        ("packet", "scheme = single_packet\npacket_bits = 2\nr_max = 24\nvelocities = 1e-6\n",
         600_000_050),
        ("stream", "scheme = packet_stream\npacket_bits = 2\nperiod = 2\nr_max = 24\n"
                   "velocities = 1e-6\n", 600_000_450),
        # the first velocity's lattice is small: nothing of it is written either
        ("stream", "scheme = packet_stream\npacket_bits = 2\nperiod = 2\nr_max = 24\n"
                   "velocities = 1 1e-6\nnum_trials = 100\n", 600_000_450),
    ], ids=["mse", "simulate", "packet", "stream", "stream-second-velocity"])
    def test_oversized_lattice(self, tmp_path, capsys, command, text, cells):
        err = self.refused(tmp_path, capsys, command, text)
        assert err == f"error: grid of {cells} cells exceeds cap 50000000\n"

    @pytest.mark.parametrize("command", ["mse", "simulate", "exponents"])
    @pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
    def test_rate_not_positive_and_finite(self, tmp_path, capsys, command, rate):
        err = self.refused(tmp_path, capsys, command,
                           f"scheme = refined_source\nrate_nats = {rate}\n")
        assert err == "error: rate_nats must be positive and finite\n"

    @pytest.mark.parametrize("command, rate", [
        ("simulate", "355"), ("simulate", "400"), ("mse", "355"),
    ])
    def test_refinement_rate_without_a_normal_step_factor(self, tmp_path, capsys, command, rate):
        # exp(-2R) is subnormal at 355 nats and 0 at 400
        err = self.refused(tmp_path, capsys, command,
                           f"scheme = refined_source\nrate_nats = {rate}\nnum_trials = 100\n")
        assert "too high for a refinement source" in err

    def test_stream_rate_beyond_exp_range_has_no_velocity_suggestion(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "stream",
                           "scheme = packet_stream\npacket_bits = 1100\nperiod = 2\nr_max = 4\n")
        assert err.startswith("error: rate at or above capacity")


class TestLargePacketsAndUnderflowedCells:
    """2^(2 psi) past float64's range and a decoded cell that underflows to 0
    give clamped bounds and an ``inf`` loglog_diag, not a traceback."""

    @staticmethod
    def run(tmp_path, capsys, command, text):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text("[experiment]\n" + text)
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        return out

    @staticmethod
    def rows(path):
        return [ln.split(",") for ln in path.read_text().splitlines()[1:]]

    def test_stream_packets_of_1100_bits(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "stream",
                       "scheme = packet_stream\npacket_bits = 1100\nperiod = 2\nr_max = 4\n"
                       "velocities = 1\nnum_trials = 10\n")
        assert self.rows(out / "stream_errors.csv")
        assert [row[4] for row in self.rows(out / "stream_bounds.csv")] == ["1"]

    def test_packet_of_600_bits(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "packet",
                       "scheme = single_packet\npacket_bits = 600\nr_max = 3\n")
        # 2^1201 M overflows: every bound clamps to 1 and q to 0, which has no diagonal
        assert [row[5:] for row in self.rows(out / "packet.csv")] == [["1", "1", "1", ""]] * 2

    def test_packet_where_the_decoded_cell_underflows(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "packet",
                       "scheme = single_packet\nsnr = 10\npacket_bits = 2\nr_max = 700\n"
                       "num_trials = 20\n")
        grid = mse_mod.solve_grid(make_channel_params(10.0), mse_mod.SingleSampleBoundary(),
                                  700, 700)
        rows = self.rows(out / "packet.csv")
        assert grid.at(700, 700) == 0.0 and rows[-1][5:] == ["0", "0", "0", "inf"]
        for r, t, *_, cheb, gauss, pref, diag in rows:
            m = grid.at(int(r), int(t))
            if m == 0.0:
                assert (cheb, gauss, pref, diag) == ("0", "0", "0", "inf")
            else:  # the former expression, inf where 3 / (2^5 M) overflows
                assert float(diag) == math.log(3.0 / (2.0**5 * m) - math.log(2.0))


class TestRatesBeyondExpRange:
    """exp(2R) overflows float64 past R = 354.9 nats; the exponent curves still run."""

    @pytest.mark.parametrize("text", [
        "scheme = refined_source\nrate_nats = 400\n",
        "scheme = packet_stream\npacket_bits = 1100\nperiod = 2\n",
    ], ids=["refined_source", "packet_stream"])
    def test_exponents(self, tmp_path, capsys, text):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text("[experiment]\n" + text)
        code = cli.main(["exponents", "--config", str(cfg), "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        rows = [ln.split(",") for ln in (out / "exponents.csv").read_text().splitlines()[1:]]
        es = [float(r[1]) for r in rows if r[2].startswith("ES")]
        assert len(es) == 100 and all(math.isfinite(x) and x >= 0 for x in es)
