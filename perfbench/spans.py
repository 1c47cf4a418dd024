"""In-memory span tracer for the traced benchmark run, and the per-layer metrics.

The tracer replaces the public functions at each layer boundary, which are
module or class attributes, with wrappers that record a span: name, start,
end, parent span and an optional work count.  Only a call that looks the
function up through its module or class passes through a wrapper.  A
``from x import y`` binding takes the original function and bypasses the
wrapper, so ``trace_checks`` requires every span a workload should produce
and reports a missing one as a failed check instead of dropping the layer.

Traced jobs run at threads=1, so spans nest on one stack and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _curve_kind(args, kwargs):
    return f"exponents.sample_exponent_curve[{_arg(args, kwargs, 0, 'kind')}]"


SOURCES = ("KnownSampleSource", "SinglePacketSource", "RefinementSource",
           "CustomRefinementSource", "PacketStreamSource")

# (owner, attribute, span name, work count per call).  The owner is a module,
# or "module:Class" for a method.  A callable span name is evaluated per call.
BOUNDARIES = [
    ("cascade_iv.simulate", "trial_generator", "simulate.trial_generator", None),
    ("cascade_iv.simulate", "draw_noise", "simulate.draw_noise",
     lambda a, k: math.prod(_arg(a, k, 2, "shape"))),
    ("cascade_iv.simulate", "precompute_gains", "simulate.precompute_gains", None),
    ("cascade_iv.simulate", "run_monte_carlo", "simulate.run_monte_carlo",
     lambda a, k: _arg(a, k, 3, "num_trials")),
    ("cascade_iv.simulate", "run_decoding_monte_carlo", "simulate.run_decoding_monte_carlo",
     lambda a, k: _arg(a, k, 3, "num_trials")),
    *(
        (f"cascade_iv.simulate:{cls}", "draw_batch", f"simulate.{cls}.draw_batch",
         lambda a, k: len(_arg(a, k, 1, "gens")))
        for cls in SOURCES
    ),
    ("cascade_iv.pam", "decode_bits", "pam.decode_bits",
     lambda a, k: np.size(_arg(a, k, 0, "estimate")) * _arg(a, k, 1, "n")),
    ("cascade_iv.pam", "tally_errors", "pam.tally_errors", None),
    ("cascade_iv.pam:ErrorStats", "merge", "pam.ErrorStats.merge", None),
    ("cascade_iv.mse", "solve_grid", "mse.solve_grid",
     lambda a, k: (_arg(a, k, 2, "r_max") + 1) * (_arg(a, k, 3, "t_max") + 2)),
    ("cascade_iv.mse", "log_closed_form_single_grid", "mse.log_closed_form_single_grid", None),
    ("cascade_iv.mse", "log_closed_form_streaming_grid", "mse.log_closed_form_streaming_grid",
     None),
    ("cascade_iv.mse", "write_grid_csv", "mse.write_grid_csv", None),
    ("cascade_iv.exponents", "sample_exponent_curve", _curve_kind, None),
    *(
        ("cascade_iv.cli", f"cmd_{cmd}", f"cli.cmd_{cmd}", None)
        for cmd in ("exponents", "iv", "mse", "simulate", "packet", "stream", "verify")
    ),
    ("cascade_iv.config:ExperimentConfig", "load", "config.ExperimentConfig.load", None),
]

SOURCE_DRAWS = tuple(f"simulate.{cls}.draw_batch" for cls in SOURCES)
ENGINES = ("simulate.run_monte_carlo", "simulate.run_decoding_monte_carlo")
CLOSED_FORMS = ("mse.log_closed_form_single_grid", "mse.log_closed_form_streaming_grid")
ENVELOPE_CURVE = "exponents.sample_exponent_curve[STREAM_ENVELOPE]"
EXPONENT_CURVES = ("exponents.sample_exponent_curve[E1]", "exponents.sample_exponent_curve[ES]")
MODULES = ("params", "mse", "exponents", "pam", "simulate", "config", "cli")


class Tracer:
    """Records spans in memory; ``install`` wraps ``BOUNDARIES`` until ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, count]
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> list:
        rec = [name_id, 0.0, 0.0, self._stack[-1], 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one job."""
        rec = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name, count=None):
        fixed_id = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(fixed_id if fixed_id is not None else self._id(name(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if count is not None:
                    rec[4] = count(args, kwargs)

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, count in BOUNDARIES:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, count)))
            else:
                setattr(owner, attr, self.wrap(raw, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.spans)

    def write(self, path) -> None:
        """Write every span as JSON: names, then one [name, start, end, parent, count] row each."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


class SpanTable:
    """Column view of the spans with durations and self times."""

    def __init__(self, names, spans):
        self.names = list(names)
        rows = np.array(spans, dtype=float).reshape(-1, 5)
        self.name_id = rows[:, 0].astype(int)
        self.dur = rows[:, 2] - rows[:, 1]
        self.parent = rows[:, 3].astype(int)
        self.count = rows[:, 4]
        child = np.zeros(len(rows))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def of(self, *names: str) -> np.ndarray:
        """Mask of the spans with any of these names."""
        return np.isin(self.name_id, [i for i, n in enumerate(self.names) if n in names])

    def inside(self, root_name: str) -> np.ndarray:
        """Mask of the spans nested, at any depth, in a span named ``root_name``."""
        mark = self.of(root_name)
        inside = np.zeros_like(mark)
        # a parent precedes its children, so one forward pass carries the mark down
        for i, p in enumerate(self.parent):
            if p >= 0 and (mark[p] or inside[p]):
                inside[i] = True
        return inside

    def present(self) -> set[str]:
        return {self.names[i] for i in np.unique(self.name_id)}


# Per-layer metrics: name -> (unit, better, end-to-end metric it should move,
# workloads where it should move).  "computed" counts come from array sizes.
PER_LAYER = {
    "simulate.rng_setup_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode"),
    "simulate.source_draw_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode"),
    "simulate.noise_draw_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode"),
    "simulate.noise_rate_vs_bulk": ("ratio", "higher", "jobs_per_s", "stream_decode"),
    "simulate.engine_self_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode"),
    "simulate.scaling_eff_2t": ("ratio", "higher", "jobs_per_s_2t", "stream_decode"),
    "simulate.precompute_gains_ms": ("ms/call", "lower", "setup_s", "stream_decode"),
    "simulate.lattice_cells_per_trial": ("cells/trial", "lower", "context (computed)", "MC"),
    "simulate.normals_per_trial": ("normals/trial", "lower", "context", "MC"),
    "simulate.noise_bytes_per_trial": ("B/trial", "lower", "context (computed)", "MC"),
    "simulate.batches": ("batches/job", "lower", "context", "MC"),
    "pam.decode_bits_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode only"),
    "pam.decoded_bits_per_s": ("bits/s", "higher", "jobs_per_s", "stream_decode only"),
    "pam.tally_errors_us_per_trial": ("us/trial", "lower", "jobs_per_s", "stream_decode only"),
    "pam.merge_ms": ("ms/job", "lower", "jobs_per_s", "stream_decode only"),
    "pam.tally_calls": ("calls/job", "lower", "context", "stream_decode only"),
    "mse.solve_grid_ms": ("ms/call", "lower", "jobs_per_s; setup_s", "analytic; MC"),
    "mse.solve_grid_cells_per_s": ("cells/s", "higher", "jobs_per_s; setup_s", "analytic; MC"),
    "mse.closed_form_grid_ms": ("ms/call", "lower", "jobs_per_s", "analytic"),
    "mse.write_grid_csv_ms": ("ms/call", "lower", "jobs_per_s", "analytic"),
    "exponents.envelope_curve_ms": ("ms/job", "lower", "jobs_per_s", "analytic"),
    "exponents.curve_ms": ("ms/job", "lower", "jobs_per_s", "analytic"),
    "cli.cmd_mse_self_ms": ("ms/job", "lower", "jobs_per_s", "analytic"),
    "cli.cmd_exponents_ms": ("ms/job", "lower", "jobs_per_s", "analytic"),
    "cli.cmd_iv_ms": ("ms/job", "lower", "jobs_per_s", "analytic"),
    "config.load_us": ("us/call", "lower", "jobs_per_s", "analytic"),
    **{f"{m}.import_ms": ("ms", "lower", "setup_s", "every workload") for m in MODULES},
    "trace_overhead_frac": ("ratio", "lower", "none (tracing cost)", "every workload"),
}

# Spans each workload must record, and name prefixes it must not record.
EXPECTED_SPANS = {
    "stream_decode": [
        "mse.solve_grid", "simulate.precompute_gains", "simulate.run_decoding_monte_carlo",
        "simulate.trial_generator", "simulate.PacketStreamSource.draw_batch",
        "simulate.draw_noise", "pam.decode_bits", "pam.tally_errors", "pam.ErrorStats.merge",
    ],
    "analytic": [
        "config.ExperimentConfig.load", "cli.cmd_mse", "mse.solve_grid",
        "mse.log_closed_form_streaming_grid", "mse.log_closed_form_single_grid",
        "mse.write_grid_csv", "cli.cmd_exponents", "exponents.sample_exponent_curve[E1]",
        "exponents.sample_exponent_curve[ES]", "cli.cmd_iv",
        "exponents.sample_exponent_curve[STREAM_ENVELOPE]",
    ],
}
FORBIDDEN_PREFIXES = {
    "stream_decode": ("cli.", "config.", "exponents."),
    "analytic": ("simulate.", "pam."),
}

JOB_SPAN = "perfbench.job"
SETUP_SPAN = "perfbench.setup"
UNATTRIBUTED_MAX = 0.05


def trace_checks(workload: str, spans: SpanTable) -> list[tuple[str, bool, str]]:
    """Every expected span was recorded, no forbidden one was, and spans account for each job."""
    present = spans.present()
    checks = [
        (f"trace_span:{name}", name in present, "recorded" if name in present else
         "no span: the call bypassed the wrapper or the layer was not reached")
        for name in EXPECTED_SPANS[workload]
    ]
    stray = sorted(n for n in present if n.startswith(FORBIDDEN_PREFIXES[workload]))
    checks.append(("trace_absent_layers", not stray, f"unexpected spans {stray}" if stray else ""))
    worst_self = float(spans.self_time.min()) if len(spans.dur) else 0.0
    checks.append(("trace_nesting", worst_self >= -1e-6,
                   f"most negative self time {worst_self:.3e} s"))
    job = spans.of(JOB_SPAN)
    if job.any():
        unattributed = float((spans.self_time[job] / spans.dur[job]).max())
        checks.append(("trace_accounts_for_job", unattributed <= UNATTRIBUTED_MAX,
                       f"largest share of a job outside wrapped spans {unattributed:.4f}"))
    else:
        checks.append(("trace_accounts_for_job", False, "no traced job"))
    return checks


def layer_metrics(spans: SpanTable, ctx: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced set-up and jobs.

    ``ctx`` holds what the spans cannot give: ``jobs`` (traced jobs),
    ``untraced_1t``/``untraced_2t``/``traced_1t`` (jobs per second),
    ``threads_2``, ``bulk_normals_per_s``, ``lattice_cells`` (MC only) and
    ``import_ms`` (module -> ms).
    """
    in_job = spans.inside(JOB_SPAN)
    anywhere = np.ones_like(in_job)

    def total(*names, field="dur", scope=in_job):
        return float(getattr(spans, field)[spans.of(*names) & scope].sum())

    def calls(*names, scope=in_job):
        return int((spans.of(*names) & scope).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    trials = total(*ENGINES, field="count")

    def us_per_trial(seconds):
        return ratio(1e6 * seconds, trials)

    def ms_per_job(seconds):
        return ratio(1e3 * seconds, ctx["jobs"])

    def per_call(name, scale):
        return ratio(scale * total(name, scope=anywhere), calls(name, scope=anywhere))

    closed = spans.of(*CLOSED_FORMS)
    outer_closed = closed & ~np.where(spans.parent >= 0, closed[spans.parent], False)
    normals = total("simulate.draw_noise", field="count")
    noise_s = total("simulate.draw_noise")
    decode_s = total("pam.decode_bits")
    grid_s = total("mse.solve_grid", scope=anywhere)
    mc = trials > 0
    return {
        "simulate.rng_setup_us_per_trial": us_per_trial(total("simulate.trial_generator")),
        "simulate.source_draw_us_per_trial": us_per_trial(total(*SOURCE_DRAWS, field="self_time")),
        "simulate.noise_draw_us_per_trial": us_per_trial(noise_s),
        "simulate.noise_rate_vs_bulk": ratio(ratio(normals, noise_s), ctx["bulk_normals_per_s"]),
        "simulate.engine_self_us_per_trial": us_per_trial(total(*ENGINES, field="self_time")),
        "simulate.scaling_eff_2t": (
            ratio(ctx["untraced_2t"], ctx["threads_2"] * ctx["untraced_1t"]) if mc else 0.0
        ),
        "simulate.precompute_gains_ms": per_call("simulate.precompute_gains", 1e3),
        "simulate.lattice_cells_per_trial": float(ctx["lattice_cells"]) if mc else 0.0,
        "simulate.normals_per_trial": ratio(normals, trials),
        "simulate.noise_bytes_per_trial": 8.0 * ratio(normals, trials),
        "simulate.batches": ratio(calls(*SOURCE_DRAWS), ctx["jobs"]),
        "pam.decode_bits_us_per_trial": us_per_trial(decode_s),
        "pam.decoded_bits_per_s": ratio(total("pam.decode_bits", field="count"), decode_s),
        "pam.tally_errors_us_per_trial": us_per_trial(total("pam.tally_errors")),
        "pam.merge_ms": ms_per_job(total("pam.ErrorStats.merge")),
        "pam.tally_calls": ratio(calls("pam.tally_errors"), ctx["jobs"]),
        "mse.solve_grid_ms": per_call("mse.solve_grid", 1e3),
        "mse.solve_grid_cells_per_s": ratio(total("mse.solve_grid", field="count", scope=anywhere),
                                            grid_s),
        "mse.closed_form_grid_ms": ratio(1e3 * float(spans.dur[outer_closed].sum()),
                                         int(outer_closed.sum())),
        "mse.write_grid_csv_ms": per_call("mse.write_grid_csv", 1e3),
        "exponents.envelope_curve_ms": ms_per_job(total(ENVELOPE_CURVE)),
        "exponents.curve_ms": ms_per_job(total(*EXPONENT_CURVES)),
        "cli.cmd_mse_self_ms": ms_per_job(total("cli.cmd_mse", field="self_time")),
        "cli.cmd_exponents_ms": ms_per_job(total("cli.cmd_exponents")),
        "cli.cmd_iv_ms": ms_per_job(total("cli.cmd_iv")),
        "config.load_us": per_call("config.ExperimentConfig.load", 1e6),
        **{f"{mod}.import_ms": ctx["import_ms"][mod] for mod in MODULES},
        "trace_overhead_frac": 1.0 - ratio(ctx["traced_1t"], ctx["untraced_1t"]),
    }
