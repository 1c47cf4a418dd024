"""The public surface: what the modules export resolves, and what was removed stays gone.

README's "Removed names" lists each removal below with what replaces it.
"""

import importlib
import inspect
import types

import cascade_iv

MODULES = ("params", "mse", "exponents", "pam", "simulate", "config", "cli", "_table")

# (module, attribute path) of each removed name
REMOVED_NAMES = [
    ("params", "stream_params_from_rate"),
    ("exponents", "binary_entropy"),
    ("exponents", "ExponentCurve.per_time_values"),
    ("mse", "closed_form_single"),
    ("mse", "closed_form_streaming"),
    ("mse", "SingleSampleBoundary.kind"),
    ("mse", "ExponentialRefinementBoundary.kind"),
    ("mse", "PacketStreamBoundary.kind"),
    ("mse", "SequenceBoundary.kind"),
    ("simulate", "_TrialStreams"),
    ("simulate", "_draw_bits"),
    ("simulate", "_capture_batch"),
    ("cli", "_convention"),
    ("cli", "_packet_velocity"),
]

# (module, callable path, parameter) of each removed keyword option
REMOVED_KEYWORDS = [
    ("mse", "solve_grid", "cell_cap"),
    ("simulate", "precompute_gains", "eps_degenerate"),
    ("simulate", "PacketStreamSource", "extra_depth"),
    ("exponents", "packet_error_bound_chebyshev", "clamp"),
    ("exponents", "packet_error_bound_gaussian", "clamp"),
    ("exponents", "prefix_error_bound", "clamp"),
    ("_table", "write_lattice_csv", "r0"),
    ("_table", "write_lattice_csv", "t0"),
    ("cli", "cmd_simulate", "threads"),
    ("cli", "cmd_packet", "threads"),
    ("cli", "cmd_stream", "threads"),
    *(("simulate", f"{source}.draw_batch", "gens")
      for source in ("KnownSampleSource", "SinglePacketSource", "RefinementSource",
                     "CustomRefinementSource", "PacketStreamSource")),
]

# (module, callable path, parameter) that is required: its None mode is gone
REQUIRED = [
    ("exponents", "worst_bit_error_bound", "tau_max"),
    ("simulate", "_draw_inputs", "out"),
]


def _resolve(module, path):
    obj = importlib.import_module(f"cascade_iv.{module}")
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class TestPublicSurface:
    def test_every_export_resolves(self):
        exported = {}
        for module in MODULES:
            mod = importlib.import_module(f"cascade_iv.{module}")
            for name in mod.__all__:
                assert hasattr(mod, name), f"cascade_iv.{module}.__all__ names missing {name!r}"
                exported.setdefault(name, getattr(mod, name))
        package = {name: value for name, value in vars(cascade_iv).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        for name, value in package.items():
            # each package-level name is one its module exports
            assert exported.get(name) is value, name

    def test_removed_names_and_keywords_are_gone(self):
        for module, path in REMOVED_NAMES:
            owner, _, attr = path.rpartition(".")
            assert not hasattr(_resolve(module, owner), attr), path
            if not owner:
                assert not hasattr(cascade_iv, attr), path
        for module, path, keyword in REMOVED_KEYWORDS:
            assert keyword not in inspect.signature(_resolve(module, path)).parameters, \
                f"{path}({keyword}=)"
        for module, path, keyword in REQUIRED:
            param = inspect.signature(_resolve(module, path)).parameters[keyword]
            assert param.default is inspect.Parameter.empty, f"{path}({keyword}=)"
        hints = importlib.import_module("cascade_iv.params").StreamParams.__annotations__
        assert (hints["packet_bits"], hints["period"]) == ("int", "int")
