"""The public surface: what the modules export resolves, and what was removed stays gone.

README's "Removed names" lists each removal below with what replaces it.
"""

import ast
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
    ("exponents", "delta_star"),
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


def _pbar_form(node) -> str | None:
    """The source of ``node`` if it forms 1 - pbar, ln pbar or ln(1 - pbar) from
    pbar (a name or attribute ``pbar`` or ``snr_bar``), or the generic
    complement ``1 - q``; else None."""

    def is_pbar(expr):
        name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)
        return name in ("pbar", "snr_bar")

    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and (is_pbar(node.right) or ast.unparse(node.right) == "q")):
        return ast.unparse(node)
    if isinstance(node, ast.Call) and len(node.args) == 1:
        func, (arg,) = ast.unparse(node.func), node.args
        if func.endswith("log1p") and isinstance(arg, ast.UnaryOp) and is_pbar(arg.operand):
            return ast.unparse(node)
        if func.endswith(("math.log", "np.log")) and is_pbar(arg):
            return ast.unparse(node)
    return None


class TestOneHome:
    """``params.make_channel_params`` is the one home of 1 - pbar, ln pbar and
    ln(1 - pbar), and ``mse.closed_form_discrepancy`` the one comparison of the
    lattice with its closed form.  Only code is scanned, not docstrings."""

    # exponents.kl_divergence(p, q) forms 1 - q for q = snr_bar (e1, es) and
    # q = qbar (e_tilde): ROADMAP item 14 is to fix it
    ALLOWED = [("exponents", "1.0 - q")]

    @staticmethod
    def _tree(module):
        return ast.parse(inspect.getsource(importlib.import_module(f"cascade_iv.{module}")))

    def test_pbar_forms_only_in_params(self):
        found = []
        for module in MODULES:
            if module == "params":
                continue
            found += [(module, form) for node in ast.walk(self._tree(module))
                      if (form := _pbar_form(node))]
        assert found == self.ALLOWED

    def test_the_scan_sees_each_form(self):
        for code in ("1.0 - channel.snr_bar", "1 - pbar", "math.log1p(-pbar)",
                     "math.log(pbar)", "np.log(self.channel.snr_bar)", "1.0 - q"):
            assert _pbar_form(ast.parse(code, mode="eval").body) == code
        for code in ("1.0 - eta", "math.log(q - x)", "math.log1p(snr)", "channel.qbar",
                     "math.log(x / channel.snr_bar)"):
            assert _pbar_form(ast.parse(code, mode="eval").body) is None

    def test_cli_leaves_the_closed_form_to_mse(self):
        boundaries = {name for name in importlib.import_module("cascade_iv.mse").__all__
                      if name.endswith("Boundary") or name == "BoundaryCondition"}
        for node in ast.walk(self._tree("cli")):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                classes = {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None)
                           for n in ast.walk(node.args[1])}
                assert not classes & boundaries, ast.unparse(node)
            if isinstance(node, ast.Attribute):
                assert "closed_form" not in node.attr or \
                    node.attr == "closed_form_discrepancy", ast.unparse(node)
