"""Minimum-cost design of potential-based flow networks.

Given a graph whose arcs carry potential-based flow (f = y * signed power of
the potential drop), choose which arcs to build and how much conductance y to
install so that the effective s-t resistance stays within a budget, at
minimum installation cost. Exact solvers cover the polynomial cases, FPTAS
routines cover the rest, and brute-force oracles back the tests.
"""

import importlib

# Public names by defining submodule. Names resolve on first access (PEP 562),
# so importing one submodule, such as the CLI, does not import numpy through
# the numeric ones.
_SUBMODULE_EXPORTS = {
    "core": (
        "FixedInstance", "Instance", "Solution", "UNBOUNDED", "VerificationReport",
        "parse_instance", "read_solution", "write_instance", "write_solution",
    ),
    "certify": ("verify",),
    "errors": (
        "AllVariableCostsZero", "DimensionMismatch", "Disconnected", "Infeasible",
        "NonConvergence", "NotSeriesParallel", "OddSum", "SchemaError", "TooLarge",
        "UnsupportedCase", "ValidationError",
    ),
    "pathdesign": ("solve_fixed_cost_only", "solve_path_fptas", "solve_variable_cost_only"),
    "resistance": ("effective_conductance", "effective_resistance", "min_energy_flow"),
    "rsp": ("RspInstance", "rsp_exact", "rsp_fptas"),
    "spdesign": (
        "discretize_conductances", "dp_exact", "solve_fixed_conductance_fptas", "solve_sp_fptas",
    ),
    "sptree": ("decompose", "resistance_sp", "sp_unit_flow"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
