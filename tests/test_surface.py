"""The count of independently settable values, pinned.

A settable value is one of:
- an optional parameter (one with a default) of a public function or of a
  public method of a public class, defined in any module of the package;
  the generated __init__ of a dataclass counts, other dunders do not;
- a leaf key of the default run config;
- an option of the command line, on the top-level parser or on any
  subcommand, --help excluded.

A change that adds or removes one moves the pinned figure on purpose.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import loopsplit
from loopsplit.cli import build_parser
from loopsplit.config import DEFAULT_CONFIG

PARAMETERS, CONFIG_KEYS, CLI_OPTIONS = 69, 16, 28


def _optional(fn):
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty]


def optional_parameters():
    """["module.name:parameter"] over the package's public functions and
    methods."""
    out = []
    for info in pkgutil.iter_modules(loopsplit.__path__):
        module = importlib.import_module(f"loopsplit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                out += [f"{where}:{p}" for p in _optional(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out += [f"{where}.__init__:{p}" for p in _optional(obj.__init__)]
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static and class methods
                    if not attr.startswith("_") and inspect.isfunction(member):
                        out += [f"{where}.{attr}:{p}" for p in _optional(member)]
    return out


def config_leaf_keys(data=DEFAULT_CONFIG, prefix=""):
    keys = []
    for key, value in data.items():
        if isinstance(value, dict):
            keys += config_leaf_keys(value, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


def cli_options(parser=None, prefix=""):
    parser = parser or build_parser()
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out += cli_options(sub, f"{prefix}{name} ")
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.append(prefix + action.option_strings[0])
    return out


def test_settable_values():
    parameters, keys, options = optional_parameters(), config_leaf_keys(), cli_options()
    assert (len(parameters), len(keys), len(options)) == (PARAMETERS, CONFIG_KEYS, CLI_OPTIONS), (
        parameters, keys, options)
    assert len(parameters) + len(keys) + len(options) == 113


def test_the_count_reads_each_kind():
    # one known entry of each kind, so that a rule that reads nothing fails
    assert "factorization.birkhoff_left:tol" in optional_parameters()
    assert "fields.Grid2D.from_spacing:base" in optional_parameters()
    assert "factorization.BirkhoffResult.__init__:side" in optional_parameters()
    assert "grid.nu" in config_leaf_keys()
    assert "factorize --window" in cli_options()
    assert "--tol-scale" in cli_options()
