"""Run configuration: JSON schema with defaults, strict validation, and the
lambda-expression parser used by the command line."""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .fields import Grid2D
from .loops import GroupSpec
from .symmetry import REALITY_TAGS, SymmetrySpec

# the tolerances the command line passes to the factorizations; the others
# in the hierarchy (trimming, inversion, round trips, order, flatness) are
# fixed by the library
DEFAULT_TOLERANCES = {
    "birkhoff": 1e-9,
    "iwasawa": 1e-8,
}

DEFAULT_CONFIG = {
    "seed": 0,
    "n": 2,
    "k": 1,
    "reality": "Rm1",
    "target": "sphere",
    "tol_scale": 1.0,
    "tolerances": dict(DEFAULT_TOLERANCES),
    "grid": {
        "u0": -0.4, "v0": -0.35,
        "h_u": 0.1, "h_v": 0.0875,
        "nu": 9, "nv": 9,
        "base": [4, 4],
    },
    "lambda": ["1.0"],
    "paths": {},
}

_PATH_KEYS = ("in", "in_minus", "in_plus", "out", "out_minus", "out_plus",
              "mesh", "diagnostics", "dressing", "dressing_plus")

_LAMBDA_NAMES = {
    "i": 1j, "j": 1j,
    "pi": math.pi, "e": math.e,
    "exp": cmath.exp, "sqrt": cmath.sqrt,
    "cos": cmath.cos, "sin": cmath.sin, "tan": cmath.tan,
}


def parse_lambda(text) -> complex:
    """Evaluate a lambda sample: a number, an [re, im] pair, or a small
    arithmetic expression over i, pi, e, exp, sqrt, cos, sin."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    if isinstance(text, (list, tuple)):
        if len(text) != 2:
            raise ParseError(f"lambda pair must be [re, im], got {text!r}")
        return complex(float(text[0]), float(text[1]))
    s = str(text).strip()
    s = re.sub(r"(\d)\s*[ij]\b", r"\1*i", s)  # allow the 2i shorthand
    if not re.fullmatch(r"[0-9a-zA-Z_+\-*/(). \t]*", s) or not s:
        raise ParseError(f"bad lambda expression {text!r}")
    names = set(re.findall(r"[a-zA-Z_]+", s))
    unknown = names - set(_LAMBDA_NAMES)
    if unknown:
        raise ParseError(f"unknown names in lambda expression: {sorted(unknown)}")
    try:
        val = eval(s, {"__builtins__": {}}, dict(_LAMBDA_NAMES))  # noqa: S307
    except Exception as exc:
        raise ParseError(f"cannot evaluate lambda expression {text!r}: {exc}") from exc
    return complex(val)


def _reject_unknown(data, defaults, prefix=""):
    for key in data:
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ValidationError(f"unknown config key {path!r}")
        if isinstance(defaults[key], dict) and isinstance(data[key], dict) \
                and key != "paths":
            _reject_unknown(data[key], defaults[key], prefix=f"{path}.")


def _merged(defaults, data):
    out = {}
    for key, dval in defaults.items():
        if key in data and isinstance(dval, dict) and isinstance(data[key], dict) \
                and key != "paths":
            out[key] = _merged(dval, data[key])
        elif key in data:
            out[key] = data[key]
        else:
            out[key] = json.loads(json.dumps(dval))  # deep copy of the default
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    """Validated run parameters with helpers building the domain objects."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def tol(self, name) -> float:
        return self.data["tolerances"][name] * self.data["tol_scale"]

    def grid(self) -> Grid2D:
        g = self.data["grid"]
        return Grid2D.from_spacing(g["u0"], g["h_u"], g["nu"],
                                   g["v0"], g["h_v"], g["nv"],
                                   base=tuple(g["base"]))

    def symmetry(self) -> SymmetrySpec:
        return SymmetrySpec(self.data["n"], self.data["k"], self.data["reality"])

    def group(self) -> GroupSpec:
        kind = "orthogonal" if self.data["target"] == "sphere" else "lorentz"
        return GroupSpec(kind, self.data["n"], self.data["k"])

    def lambdas(self):
        vals = self.data["lambda"]
        if not isinstance(vals, list):
            vals = [vals]
        return [parse_lambda(v) for v in vals]

    def path(self, key):
        return self.data["paths"].get(key)


def validate_config(data) -> RunConfig:
    _reject_unknown(data, DEFAULT_CONFIG)
    cfg = _merged(DEFAULT_CONFIG, data)

    def bad(path, msg):
        raise ValidationError(f"config {path!r}: {msg}")

    if not isinstance(cfg["seed"], int):
        bad("seed", "must be an integer")
    for key in ("n", "k"):
        if not isinstance(cfg[key], int) or cfg[key] < 1:
            bad(key, "must be a positive integer")
    if cfg["reality"] is not None and cfg["reality"] not in REALITY_TAGS:
        bad("reality", f"must be one of {REALITY_TAGS} or null")
    if cfg["target"] not in ("sphere", "hyperbolic"):
        bad("target", "must be 'sphere' or 'hyperbolic'")
    for key in ("tolerances", "grid", "paths"):
        if not isinstance(cfg[key], dict):
            bad(key, "must be an object")
    if not (_is_number(cfg["tol_scale"]) and cfg["tol_scale"] > 0):
        bad("tol_scale", "must be a positive number")
    for name, val in cfg["tolerances"].items():
        if not (_is_number(val) and val > 0):
            bad(f"tolerances.{name}", "must be a positive number")
    g = cfg["grid"]
    for key in ("u0", "v0"):
        if not (_is_number(g[key]) and math.isfinite(g[key])):
            bad(f"grid.{key}", "must be a finite number")
    for key in ("h_u", "h_v"):
        if not (_is_number(g[key]) and g[key] > 0):
            bad(f"grid.{key}", "spacing must be a positive number")
    for key in ("nu", "nv"):
        if not isinstance(g[key], int) or g[key] < 1:
            bad(f"grid.{key}", "must be a positive integer")
    base = g["base"]
    if (not isinstance(base, list) or len(base) != 2
            or not all(isinstance(b, int) for b in base)):
        bad("grid.base", "must be a pair of integers")
    if not (0 <= base[0] < g["nu"] and 0 <= base[1] < g["nv"]):
        bad("grid.base", "base index outside the grid")
    for key, val in cfg["paths"].items():
        if key not in _PATH_KEYS:
            bad(f"paths.{key}", f"unknown path key; expected one of {_PATH_KEYS}")
        if val is not None and not isinstance(val, str):
            bad(f"paths.{key}", "must be a string or null")
    lam = cfg["lambda"]
    for item in lam if isinstance(lam, list) else [lam]:
        parse_lambda(item)
    return RunConfig(cfg)


def parse_config(path) -> RunConfig:
    """Load, default-fill and validate a JSON run configuration."""
    return validate_config(read_config(path))


def read_config(path) -> dict:
    """The JSON object of a run configuration file, not yet validated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON ({path}): {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("config root must be a JSON object")
    return data


def default_config() -> dict:
    return json.loads(json.dumps(DEFAULT_CONFIG))
