"""Flat `section.name = value` configuration files, checked against KEYS.

Chosen for diff-ability in golden tests: one assignment per line, `#`
comments, values parsed as int, float, bool, or string. Every key the CLI
reads is one row of KEYS, which gives its type, its default and, for the
resource keys and the keys the CLI dispatches on, a bound: the least and
the largest value, or the choices. `parse_config` rejects an unknown key, a
value of the wrong type (a bool is no number, 2.7 is no int), a non-finite
float and a value outside its bound, with a ConfigError that names the
key. Domain rules (s in (0, 1), alpha >= beta >= 2, lam <= Lam, ...) stay
with the constructors the CLI passes the values to, which raise
ValueError.
"""

from __future__ import annotations

import math
import sys
from typing import Any, NamedTuple

from .kernels import FORMS
from .potentials import MODES


class ConfigError(ValueError):
    """Parse or validation failure, naming the offending line or key."""


REQUIRED = object()     # no default: the subcommand that reads it fails
OWN = object()          # the constructor's own default: passed only when set


class Key(NamedTuple):
    type: type          # int, float, str, or list: comma-separated floats
    default: Any = OWN
    bound: Any = None   # (least, largest) value of a resource key, or the
                        # choices of a str key the CLI dispatches on


KEYS = {
    "kernel.s": Key(float, REQUIRED),
    "kernel.form": Key(str, "fractional", FORMS),
    "kernel.lam": Key(float),
    "kernel.Lam": Key(float),
    # scaled-fractional only; unset, the CLI takes the midpoint of [lam, Lam]
    "kernel.scale": Key(float),
    "kernel.wobble": Key(float),            # tabulated-perturbation only
    "operator.points": Key(list, "0.0,0.5,1.0"),
    "operator.profile": Key(str, "cosine",
                            ("cosine", "tanh", "gaussian", "constant")),
    "operator.omega": Key(float, 1.0),
    "operator.tol": Key(float, 1e-6),
    # per step barrier: 2 records, about 0.6 kB held and 0.5 ms; at the
    # bound 6 MB and 5 s. With none the suite passes without its step check
    "barriers.n_step": Key(int, 10, (1, 10 ** 4)),
    "counterexample.s": Key(float, REQUIRED),
    "counterexample.alpha": Key(float, 5.8),
    "counterexample.beta": Key(float, 5.0),
    "counterexample.gamma": Key(float, 5.5),
    "counterexample.delta": Key(float, 5.0),
    "counterexample.rho": Key(float),
    # cells 14-40 fail junction-regularity with slack -1: their scales
    # are not resolved
    "counterexample.k_max": Key(int, OWN, (0, 13)),
    # per swept exponent tuple: 144 records, 42 kB held, 21 kB of report
    # and 1.3 ms; at the bound 42 MB, 21 MB and 1.3 s. With none the
    # inequality sweep is skipped
    "counterexample.n_sweep": Key(int, 40, (1, 1000)),
    "potential.alpha": Key(float, REQUIRED),
    "potential.beta": Key(float, REQUIRED),
    "potential.gamma": Key(float, REQUIRED),
    "potential.delta": Key(float, REQUIRED),
    "potential.c1": Key(float),
    "potential.c2": Key(float),
    "potential.c3": Key(float),
    "potential.c4": Key(float),
    "potential.mu": Key(float),
    "potential.mode": Key(str, OWN, MODES),
    "solver.L": Key(float, 200.0),
    # building the operator with power models on both sides and applying
    # it once peaks at 296 MB RSS at n = 2^20 (98 MB at 2^18; 167 and 65 MB
    # with bare limits); the GMRES mapping of 41 vectors (21 basis, 20
    # preconditioned) adds up to 344 MB, 8 MB per row that a step touches.
    # The grid operator needs three nodes
    "solver.n": Key(int, 2048, (3, 2 ** 20)),
    "solver.tol": Key(float),
    # per pass: about 31 bytes of traces held and up to 100 bytes of
    # convergence.json, 0.9 ms at n = 256; at the bound 3 MB, 10 MB, 90 s
    "solver.max_iter": Key(int, OWN, (1, 10 ** 5)),
    # graded_nodes adds no node past about 15.4 decades, but allocates
    # 12 floats per decade before it filters: 96 GB at a depth of 1e9.
    # Below 2 decades the well envelopes have too few samples to fit
    "reconstruct.depth_decades": Key(float, 8.0, (2.0, 16.0)),
    "fit.csv": Key(str, REQUIRED),
}


def floats(v: Any) -> list[float]:
    """The finite floats of a comma-separated list (or of one number);
    ValueError otherwise."""
    out = [float(p) for p in str(v).split(",")]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite value in {v!r}")
    return out


def _problem(key: str, v: Any) -> str | None:
    """What makes v no value of the key, if anything: an unknown key, a
    wrong type or a value outside the bound."""
    if key not in KEYS:
        return f"unknown key {key!r}"
    t, bound = KEYS[key].type, KEYS[key].bound
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if t is list:
        try:
            floats(v)
        except ValueError:
            return f"{key}: expected comma-separated finite numbers, got {v!r}"
    # an int past the float range is no finite number either
    elif not (t is float and number and abs(v) <= sys.float_info.max
              or t is int and number and isinstance(v, int)
              or t is str and isinstance(v, str)):
        what = {float: "a finite number", int: "an integer",
                str: "a string"}[t]
        return f"{key}: expected {what}, got {v!r}"
    if bound is None:
        return None
    if t is str:
        if v not in bound:
            return f"{key}: expected one of {', '.join(bound)}, got {v!r}"
    elif not bound[0] <= v <= bound[1]:
        return f"{key}: expected {bound[0]} to {bound[1]}, got {v!r}"
    return None


def _coerce(raw: str) -> Any:
    s = raw.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    return s


def parse_config(text: str) -> dict:
    """Parse to {section: {name: value}}, checking every line against KEYS."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = body.partition("=")
        key = key.strip()
        value = _coerce(raw)
        problem = _problem(key, value)
        if problem:
            raise ConfigError(f"line {lineno}: {problem}")
        section, name = key.split(".")
        out.setdefault(section, {})[name] = value
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


def settings(cfg: dict, section: str, *names: str) -> dict:
    """Keyword arguments from one section: each name's value as set, else
    its default from KEYS. A name whose default is the constructor's own is
    left out when unset; a missing required one raises ConfigError."""
    block = cfg.get(section, {})
    out = {}
    for name in names:
        v = block.get(name, KEYS[f"{section}.{name}"].default)
        if v is REQUIRED:
            raise ConfigError(f"missing config key '{section}.{name}'")
        if v is not OWN:
            out[name] = v
    return out


def value(cfg: dict, key: str) -> Any:
    """One key's value as set, else its default from KEYS."""
    section, name = key.split(".")
    return settings(cfg, section, name)[name]
