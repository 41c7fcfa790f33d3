"""Dump the layer profile's outputs, or compare two dumps bit for bit.

    PYTHONPATH=TREE/src python3 tools/profile_outputs.py dump OUT.npz
    python3 tools/profile_outputs.py compare A.npz B.npz

`dump` evaluates, on the desk profile (s = 0.5, alpha = 5.8, beta = 5,
gamma = 5.5, delta = 5, rho = 2.1) and on the threshold profile
(`threshold_params(0.5, rho_target=2.05)`):

- `eval` at orders 0-4 on 4000 seeded points x = +-e^L, L in [0, 80];
- order-4 `gap_jet_log` on both sides at those L (sign and log magnitude);
- every field of `junction_mismatches`;
- the bytes of `export_csv`;

and `eta_derivs(linspace(0, 1, 20001), 4)` once. Run it against two source
trees to check that a refactor keeps every number: `compare` exits 1 and
names each array that differs (`np.array_equal`, NaN equal to NaN).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


def dump(path: str) -> None:
    from fraclayer.construction import (LayerParams, build_profile,
                                        threshold_params)
    from fraclayer.cutoffs import eta_derivs

    out = {"eta_derivs": np.array(eta_derivs(np.linspace(0.0, 1.0, 20001),
                                             4))}
    profiles = {
        "desk": LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                            delta=5.0, rho=2.1),
        "threshold": threshold_params(0.5, rho_target=2.05)}
    rng = np.random.default_rng(2026)
    L = rng.uniform(0.0, 80.0, 4000)
    x = np.where(rng.random(L.size) < 0.5, -1.0, 1.0) * np.exp(L)
    for name, params in profiles.items():
        prof = build_profile(params)
        for m in range(5):
            out[f"{name}/eval{m}"] = prof.eval(x, m)
        for side in (1, -1):
            g = prof.gap_jet_log(side, L, order=4)
            out[f"{name}/gap{side:+d}"] = np.array(
                [(gm.sign, gm.logm) for gm in (g[m] for m in range(5))])
        for i, rec in enumerate(prof.junction_mismatches()):
            for key, v in rec.items():
                out[f"{name}/junction{i}/{key}"] = np.array(v)
        with tempfile.TemporaryDirectory() as tmp:
            csv = Path(tmp) / "profile.csv"
            prof.export_csv(csv)
            out[f"{name}/csv"] = np.frombuffer(csv.read_bytes(), np.uint8)
    np.savez(path, **out)


def compare(a: str, b: str) -> int:
    da, db = np.load(a), np.load(b)
    bad = sorted(set(da.files) ^ set(db.files))
    for key in sorted(set(da.files) & set(db.files)):
        u, v = da[key], db[key]
        same = u.shape == v.shape and np.array_equal(
            u, v, equal_nan=u.dtype.kind == "f")
        if not same:
            bad.append(key)
    for key in bad:
        print(f"differs: {key}")
    print(f"{len(da.files)} arrays, {len(bad)} differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
