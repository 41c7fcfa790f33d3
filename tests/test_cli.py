import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclayer.cli import main
from fraclayer.config import KEYS, ConfigError, parse_config, value

BASE = """
kernel.s = 0.5
operator.points = 0.0,0.7
operator.profile = cosine
counterexample.s = 0.5
counterexample.rho = 2.1
potential.alpha = 2
potential.beta = 2
potential.gamma = 2
potential.delta = 2
potential.c1 = 2
potential.c2 = 2
potential.c3 = 2
potential.c4 = 2
solver.L = 60
solver.n = 256
solver.tol = 2e-5
"""


def _cfg(tmp_path, text=BASE):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_config_parsing():
    cfg = parse_config("kernel.s = 0.5\n# comment\nsolver.n = 256  # nodes\n"
                       "solver.L = 60\nkernel.form='scaled-fractional'\n"
                       "operator.points = 0.0,0.7\n")
    assert cfg == {"kernel": {"s": 0.5, "form": "scaled-fractional"},
                   "solver": {"n": 256, "L": 60},
                   "operator": {"points": "0.0,0.7"}}
    # values reach the constructors as parsed: the int 60 stays an int
    assert type(value(cfg, "solver.L")) is int
    assert value(cfg, "operator.omega") == 1.0
    with pytest.raises(ConfigError):
        parse_config("novalue")
    with pytest.raises(ConfigError, match="fit.csv"):
        value(cfg, "fit.csv")


def test_operator_eval_passes(tmp_path):
    rc = main(["operator-eval", "--config", _cfg(tmp_path),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "operator_eval_report.json").read_text())
    assert rep["run-id"] == "operator-eval"
    assert all(c["pass"] for c in rep["checks"])
    assert (tmp_path / "operator_eval.csv").exists()


def test_missing_key_is_usage_error(tmp_path):
    bad = _cfg(tmp_path, "operator.points = 0.0\n")   # no kernel.s
    assert main(["operator-eval", "--config", bad,
                 "--out", str(tmp_path)]) == 2


def test_operator_eval_over_panel_budget_exits_2(tmp_path, capsys):
    """A plane wave whose far field needs more panels than eval_lk's budget
    fails with the typed error's message, before laying any panel out."""
    text = ("kernel.s = 0.5\noperator.points = 0.0\n"
            "operator.profile = cosine\noperator.omega = 1e8\n"
            "operator.tol = 1e-12\n")
    assert main(["operator-eval", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path)]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "operator_eval.csv").exists()


def test_bad_subcommand_is_usage_error(tmp_path):
    assert main(["no-such-command", "--out", str(tmp_path)]) == 2


def test_solve_and_fit_decay(tmp_path):
    cfgp = _cfg(tmp_path)
    assert main(["solve", "--config", cfgp, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "solution.csv").exists()
    rep = json.loads((tmp_path / "solve_report.json").read_text())
    envelopes = [c for c in rep["checks"]
                 if c["id"].startswith("well-envelope-")]
    assert [(c["id"], c["pass"]) for c in envelopes] == [
        ("well-envelope-left", True), ("well-envelope-right", True)]
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["final-residual"] < 2e-5
    # one residual per pass, one tau and Krylov count per step
    assert len(conv["residual-trace"]) == conv["iterations"]
    for key in ("tau-trace", "krylov-iterations"):
        assert len(conv[key]) == conv["iterations"] - 1
    # one exterior refit per pass; the last one keeps a power model on
    # each side
    assert len(conv["exterior-trace"]) == conv["iterations"]
    assert all(m is not None for m in conv["exterior-trace"][-1])
    assert conv["rejected-steps"] >= 0
    # the steps taken with the exterior models held fixed, in both files
    conv_rec = next(c for c in rep["checks"] if c["id"] == "solver-converged")
    assert conv_rec["location"].endswith(
        f"frozen-steps={conv['frozen-steps']}")
    cfg2 = tmp_path / "fit.cfg"
    cfg2.write_text(BASE + f"\nfit.csv = '{tmp_path / 'solution.csv'}'\n")
    assert main(["fit-decay", "--config", str(cfg2),
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "fit_decay_report.json").read_text())
    exps = [float(c["location"].split(",")[0].split("=")[1])
            for c in rep["checks"]]
    # quartic wells at s = 0.5 decay like 1/x
    assert all(abs(e - 1.0) < 0.3 for e in exps)


@pytest.mark.parametrize("csv_text", [
    None,                                          # no file
    "x,u\n1.0,0.5\n2.0,high\n",                   # a value that is no number
    "x,u\n" + "".join(f"{x},{np.tanh(x)!r}\n"       # every tail gap below 1e-13
                      for x in np.linspace(-200.0, 200.0, 401)),
], ids=["missing", "non-numeric", "no-tail-points"])
def test_fit_decay_bad_csv_is_usage_error(tmp_path, capsys, csv_text):
    """A CSV that gives no fit exits 2 with a one-line message and no
    report."""
    data = tmp_path / "profile.csv"
    if csv_text is not None:
        data.write_text(csv_text)
    cfgp = _cfg(tmp_path, BASE + f"\nfit.csv = '{data}'\n")
    assert main(["fit-decay", "--config", cfgp, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "fit_decay_report.json").exists()


def test_report_determinism(tmp_path):
    cfgp = _cfg(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        out.mkdir()
        assert main(["operator-eval", "--config", cfgp, "--out", str(out),
                     "--seed", "7"]) == 0
    assert (out1 / "operator_eval_report.json").read_bytes() == \
        (out2 / "operator_eval_report.json").read_bytes()


def test_verify_counterexample_paper_mode(tmp_path):
    cfgp = _cfg(tmp_path)
    rc = main(["verify-counterexample", "--config", cfgp,
               "--out", str(tmp_path), "--mode", "paper"])
    assert rc == 0
    rep = json.loads(
        (tmp_path / "verify_counterexample_report.json").read_text())
    assert all(c["pass"] for c in rep["checks"])
    ids = {c["id"] for c in rep["checks"]}
    assert any("touch-derivative-bracket" in i for i in ids)


@pytest.mark.parametrize("mode", ["paper", "desk"])
@pytest.mark.parametrize("k_max", [0, 1, 6])
def test_verify_counterexample_checks_cells_up_to_k_max(tmp_path, k_max,
                                                        mode):
    """The reduced touchpoint identities cover cells 0..k_max of the
    configured construction, fewer than four cells included."""
    text = (BASE + f"counterexample.k_max = {k_max}\n"
            "counterexample.n_sweep = 2\n")
    assert main(["verify-counterexample", "--config", _cfg(tmp_path, text),
                 "--out", str(tmp_path), "--mode", mode]) == 0
    rep = json.loads(
        (tmp_path / "verify_counterexample_report.json").read_text())
    cells = {c["location"].split(",")[0] for c in rep["checks"]
             if c["id"].startswith("touch-derivative-bracket-")}
    assert cells == {f"k={k}" for k in range(k_max + 1)}


@pytest.mark.parametrize("command, line", [
    ("operator-eval", "operator.profile = sine"),
    ("operator-eval", "operator.points = 0.1,abc"),
    ("operator-eval", "kernel.s = 1.5"),
    ("solve", "potential.alpha = 3\npotential.beta = 4"),
    ("solve", "solver.n = 2"),
], ids=["profile", "points", "kernel", "well", "grid"])
def test_rejected_config_value_is_usage_error(tmp_path, capsys, command,
                                              line):
    """A value the constructors reject exits 2 with a one-line message,
    not with a traceback and the exit code of a failed check."""
    assert main([command, "--config", _cfg(tmp_path, BASE + line + "\n"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def _rejected(tmp_path, capsys, command, line, *names):
    """The line exits 2 with a one-line config error naming every name,
    and writes no report."""
    out = tmp_path / "out"
    assert main([command, "--config", _cfg(tmp_path, BASE + line + "\n"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert all(n in err for n in names), err
    assert not list(out.glob("*_report.json"))


READER = {"kernel": "operator-eval", "operator": "operator-eval",
          "barriers": "verify-barriers", "counterexample":
          "verify-counterexample", "potential": "solve", "solver": "solve",
          "reconstruct": "reconstruct-potential", "fit": "fit-decay"}


@pytest.mark.parametrize("key, raw", [
    *((k, "abc") for k in (
        "solver.tol", "solver.max_iter", "counterexample.k_max",
        "operator.tol", "reconstruct.depth_decades", "counterexample.alpha",
        "counterexample.rho", "operator.omega", "barriers.n_step",
        "counterexample.n_sweep")),
    ("solver.L", "inf"), ("operator.omega", "nan"),
    ("operator.points", "1e400"), ("solver.tolerance", "1e-30"),
    ("counterexample.k_max", "2.7"), ("solver.n", "2.5"),
    ("solver.n", "true"), ("fit.csv", "7"),
])
def test_bad_value_is_config_error(tmp_path, capsys, key, raw):
    """A mistyped, non-finite or undeclared value exits 2 naming its key,
    before the subcommand that would read it starts."""
    _rejected(tmp_path, capsys, READER[key.split(".")[0]], f"{key} = {raw}",
              key)


@pytest.mark.parametrize("key", sorted(k for k, row in KEYS.items()
                                       if row.bound is not None))
def test_value_past_bound_is_config_error(tmp_path, capsys, key):
    """Each end of a bound is accepted and the value just past it exits 2
    before any work; below the least value, counts ran nothing
    (`barriers.n_step = -4` reported PASS with no step barrier, a negative
    `counterexample.n_sweep` skipped the sweep) and `depth_decades` < 2 ended
    in a traceback."""
    bound = KEYS[key].bound
    if KEYS[key].type is str:
        cases = [(bound[-1], "no-such-choice")]
    else:
        step = 1 if KEYS[key].type is int else 0.5
        cases = [(bound[1], bound[1] + step), (bound[0], bound[0] - step)]
    for inside, past in cases:
        assert parse_config(f"{key} = {inside}") == {
            key.split(".")[0]: {key.split(".")[1]: inside}}
        _rejected(tmp_path, capsys, READER[key.split(".")[0]],
                  f"{key} = {past}", key)


@pytest.mark.parametrize("form, line", [
    ("fractional", "kernel.wobble = 0.9"),
    ("fractional", "kernel.scale = 5"),
    ("scaled-fractional", "kernel.wobble = 0.9"),
    ("tabulated-perturbation", "kernel.scale = 1"),
])
def test_kernel_key_the_form_never_reads_is_config_error(tmp_path, capsys,
                                                         form, line):
    _rejected(tmp_path, capsys, "operator-eval",
              f"kernel.form = {form}\n{line}", line.split(" ")[0], form)


def test_kernel_forms_read_their_own_keys(tmp_path):
    for extra in ("kernel.form = scaled-fractional\nkernel.lam = 0.5\n"
                  "kernel.Lam = 2\nkernel.scale = 1.5",
                  "kernel.form = tabulated-perturbation\nkernel.lam = 0.5\n"
                  "kernel.Lam = 1.5\nkernel.wobble = 0.9"):
        text = BASE + extra + "\noperator.points = 0.3\n"
        assert main(["operator-eval", "--config", _cfg(tmp_path, text),
                     "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("line", [
    "solver.tol = 0", "solver.tol = -1e-6", "solver.tol = nan",
    "solver.max_iter = 0"])
def test_unreachable_solver_tolerance_exits_at_once(tmp_path, capsys, line):
    """A tolerance no residual can meet exits 2 before the first pass."""
    t0 = time.perf_counter()
    _rejected(tmp_path, capsys, "solve", line, "solver")
    assert time.perf_counter() - t0 < 1.0


@given(key=st.sampled_from(sorted(KEYS)),
       raw=st.one_of(st.text(), st.integers().map(str),
                     st.floats().map(repr)))
def test_parse_config_raises_only_config_errors(key, raw):
    try:
        cfg = parse_config(f"{key} = {raw}")
    except ConfigError:
        return
    assert isinstance(cfg, dict)
