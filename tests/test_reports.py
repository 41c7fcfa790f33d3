"""The report JSON format: keys, key order, number formatting and the
one-record-type round trip."""

import json

import numpy as np

from fraclayer.reports import CheckRecord, Report, write_csv


def _report(**echo):
    rep = Report("run", echo)
    rep.add("b-check", True, 0.1, "x=1")
    rep.add("a-check", False, -2.5)
    return rep


def test_keys_and_sorted_order():
    text = _report().to_json()
    payload = json.loads(text)
    assert list(payload) == ["checks", "config-echo", "run-id"]
    for c in payload["checks"]:
        assert list(c) == ["id", "location", "pass", "statement",
                           "worst-slack"]
        assert c["statement"] == c["id"]
    # records keep the order they were added in
    assert [c["id"] for c in payload["checks"]] == ["b-check", "a-check"]
    assert text == json.dumps(payload, indent=1, sort_keys=True)


def test_number_formatting_and_trailing_newline(tmp_path):
    third = 1.0 / 3.0
    rep = Report("run", {"f": np.float64(third), "i": np.int64(7),
                         "n": [np.float64(0.1), 2]})
    rep.add("c", np.bool_(True), np.float64(third))
    rep.add("d", np.bool_(False), np.int64(-3))
    text = rep.to_json()
    payload = json.loads(text)
    assert payload["config-echo"] == {"f": third, "i": 7, "n": [0.1, 2]}
    c, d = payload["checks"]
    # a verdict is written as a JSON bool
    assert '"pass": true,' in text and '"pass": false,' in text
    # 17 significant digits round-trip every double bit for bit
    assert c["worst-slack"] == float(f"{third:.17g}") == third
    assert '"worst-slack": 0.3333333333333333\n' in text
    assert d["worst-slack"] == -3.0 and isinstance(d["worst-slack"], float)
    # numpy scalars serialize exactly like their Python equivalents
    plain = Report("run", {"f": third, "i": 7, "n": [0.1, 2]})
    plain.add("c", True, third)
    plain.add("d", False, -3.0)
    assert plain.to_json() == rep.to_json()
    rep.write(tmp_path / "r.json")
    raw = (tmp_path / "r.json").read_text()
    assert raw == rep.to_json() + "\n"


def test_numpy_bools_in_the_config_echo_are_json_bools():
    rep = Report("run", {"flag": np.bool_(False), "on": [np.bool_(True)],
                         "plain": True})
    text = rep.to_json()
    assert '"flag": false,' in text and '"plain": true\n' in text
    assert json.loads(text)["config-echo"] == {"flag": False, "on": [True],
                                               "plain": True}


def test_summary_line_counts_failures():
    assert _report().summary_line() == "run: FAIL(1) [2 checks]"
    rep = Report("run", {})
    rep.add("ok", True, 0.0)
    assert rep.passed
    assert rep.summary_line() == "run: PASS [1 checks]"
    rep.add_records([CheckRecord("bad-1", False, -1.0),
                     CheckRecord("bad-2", np.bool_(False), -1.0)])
    assert not rep.passed
    assert [c.id for c in rep.failures()] == ["bad-1", "bad-2"]
    assert rep.summary_line() == "run: FAIL(2) [3 checks]"


def test_add_and_add_records_agree():
    by_add = _report(seed=3)
    by_records = Report("run", {"seed": 3})
    by_records.add_records([CheckRecord("b-check", True, 0.1, "x=1"),
                            CheckRecord("a-check", False, -2.5)])
    assert by_add.checks == by_records.checks
    assert by_add.to_json() == by_records.to_json()


def test_write_csv_bytes(tmp_path):
    """Python and numpy floats at 17 significant digits, ints as given,
    CRLF line ends as the csv module writes them."""
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "v", "n"], [(0.1, np.float64(1.0) / 3.0, 7)])
    assert path.read_bytes() == (b"x,v,n\r\n"
                                 b"0.10000000000000001,0.33333333333333331,7"
                                 b"\r\n")
