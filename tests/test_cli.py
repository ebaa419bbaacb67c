"""CLI behaviour: commands, exit codes, report shape, determinism."""

import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import milnor_lab.cli
import milnor_lab.intlinalg
import milnor_lab.report
import milnor_lab.sweep
from milnor_lab import (
    InternalInconsistencyError,
    ValidationError,
    from_quasihomogeneous,
    make_datum,
)
from milnor_lab.cli import main
from oracles import HUGE, LARGE_INTEGER_SPECS

X3 = '{"branches":[{"multiplicity":3,"delta":0}],"intersections":[[0]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_monomial_family(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "monomial", "--p", "2", "--q", "2")
    assert code == 0
    report = json.loads(out)
    assert report["fibre"]["d"] == 2
    assert report["fibre"]["b1"] == 2
    assert report["beta"]["value"] == 4
    assert report["monodromy"]["cycle_type"] == [2]


@pytest.mark.parametrize("spec,chi", [
    # chi = sum_i m_i (1 - 2 delta_i - sum_{j != i} I_ij)
    (LARGE_INTEGER_SPECS["I12"], 2 * (1 - HUGE) + 3 * (1 - HUGE)),
    (LARGE_INTEGER_SPECS["delta"], 2 * (1 - 2 * HUGE)),
], ids=["I12", "delta"])
def test_analyze_huge_double_point_count(capsys, spec, chi):
    # a billion copies of one double point are one gadget, weighted
    code, out, _ = run_cli(capsys, "analyze", json.dumps(spec))
    assert code == 0
    assert json.loads(out)["fibre"]["chi"] == chi


def test_analyze_x3_inline(capsys):
    code, out, _ = run_cli(capsys, "analyze", X3)
    assert code == 0
    report = json.loads(out)
    assert report["beta"]["value"] == 0
    assert report["beta"]["verdict_bobadilla"] is True
    assert report["xr_verdict"]["is_xr"] is True
    assert report["version"]


def test_analyze_file_and_out(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(X3, encoding="utf-8")
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(spec), "--out", str(out_file))
    assert code == 0 and out == ""
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["datum"]["branches"][0]["multiplicity"] == 3


def test_analyze_report_sections_always_present(capsys):
    # reduced datum: beta/upper_bound are null but the keys exist
    code, out, _ = run_cli(capsys, "analyze",
                           '{"branches":[{"multiplicity":1,"delta":1}],"intersections":[[0]]}')
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == [
        "datum", "network", "fibre", "monodromy", "transversal",
        "beta", "vertical", "upper_bound", "xr_verdict", "version",
    ]
    assert report["beta"] is None
    assert report["vertical"] == []
    assert report["upper_bound"] is None


def test_analyze_report_reparse_identity(capsys):
    _, first, _ = run_cli(capsys, "analyze", "--family", "monomial", "--p", "4", "--q", "6")
    _, second, _ = run_cli(capsys, "analyze", "--family", "monomial", "--p", "4", "--q", "6")
    assert first == second
    assert json.loads(first) == json.loads(second)


def test_analyze_malformed_json(capsys):
    code, _, err = run_cli(capsys, "analyze", '{"branches": [')
    assert code == 1
    assert "line" in err and "column" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.json")
    assert code == 1


def _unreadable(kind, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"branches":[{"label":"\xe9","multiplicity":3,"delta":0}],'
                    b'"intersections":[[0]]}')
    return {
        "not-utf8": [str(bad)],
        "base-not-utf8": ["--family", "power", "--base", str(bad), "--exponent", "2"],
        "directory": [str(tmp_path)],
        "out-dir-missing": [X3, "--out", str(tmp_path / "missing" / "report.json")],
    }[kind]


@pytest.mark.parametrize("kind", ["not-utf8", "base-not-utf8", "directory", "out-dir-missing"])
def test_analyze_unreadable_path(tmp_path, capsys, kind):
    code, out, err = run_cli(capsys, "analyze", *_unreadable(kind, tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1


def test_analyze_invalid_datum(capsys):
    bad = '{"branches":[{"multiplicity":1,"delta":0},{"multiplicity":1,"delta":0}],"intersections":[[0,0],[0,0]]}'
    code, _, err = run_cli(capsys, "analyze", bad)
    assert code == 1
    assert ">= 1" in err


@pytest.mark.parametrize("entry", ["true", "1.0", '"1"'])
def test_analyze_non_integer_intersection(capsys, entry):
    spec = ('{"branches":[{"multiplicity":1,"delta":0},{"multiplicity":1,"delta":0}],'
            f'"intersections":[[0,{entry}],[{entry},0]]}}')
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1


def test_analyze_power_nested_too_deep(capsys):
    depth = 1500
    spec = '{"family":"power","exponent":1,"base":' * depth + X3 + "}" * depth
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["--family", "monomial", "--p", "3", "--q", "2", "--exponent", "5"],
    ["--family", "monomial", "--p", "3", "--q", "2", "--qh-branch", "2:3:1"],
    ["--family", "power", "--base", X3, "--exponent", "2", "--p", "1"],
    ["--family", "quasihomogeneous", "--qh-branch", "2:3:1", "--base", X3],
    [X3, "--q", "2"],
])
def test_analyze_family_flag_that_does_not_apply(capsys, argv):
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1


def test_analyze_dump_snf(capsys):
    code, out, err = run_cli(capsys, "analyze", "--family", "monomial",
                             "--p", "4", "--q", "6", "--dump-snf")
    assert code == 0
    assert err == ("branch 1: snf diag(A - I) = [1, 1, 0, 0]\n"
                   "branch 2: snf diag(A - I) = [1, 1, 1, 1, 0, 0]\n")
    json.loads(out)  # stdout stays a pure report


def test_analyze_dump_snf_sees_no_dense_matrix(capsys, monkeypatch):
    # the diagonal is read off the cokernel boundary2_components computed,
    # so no m x m matrix reaches the dense SNF (a dense A - I would be 200 x 200)
    original = milnor_lab.intlinalg.smith_normal_form
    shapes = []

    def recording(matrix, *rest):
        shapes.append((matrix.rows, matrix.cols))
        return original(matrix, *rest)

    monkeypatch.setattr(milnor_lab.intlinalg, "smith_normal_form", recording)
    monkeypatch.setattr(milnor_lab.report, "smith_normal_form", recording, raising=False)
    code, _, err = run_cli(capsys, "analyze", "--family", "monomial",
                           "--p", "200", "--q", "199", "--dump-snf")
    assert code == 0
    assert err == ("branch 1: snf diag(A - I) = " + str([1] * 199 + [0]) + "\n"
                   "branch 2: snf diag(A - I) = " + str([1] * 198 + [0]) + "\n")
    assert shapes and all(rows <= 1 for rows, _ in shapes)


def test_analyze_power_family(tmp_path, capsys):
    base = tmp_path / "cusp.json"
    base.write_text('{"family":"quasihomogeneous","branches":[{"a":2,"b":3,"multiplicity":1}]}',
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "--family", "power",
                           "--base", str(base), "--exponent", "2")
    assert code == 0
    report = json.loads(out)
    assert report["datum"]["branches"][0]["multiplicity"] == 2
    assert report["fibre"]["b1"] == 4


def test_analyze_quasihomogeneous_family(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "quasihomogeneous",
                           "--qh-branch", "2:3:1", "--qh-branch", "1:1:1")
    assert code == 0
    report = json.loads(out)
    assert report["datum"]["intersections"] == [[0, 2], [2, 0]]


CUSP = '{"family":"quasihomogeneous","branches":[{"a":2,"b":3,"multiplicity":1}]}'


@pytest.mark.parametrize("flags,spec", [
    (["--family", "monomial", "--p", "4", "--q", "6"],
     {"family": "monomial", "p": 4, "q": 6}),
    (["--family", "power", "--base", "BASE_FILE", "--exponent", "3"],
     {"family": "power", "base": json.loads(CUSP), "exponent": 3}),
    (["--family", "power", "--base", CUSP, "--exponent", "2"],
     {"family": "power", "base": json.loads(CUSP), "exponent": 2}),
    (["--family", "quasihomogeneous",
      "--qh-branch", "2:3:1", "--qh-branch", "3:4:2", "--qh-branch", "1:1:1"],
     {"family": "quasihomogeneous", "branches": [
         {"a": 2, "b": 3, "multiplicity": 1}, {"a": 3, "b": 4, "multiplicity": 2},
         {"a": 1, "b": 1, "multiplicity": 1}]}),
], ids=["monomial", "power-file-base", "power-inline-base", "quasihomogeneous"])
def test_family_flags_match_inline_family_spec(tmp_path, capsys, flags, spec):
    base_file = tmp_path / "cusp.json"
    base_file.write_text(CUSP, encoding="utf-8")
    flags = [str(base_file) if f == "BASE_FILE" else f for f in flags]
    by_flags = run_cli(capsys, "analyze", *flags, "--dump-snf")
    by_spec = run_cli(capsys, "analyze", json.dumps(spec), "--dump-snf")
    assert by_flags == by_spec
    assert by_flags[0] == 0 and by_flags[2]


def test_family_flag_error_names_family_and_key(capsys):
    code, out, err = run_cli(capsys, "analyze", "--family", "monomial",
                             "--p", "3", "--q", "2", "--exponent", "5")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "monomial" in err and "exponent" in err


@pytest.mark.parametrize("part", ["1_0", " 3", "\u0663"])
def test_qh_branch_takes_only_ascii_decimal_parts(capsys, part):
    code, out, err = run_cli(capsys, "analyze", "--family", "quasihomogeneous",
                             "--qh-branch", f"2:3:{part}")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "bad --qh-branch" in err


LONG_INT = "9" * 5000


def _hostile_argv(where, text, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text, encoding="utf-8")
    return {
        "inline": [text],
        "file": [str(spec_file)],
        "base": ["--family", "power", "--base", text, "--exponent", "2"],
    }[where]


@pytest.mark.parametrize("where", ["inline", "file", "base"])
def test_analyze_over_long_integer(tmp_path, capsys, where):
    text = f'{{"branches":[{{"multiplicity":{LONG_INT},"delta":0}}],"intersections":[[0]]}}'
    code, out, err = run_cli(capsys, "analyze", *_hostile_argv(where, text, tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "digits" in err


@pytest.mark.parametrize("text,key", [
    ('{"branches":[{"multiplicity":2,"delta":0}],"intersections":[[0]],'
     '"intersections":[[0]]}', "intersections"),
    ('{"branches":[{"multiplicity":2,"delta":0,"delta":1}],"intersections":[[0]]}', "delta"),
    ('{"family":"power","exponent":2,"base":{"family":"monomial","p":2,"q":3,"p":4}}', "p"),
], ids=["top-level", "branch", "power-base"])
def test_analyze_duplicate_key(capsys, text, key):
    code, out, err = run_cli(capsys, "analyze", text)
    assert code == 1 and out == ""
    assert err == f"error: duplicate key {key!r}\n"


@pytest.mark.parametrize("where", ["inline", "file", "base"])
def test_analyze_lone_surrogate_label(tmp_path, capsys, where):
    # the JSON escape decodes to a lone surrogate, which no UTF-8 output can hold
    text = r'{"branches":[{"label":"\ud800","multiplicity":1,"delta":0}],"intersections":[[0]]}'
    code, out, err = run_cli(capsys, "analyze", *_hostile_argv(where, text, tmp_path))
    assert code == 1 and out == ""
    assert err == "error: branch 1: 'label' does not encode as UTF-8\n"


@pytest.mark.parametrize("source", [["-"], ["--family", "power", "--base", "-",
                                            "--exponent", "2"]], ids=["spec", "base"])
def test_analyze_closed_stdin(capsys, monkeypatch, source):
    monkeypatch.setattr(sys, "stdin", None)  # what Python sets when fd 0 is closed
    code, out, err = run_cli(capsys, "analyze", *source)
    assert (code, out, err) == (1, "", "error: stdin is closed\n")


def test_internal_inconsistency_exit_3(capsys, monkeypatch):
    def boom(_datum):
        raise InternalInconsistencyError("chi mismatch: fabricated for the test")

    monkeypatch.setattr(milnor_lab.report, "fibre_summary", boom)
    code, _, err = run_cli(capsys, "analyze", X3)
    assert code == 3
    assert "chi mismatch" in err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-branches", "1",
                           "--max-mult", "2", "--max-delta", "1", "--max-int", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4

    code, out, _ = run_cli(capsys, "enumerate", "--max-branches", "2",
                           "--max-mult", "2", "--max-delta", "0", "--max-int", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_enumerate_bad_bounds(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--max-branches", "0",
                           "--max-mult", "1", "--max-delta", "1", "--max-int", "1")
    assert code == 1


def test_enumerate_feeds_analyze(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-branches", "2",
                           "--max-mult", "2", "--max-delta", "1", "--max-int", "2")
    assert code == 0
    for line in out.strip().splitlines():
        inner_code, inner_out, _ = run_cli(capsys, "analyze", line)
        assert inner_code == 0
        report = json.loads(inner_out)
        assert report["datum"] == json.loads(line)


def test_verify_clean_corpus(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-branches", "2",
                             "--max-mult", "3", "--max-delta", "1", "--max-int", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    # 6 branch types; 6 single-branch datums + 6*7/2 pairs * 2 intersections
    assert payload["checked"] == 6 + 42
    assert "checked" in err  # human summary goes to stderr


def test_verify_chi_form_documented(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-branches", "1",
                           "--max-mult", "3", "--max-delta", "0", "--max-int", "1",
                           "--properties", "prop2-chi-form")
    assert code == 2
    payload = json.loads(out)
    flagged = [(v["datum"]["branches"][0]["multiplicity"], v["documented"])
               for v in payload["violations"]]
    assert flagged == [(2, True), (3, True)]


def test_verify_unknown_property(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-branches", "1",
                           "--max-mult", "1", "--max-delta", "0", "--max-int", "1",
                           "--properties", "no-such-prop")
    assert code == 1
    assert "unknown properties" in err


@pytest.mark.parametrize("names", ["", " , "])
def test_verify_properties_naming_nothing(capsys, names):
    code, out, err = run_cli(capsys, "verify", "--max-branches", "1",
                             "--max-mult", "1", "--max-delta", "0", "--max-int", "1",
                             "--properties", names)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1


def test_verify_trivial_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-branches", "1",
                           "--max-mult", "1", "--max-delta", "1", "--max-int", "1")
    assert code == 0
    assert json.loads(out)["checked"] == 2


def test_jobs_env_default(capsys, monkeypatch):
    for raw in ("0", "-3"):
        monkeypatch.setenv("MILNOR_LAB_JOBS", raw)
        code, out, err = run_cli(capsys, "verify", "--max-branches", "1",
                                 "--max-mult", "1", "--max-delta", "0", "--max-int", "1")
        assert code == 1 and out == ""
        assert err == f"error: MILNOR_LAB_JOBS must be >= 1, got '{raw}'\n"


def test_jobs_flag_below_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-branches", "1", "--max-mult", "1",
                             "--max-delta", "0", "--max-int", "1", "--jobs", "0")
    assert code == 1 and out == ""
    assert err == "error: --jobs must be >= 1\n"


def test_jobs_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MILNOR_LAB_JOBS", "abc")
    code, out, err = run_cli(capsys, "verify", "--max-branches", "1",
                             "--max-mult", "1", "--max-delta", "0", "--max-int", "1")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "MILNOR_LAB_JOBS" in err


def test_jobs_env_read_on_every_verify(capsys, monkeypatch):
    argv = ["verify", "--max-branches", "1", "--max-mult", "1", "--max-delta", "0",
            "--max-int", "1"]
    monkeypatch.delenv("MILNOR_LAB_JOBS", raising=False)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("MILNOR_LAB_JOBS", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "MILNOR_LAB_JOBS" in err


def test_parser_built_once(capsys, monkeypatch, request):
    built = []

    class CountingParser(milnor_lab.cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    milnor_lab.cli.build_parser.cache_clear()
    request.addfinalizer(milnor_lab.cli.build_parser.cache_clear)
    monkeypatch.setattr(milnor_lab.cli, "_Parser", CountingParser)
    for _ in range(3):
        assert run_cli(capsys, "analyze", X3)[0] == 0
    assert run_cli(capsys, "enumerate", "--max-branches", "1", "--max-mult", "1",
                   "--max-delta", "0", "--max-int", "1")[0] == 0
    assert run_cli(capsys, "verify", "--max-branches", "1")[0] == 1
    assert built.count("milnor-lab") == 1


def test_bad_flags_exit_1(capsys):
    code = main(["verify", "--max-branches", "1"])
    capsys.readouterr()
    assert code == 1


VERIFY_TINY = ["verify", "--max-branches", "1", "--max-mult", "1", "--max-delta", "0",
               "--max-int", "1"]


@pytest.mark.parametrize("value", ["1_0", " 2", "\u0663"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "monomial", "--p", "{}", "--q", "2"],
    ["analyze", "--family", "monomial", "--p", "2", "--q", "{}"],
    ["analyze", "--family", "power", "--base", X3, "--exponent", "{}"],
    [*VERIFY_TINY, "--jobs", "{}"],
    [*VERIFY_TINY, "--max-branches", "{}"],
    [*VERIFY_TINY, "--max-mult", "{}"],
    [*VERIFY_TINY, "--max-delta", "{}"],
    [*VERIFY_TINY, "--max-int", "{}"],
], ids=["p", "q", "exponent", "jobs", "max-branches", "max-mult", "max-delta", "max-int"])
def test_integer_flags_take_only_ascii_decimal(capsys, argv, value):
    flag = argv[argv.index("{}") - 1]
    code, out, err = run_cli(capsys, *(value if a == "{}" else a for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and f"argument {flag}: expected an integer" in err


@pytest.mark.parametrize("raw", ["1_0", "\u0662"])
def test_jobs_env_takes_only_ascii_decimal(capsys, monkeypatch, raw):
    monkeypatch.setenv("MILNOR_LAB_JOBS", raw)
    code, out, err = run_cli(capsys, *VERIFY_TINY)
    assert code == 1 and out == ""
    assert err == f"error: MILNOR_LAB_JOBS must be an integer, got {raw!r}\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "monomial", "--p", "abc", "--q", "2"],
    ["analyze", "--family", "monomial", "--p", "9" * 5000, "--q", "2"],
    ["verify", "--max-branches", "1"],
    ["analyze", "--family", "cubic"],
    [],
], ids=["not-an-integer", "over-long", "missing-flags", "bad-choice", "no-command"])
def test_argument_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "error:" in err


def two_usable_cpus(monkeypatch):
    # two CPUs in this process's affinity set on a host that has eight
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bad_bounds(capsys, monkeypatch, jobs):
    # the bounds are checked on the first datum drawn, which at --jobs 2 is
    # drawn by the pool's feeder thread
    two_usable_cpus(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--max-branches", "0", "--max-mult", "1",
                             "--max-delta", "1", "--max-int", "1", "--jobs", jobs)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "corpus bounds" in err


def test_verify_jobs_capped_at_usable_cpus(capsys, monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(milnor_lab.sweep.multiprocessing, "Pool", InProcessPool)
    two_usable_cpus(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--max-branches", "1", "--max-mult", "2",
                             "--max-delta", "1", "--max-int", "1", "--jobs", "64")
    assert code == 0
    assert sizes == [2]
    assert json.loads(out)["checked"] == 4
    assert "(64 jobs)" in err  # the requested count, not the capped one


def test_verify_streams_the_corpus(monkeypatch):
    # each datum is checked as soon as it is enumerated; a sweep that drains
    # the corpus into a list first has yielded every datum by then
    yielded = []
    seen_at_first_check = []
    enumerate_corpus = milnor_lab.sweep.enumerate_corpus
    check_datum = milnor_lab.sweep.check_datum

    def counting(bounds):
        for datum in enumerate_corpus(bounds):
            yielded.append(datum)
            yield datum

    def recording(*args, **kwargs):
        if not seen_at_first_check:
            seen_at_first_check.append(len(yielded))
        return check_datum(*args, **kwargs)

    monkeypatch.setattr(milnor_lab.sweep, "enumerate_corpus", counting)
    monkeypatch.setattr(milnor_lab.sweep, "check_datum", recording)
    result = milnor_lab.sweep.run_sweep(milnor_lab.CorpusBounds(2, 2, 1, 1), jobs=1)
    assert seen_at_first_check == [1]
    assert result.checked == len(yielded) > 1


_check_datum = milnor_lab.sweep.check_datum
_slow_datum = None


def _check_slowly(datum, names, memo):
    # module level, so that a forked worker can unpickle it by reference; the
    # sweep's memo is passed on unchanged
    if datum == _slow_datum:
        time.sleep(0.3)
    return _check_datum(datum, names, memo)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the slowed check reaches the workers by fork")
def test_verify_violations_keep_order_across_chunks(monkeypatch):
    # one datum per chunk on two real workers, and the first violating datum
    # is held back, so later results come back first and must be put back
    # in enumeration order
    bounds = milnor_lab.CorpusBounds(2, 4, 1, 2)
    serial = milnor_lab.sweep.run_sweep(bounds, properties=["prop2-chi-form"], jobs=1)
    assert len(serial.violations) > 1
    two_usable_cpus(monkeypatch)
    monkeypatch.setattr(milnor_lab.sweep, "_CHUNKSIZE", 1)
    monkeypatch.setattr(milnor_lab.sweep, "check_datum", _check_slowly)
    monkeypatch.setattr(sys.modules[__name__], "_slow_datum", serial.violations[0].datum)
    monkeypatch.setattr(milnor_lab.sweep.multiprocessing, "Pool",
                        multiprocessing.get_context("fork").Pool)
    parallel = milnor_lab.sweep.run_sweep(bounds, properties=["prop2-chi-form"], jobs=2)
    assert parallel.violations == serial.violations
    assert parallel.checked == serial.checked


def test_verify_jobs_byte_identical(cli_env):
    args = ["verify", "--max-branches", "2", "--max-mult", "3",
            "--max-delta", "1", "--max-int", "2"]
    runs = [
        subprocess.run([sys.executable, "-m", "milnor_lab.cli", *args, "--jobs", jobs],
                       capture_output=True, check=True, env=cli_env)
        for jobs in ("1", "4")
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # non-empty report


def test_analyze_stdin(cli_env):
    result = subprocess.run(
        [sys.executable, "-m", "milnor_lab.cli", "analyze", "-"],
        input=X3.encode(), capture_output=True, check=True, env=cli_env,
    )
    report = json.loads(result.stdout)
    assert report["fibre"]["d"] == 3


@pytest.mark.parametrize("source", [["-"], ["--family", "power", "--base", "-",
                                            "--exponent", "2"]], ids=["spec", "base"])
def test_stdin_not_utf8(cli_env, source):
    result = subprocess.run(
        [sys.executable, "-m", "milnor_lab.cli", "analyze", *source],
        input=b"\xff{", capture_output=True,
        env={**cli_env, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: stdin is not UTF-8 text\n"


def test_stdin_read_as_utf8_under_any_locale_encoding(cli_env, tmp_path):
    spec = '{"branches":[{"label":"\u00e9","multiplicity":3,"delta":0}],"intersections":[[0]]}'
    out_file = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-m", "milnor_lab.cli", "analyze", "-", "--out", str(out_file)],
        input=spec.encode("utf-8"), capture_output=True, check=True,
        env={**cli_env, "PYTHONIOENCODING": "latin-1"},
    )
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["datum"]["branches"][0]["label"] == "\u00e9"


def test_report_that_stdout_cannot_encode(cli_env):
    spec = '{"branches":[{"label":"é","multiplicity":2,"delta":0}],"intersections":[[0]]}'
    result = subprocess.run(
        [sys.executable, "-m", "milnor_lab.cli", "analyze", spec],
        capture_output=True, env={**cli_env, "PYTHONIOENCODING": "ascii"},
    )
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: the report does not encode as ascii; write it with --out\n"


def test_enumerate_into_closed_pipe(cli_env):
    # the reader takes one line and closes the pipe, as `| head -1` does
    with subprocess.Popen(
        [sys.executable, "-m", "milnor_lab.cli", "enumerate", "--max-branches", "3",
         "--max-mult", "4", "--max-delta", "3", "--max-int", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


_ONE = '{"branches":[{"multiplicity":1,"delta":0}],"intersections":[[0]]}'


# each input error that the other tests reach only in a subprocess, if at all,
# with the one stderr line it must give; stdout is ASCII throughout, which
# only the report with a non-ASCII label fails
@pytest.mark.parametrize("argv,line", [
    (["analyze"], "error: no curve-spec given (pass a path, inline JSON, or --family)"),
    (["analyze", X3, "--family", "monomial", "--p", "1", "--q", "1"],
     "error: give either a spec or --family, not both"),
    (["analyze", "--family", "quasihomogeneous", "--qh-branch", "2:3"],
     "milnor-lab analyze: error: argument --qh-branch: bad --qh-branch '2:3', expected A:B:M"),
    (["analyze", "--family", "monomial", "--p", "0", "--q", "1"],
     "error: monomial exponents must be >= 1"),
    (["analyze", "--family", "power", "--base", X3, "--exponent", "0"],
     "error: power exponent must be >= 1"),
    (["analyze", "--family", "quasihomogeneous", "--qh-branch", "0:1:1"],
     "error: quasi-homogeneous parameters must be >= 1"),
    (["analyze", '{"family":"power","base":[1],"exponent":2}'],
     "error: curve-spec must be a JSON object"),
    (["analyze", '{"family":"quasihomogeneous","branches":[]}'],
     "error: quasihomogeneous: 'branches' must be a non-empty list"),
    (["analyze", '{"family":"quasihomogeneous","branches":[1]}'],
     "error: quasihomogeneous branch 1: must be an object"),
    (["analyze", _ONE.replace("[[0]]", "5")],
     "error: 'intersections' must be a matrix (list of rows)"),
    (["analyze", _ONE.replace('{"multiplicity":1,"delta":0}', "5")],
     "error: branch 1: must be an object"),
    (["analyze", _ONE.replace('{"multiplicity"', '{"label":5,"multiplicity"')],
     "error: branch 1: 'label' must be a string"),
    (["analyze", _ONE.replace("[[0]]", "[5]")], "error: 'intersections' rows must be lists"),
    (["analyze", _ONE.replace(',"delta":0', "")], "error: branch 1: missing keys ['delta']"),
    (["enumerate", "--max-branches", "1", "--max-mult", "1", "--max-delta", "-1",
      "--max-int", "1"],
     "error: corpus bounds: max_delta >= 0 and max_intersection >= 1 required"),
    (["analyze", _ONE.replace('{"multiplicity"', '{"label":"é","multiplicity"')],
     "error: the report does not encode as ascii; write it with --out"),
], ids=["no-spec", "spec-and-family", "qh-branch-form", "monomial-exponent", "power-exponent",
        "qh-parameter", "spec-not-object", "qh-branches-empty", "qh-branch-not-object",
        "matrix-not-list", "branch-not-object", "label-not-string", "row-not-list",
        "missing-key", "corpus-bounds", "stdout-not-utf8"])
def test_input_error_in_process(capsys, monkeypatch, argv, line):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 1
    assert stdout.buffer.getvalue() == b""
    assert capsys.readouterr().err == line + "\n"


def test_input_errors_only_the_library_reaches():
    # the CLI always has a branch to give: an empty spec list fails earlier
    with pytest.raises(ValidationError) as info:
        make_datum([], [])
    assert info.value.violations == ["at least one branch required"]
    with pytest.raises(ValidationError) as info:
        from_quasihomogeneous([])
    assert info.value.violations == ["at least one branch required"]
