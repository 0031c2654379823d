import json
import math

import pytest
from click.testing import CliRunner

from fqdirections.cli import main
from fqdirections.generators import gen_paraboloid, gen_random
from fqdirections.incidence import all_slopes
from fqdirections.pointset import parse_fset, write_fset


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# -- gen -------------------------------------------------------------------

def test_gen_paraboloid_stdout(runner):
    result = invoke(runner, "gen", "--family", "paraboloid", "--q", "5", "--d", "2")
    assert result.exit_code == 0
    assert result.output == "5 2\n0 0\n1 1\n2 4\n3 4\n4 1\n"


def test_gen_round_trip(runner, tmp_path):
    out = tmp_path / "set.fset"
    result = invoke(
        runner, "gen", "--family", "random", "--q", "7", "--d", "2",
        "--n", "10", "--seed", "42", "--out", str(out),
    )
    assert result.exit_code == 0
    assert parse_fset(out.read_text()) == gen_random(7, 2, 10, 42)


def test_gen_missing_parameter_exits_2(runner):
    result = invoke(runner, "gen", "--family", "random", "--q", "7", "--d", "2")
    assert result.exit_code == 2
    assert "needs" in result.output


def test_gen_extra_parameter_exits_2(runner):
    result = invoke(runner, "gen", "--family", "paraboloid", "--q", "5", "--d", "2", "--k", "1")
    assert result.exit_code == 2
    assert "does not take" in result.output


def test_gen_embedded(runner, tmp_path):
    base = tmp_path / "base.fset"
    write_fset(gen_paraboloid(5, 2), base)
    result = invoke(runner, "gen", "--family", "embedded", "--in", str(base), "--d", "3")
    assert result.exit_code == 0
    assert result.output.startswith("5 3\n0 0 0\n")


# -- analyses --------------------------------------------------------------

@pytest.fixture
def line_fset(tmp_path):
    path = tmp_path / "line.fset"
    path.write_text("5 2\n0 0\n1 0\n2 0\n3 0\n4 0\n")
    return str(path)


def test_directions_prints_count(runner, line_fset):
    result = invoke(runner, "directions", "--in", line_fset)
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_directions_list(runner, line_fset):
    result = invoke(runner, "directions", "--in", line_fset, "--list")
    assert result.output == "1\n1 0\n"


def test_nu_single_slope(runner, line_fset):
    result = invoke(runner, "nu", "--in", line_fset, "--k", "1", "--t", "0")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "slope 0" in lines
    assert "nu 20" in lines
    assert "main_term 4" in lines


def test_nu_sweep(runner, line_fset):
    result = invoke(runner, "nu", "--in", line_fset, "--k", "1", "--method", "brute")
    lines = result.output.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("slope=0 nu=20")
    assert all("nu=0" in line for line in lines[1:])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("method", ["spectral", "brute"])
def test_nu_sweep_lines_match_single_slope_calls(runner, tmp_path, method, k):
    # k = 1 < d - 1 in F_5^3 leaves pairs that agree on the first two coordinates
    path = tmp_path / "set.fset"
    write_fset(gen_random(5, 3, 14, seed=8), path)
    lines = invoke(runner, "nu", "--in", str(path), "--k", str(k), "--method", method).output.splitlines()
    assert len(lines) == 5**k
    for t, line in zip(all_slopes(5, k), lines):
        slope = ",".join(map(str, t))
        single = invoke(runner, "nu", "--in", str(path), "--k", str(k), "--t", slope, "--method", method)
        fields = dict(entry.split(" ", 1) for entry in single.output.splitlines())
        assert line == (
            f"slope={fields['slope']} nu={fields['nu']} "
            f"nondegenerate={fields['nu_nondegenerate']} remainder={fields['remainder']}"
        )


def test_nu_bad_slope_exits_2(runner, line_fset):
    assert invoke(runner, "nu", "--in", line_fset, "--k", "1", "--t", "1,2").exit_code == 2
    assert invoke(runner, "nu", "--in", line_fset, "--k", "1", "--t", "9").exit_code == 2
    assert invoke(runner, "nu", "--in", line_fset, "--k", "1", "--t", "x").exit_code == 2
    assert invoke(runner, "nu", "--in", line_fset, "--k", "3").exit_code == 2


def test_salem_output(runner, line_fset):
    result = invoke(runner, "salem", "--in", line_fset)
    assert result.exit_code == 0
    assert "salem_constant 2.23607" in result.output
    assert "salem false" in result.output


@pytest.mark.parametrize(
    "threshold, message",
    [("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"), ("-1", "must be > 0, got -1.0")],
)
def test_salem_bad_threshold_exits_2(runner, line_fset, threshold, message):
    # the rule and the message a campaign config gives for salem_threshold
    result = invoke(runner, "salem", "--in", line_fset, "--threshold", threshold)
    assert result.exit_code == 2
    assert result.output == f"error: salem_threshold {message}\n"


def test_diff_output(runner, line_fset):
    result = invoke(runner, "diff", "--in", line_fset)
    lines = result.output.splitlines()
    assert "support 5" in lines
    assert "total 25" in lines
    assert "mu_zero 5" in lines
    assert "max_multiplicity 5" in lines


def test_malformed_fset_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.fset"
    bad.write_text("5 2\n9 0\n")
    for cmd in (("directions",), ("salem",), ("diff",), ("nu", "--k", "1")):
        result = invoke(runner, cmd[0], "--in", str(bad), *cmd[1:])
        assert result.exit_code == 2
        assert "line 2" in result.output


def test_missing_file_exits_2(runner, tmp_path):
    result = invoke(runner, "directions", "--in", str(tmp_path / "nope.fset"))
    assert result.exit_code == 2


# -- campaigns -------------------------------------------------------------

def test_verify_exhaustive_exit_0(runner):
    result = invoke(
        runner, "verify", "--campaign", "theorem-main",
        "--q", "3", "--d", "2", "--k", "1", "--mode", "exhaustive",
    )
    assert result.exit_code == 0
    assert "rows 126" in result.output
    assert "hard_failures 0" in result.output
    assert "ok true" in result.output


def test_verify_writes_reports(runner, tmp_path):
    prefix = str(tmp_path / "rep")
    result = invoke(
        runner, "verify", "--campaign", "sharpness", "--q", "5", "--d", "2", "--out", prefix,
    )
    assert result.exit_code == 0
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.startswith("kind,q,d,k,size,mode,")
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["ok"] is True


def test_verify_bad_grid_exits_2(runner):
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "4", "--d", "2", "--k", "1")
    assert result.exit_code == 2
    assert "not prime" in result.output


def test_verify_bad_size_expression_exits_2(runner):
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "3", "--d", "2", "--size", "ceil(1e400)")
    assert result.exit_code == 2
    assert result.output == "error: bad size expression 'ceil(1e400)': cannot convert float infinity to integer\n"


#: A size expression nested past the parser's stack, where ast.parse raises MemoryError.
DEEP_SIZE = "-" * 10000 + "1"


def test_verify_deeply_nested_size_exits_2(runner):
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "3", "--d", "2", "--size", DEEP_SIZE)
    assert result.exit_code == 2
    assert result.output == (
        f"error: bad size expression '{'-' * 60}'... (10001 characters): nested too deeply or too large\n"
    )


def test_verify_huge_size_exits_2(runner):
    # a size of 5001 digits is named by its expression, not spelled out
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "3", "--d", "2", "--size", "10^5000")
    assert result.exit_code == 2
    assert result.output == (
        "error: size expression '10^5000' gives over 10^30 points, more than the 9 of the grid (q=3, d=2)\n"
    )


def test_verify_huge_grid_exits_2(runner):
    # 3^10000 has 4772 digits, past what str() converts
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "3", "--d", "10000", "--k", "1")
    assert result.exit_code == 2
    assert result.output == "error: grid of 3^10000 = over 10^30 entries exceeds the cap 16777216\n"


def test_verify_huge_exhaustive_count_exits_2(runner):
    # C(101^3, 10202) has about 25,000 digits
    result = invoke(
        runner, "verify", "--campaign", "theorem-main", "--q", "101", "--d", "3", "--k", "2",
        "--size", "q^2+1", "--mode", "exhaustive",
    )
    assert result.exit_code == 2
    assert result.output == (
        "error: exhaustive enumeration of C(1030301, 10202) = over 10^30 sets "
        "(size expression 'q^2+1', q=101, d=3) exceeds the 10000000 limit\n"
    )


def test_verify_exhaustive_count_over_10_to_30_is_refused_without_taking_it(runner):
    # C(1031^2, 531480) has about 320,000 digits; taking it exactly took seconds
    result = invoke(
        runner, "verify", "--campaign", "salem-bounds", "--q", "1031", "--d", "2",
        "--size", "q^2//2", "--mode", "exhaustive",
    )
    assert result.exit_code == 2
    assert result.output == (
        "error: exhaustive enumeration of C(1062961, 531480) = over 10^30 sets "
        "(size expression 'q^2//2', q=1031, d=2) exceeds the 10000000 limit\n"
    )


def test_verify_huge_power_in_size_exits_2(runner):
    result = invoke(runner, "verify", "--campaign", "theorem-main", "--q", "3", "--d", "3", "--size", "9^9^9")
    assert result.exit_code == 2
    assert result.output == "error: power of over 2^20 bits in size expression '9^9^9'\n"


def test_verify_non_finite_thresholds_exit_2(runner):
    # NaN passes every range check, and the JSON report would echo it as NaN
    result = invoke(
        runner, "verify", "--campaign", "salem-bounds", "--q", "3", "--d", "2", "--size", "4", "--trials", "2",
        "--mode", "random", "--ratio-floor", "nan", "--salem-threshold", "nan",
    )
    assert result.exit_code == 2
    assert result.output == "error: salem_threshold must be finite, got nan\n"


def test_sweep_runs_config(runner, tmp_path):
    config = {
        "kind": "salem-bounds",
        "q": [7],
        "d": [2],
        "sizes": ["q"],
        "trials": 5,
        "seed": 3,
        "mode": "random",
        "output": str(tmp_path / "rep"),
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(config))
    result = invoke(runner, "sweep", str(cfg_path))
    assert result.exit_code == 0
    assert (tmp_path / "rep.csv").exists()
    assert (tmp_path / "rep.json").exists()
    # byte-identical on rerun
    first = (tmp_path / "rep.csv").read_bytes()
    assert invoke(runner, "sweep", str(cfg_path)).exit_code == 0
    assert (tmp_path / "rep.csv").read_bytes() == first


def test_verify_flags_and_sweep_config_write_identical_reports(runner, tmp_path):
    config = {
        "kind": "salem-bounds", "q": [5], "d": [3], "k": [1], "sizes": ["q+1", "2*q"], "trials": 4, "seed": 7,
        "mode": "random", "generator": "subspace-random", "salem_threshold": 1.5, "ratio_floor": 0.5,
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(config))
    swept = invoke(runner, "sweep", str(cfg_path), "--out", str(tmp_path / "sweep"))
    verified = invoke(
        runner, "verify", "--campaign", "salem-bounds", "--q", "5", "--d", "3", "--k", "1",
        "--size", "q+1", "--size", "2*q", "--trials", "4", "--seed", "7", "--mode", "random",
        "--generator", "subspace-random", "--salem-threshold", "1.5", "--ratio-floor", "0.5",
        "--out", str(tmp_path / "verify"),
    )
    assert swept.exit_code == verified.exit_code == 0
    assert swept.output.replace("sweep.", "verify.") == verified.output
    for ext in ("csv", "json"):
        assert (tmp_path / f"sweep.{ext}").read_bytes() == (tmp_path / f"verify.{ext}").read_bytes()


def test_sweep_bad_config_exits_2(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"kind": "theorem-main"}')
    result = invoke(runner, "sweep", str(cfg_path))
    assert result.exit_code == 2
    result = invoke(runner, "sweep", str(tmp_path / "missing.json"))
    assert result.exit_code == 2


_BAD_CONFIG_BASE = {"kind": "theorem-main", "q": [3], "d": [2], "k": [1], "trials": 5}

#: A config value of the wrong type, by key, and the error line it gives on every construction route.
BAD_FIELD_VALUES = [
    ({"q": ["3"]}, "config field 'q' must hold integers, got '3'"),
    ({"q": True}, "config field 'q' must hold integers"),
    ({"q": "3"}, "config field 'q' must be an integer or a list of integers"),
    ({"sizes": [1.5]}, "config field 'sizes' entries must be ints or strings, got 1.5"),
    ({"sizes": {"a": 1}}, "config field 'sizes' must be a size or a list of sizes"),
    ({"trials": "5"}, "config field 'trials' must be an integer"),
    ({"trials": True}, "config field 'trials' must be an integer"),
    ({"salem_threshold": "x"}, "config field 'salem_threshold' must be a number"),
    ({"mode": 3}, "config field 'mode' must be a string"),
    ({"output": 3}, "config field 'output' must be a string path"),
    ({"k": None}, "config field 'k' must be an integer or a list of integers"),
    ({"kind": 5}, "unknown campaign kind 5; expected one of theorem-main, salem-bounds, sharpness"),
]


@pytest.mark.parametrize(
    "text,message",
    [
        *((json.dumps({**_BAD_CONFIG_BASE, **patch}), message) for patch, message in BAD_FIELD_VALUES),
        (json.dumps({**_BAD_CONFIG_BASE, "surprise": 1}), "unknown config keys: surprise"),
        (json.dumps({"q": [3], "d": [2]}), "config key 'kind' is required"),
        ("[1, 2]", "campaign config must be a JSON object"),
        ("not json", "config is not valid JSON: line 1: Expecting value"),
        (json.dumps({**_BAD_CONFIG_BASE, "q": []}), "config needs at least one q"),
        (json.dumps({**_BAD_CONFIG_BASE, "d": []}), "config needs at least one d"),
        (json.dumps({**_BAD_CONFIG_BASE, "q": [65537]}), "q = 65537 exceeds the modulus cap 65536"),
        (json.dumps({**_BAD_CONFIG_BASE, "k": [0]}), "k must be >= 1, got 0"),
        (json.dumps({**_BAD_CONFIG_BASE, "threads": 0}), "threads must be >= 1, got 0"),
        (json.dumps({**_BAD_CONFIG_BASE, "salem_threshold": math.nan}), "salem_threshold must be finite, got nan"),
        (json.dumps({**_BAD_CONFIG_BASE, "salem_threshold": math.inf}), "salem_threshold must be finite, got inf"),
        (json.dumps({**_BAD_CONFIG_BASE, "ratio_floor": math.nan}), "ratio_floor must be finite, got nan"),
        (json.dumps({**_BAD_CONFIG_BASE, "ratio_floor": -math.inf}), "ratio_floor must be finite, got -inf"),
        (
            json.dumps({**_BAD_CONFIG_BASE, "d": [3], "sizes": [10], "generator": "subspace-random"}),
            "size expression 10 gives 10 points, more than the 9 of H_2 (q=3, d=3, k=1)",
        ),
        (json.dumps({**_BAD_CONFIG_BASE, "sizes": ["q+'a'"]}), "non-numeric literal in size expression \"q+'a'\""),
        pytest.param(
            json.dumps({**_BAD_CONFIG_BASE, "sizes": [DEEP_SIZE]}),
            f"bad size expression '{'-' * 60}'... (10001 characters): nested too deeply or too large",
            id="deeply-nested-size",
        ),
    ],
)
def test_sweep_config_error_lines(runner, tmp_path, text, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    result = invoke(runner, "sweep", str(cfg_path))
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


@pytest.mark.parametrize(
    "args,output",
    [
        (["--d", "4", "--k", "2"], "campaign sharpness\nrows 1\nhard_failures 0\nsoft_flags 0\nok true\n"),
        (["--d", "3", "--k", "3", "--k", "4"], "error: no valid cells: sharpness needs k <= d-1 when k is given\n"),
        (["--d", "1"], "error: no valid cells: sharpness needs d >= 2\n"),
    ],
)
def test_verify_sharpness_runs_the_given_k(runner, args, output):
    result = invoke(runner, "verify", "--campaign", "sharpness", "--q", "3", *args)
    assert result.exit_code == (2 if output.startswith("error:") else 0)
    assert result.output == output


@pytest.mark.parametrize(
    "base,flags,rows",
    [
        (["--d", "3"], ["--generator", "subspace-random"], 2),
        (["--d", "3", "--k", "1"], ["--mode", "exhaustive", "--generator", "subspace-random"], 1),
    ],
)
def test_verify_sharpness_ignores_mode_and_generator(runner, tmp_path, base, flags, rows):
    # each sharpness cell is the one set H_k, so the sampling checks do not apply
    outputs = []
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for extra in ([], flags):
            result = invoke(runner, "verify", "--campaign", "sharpness", "--q", "3", *base, *extra, "--out", "rep")
            assert result.exit_code == 0
            with open("rep.csv", "rb") as report:
                outputs.append((result.output, report.read()))
    assert outputs[1] == outputs[0]
    assert outputs[0][0].startswith(f"wrote rep.csv\nwrote rep.json\ncampaign sharpness\nrows {rows}\n")


def test_verify_lists_ten_counterexamples_and_counts_the_rest(runner):
    # a floor no set reaches flags both ratios of each of the 6 sets
    result = invoke(
        runner, "verify", "--campaign", "salem-bounds", "--q", "5", "--d", "2", "--size", "q+1",
        "--trials", "6", "--mode", "random", "--ratio-floor", "2.0",
    )
    assert result.exit_code == 0
    flags = [
        f"counterexample soft ratio-{ratio}-floor q=5 d=2 k=None size=6 trial={trial}\n"
        for trial in range(5)
        for ratio in ("ii", "diff")
    ]
    assert result.output == (
        "campaign salem-bounds\nrows 6\nhard_failures 0\nsoft_flags 12\n"
        + "".join(flags)
        + "... 2 more in the JSON report\nok true\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        # campaigns run on one thread; the config key threads is only echoed
        ["--threads", "2", "verify", "--campaign", "sharpness", "--q", "3", "--d", "2"],
        # --mode exhaustive is the one spelling
        ["verify", "--campaign", "sharpness", "--q", "3", "--d", "2", "--exhaustive"],
    ],
)
def test_removed_options_exit_2(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert "Error: No such option" in result.output
