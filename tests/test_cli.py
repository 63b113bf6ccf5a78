import hashlib
import json
import math
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from windtree.cli import (EXIT_ERROR, EXIT_OK, EXIT_UNDETERMINED, RunConfig,
                          main)
from windtree.errors import DomainError
from windtree.experiments import quantize_direction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_periodic_and_escaping(capsys):
    code, out, _ = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", "9/29")
    assert code == EXIT_OK and out.startswith("Periodic")
    code, out, _ = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", "16/39")
    assert code == EXIT_OK and out.startswith("Escaping")


def test_classify_axis_corridor_text(capsys):
    code, out, _ = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", "0/1")
    assert code == EXIT_OK and "corridor" in out


def test_classify_explicit_start_and_undetermined(capsys):
    code, out, _ = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", "3/4", "--start", "0,0,top,1/7")
    assert code == EXIT_OK and out.startswith("Escaping")
    code, out, _ = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", "9/29", "--start", "0,0,top,1/7",
                       "--max-collisions", "3")
    assert code == EXIT_UNDETERMINED and out.startswith("Undetermined")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--params", "2/4,1/2",
                       "--slope", "1/1")
    assert code == EXIT_ERROR and "error:" in err


def test_render_svg_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code, _, _ = run(capsys, "render", "--params", "1/2,1/2",
                         "--slope", "3/4", "--out", str(out))
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("<?xml")
    assert "#b0b0b0" in text  # escaping orbit: repeat obstacles grayed


def test_render_periodic_path_closes(tmp_path, capsys):
    out = tmp_path / "p.svg"
    code, _, _ = run(capsys, "render", "--params", "1/2,1/2", "--slope", "1/1",
                     "--out", str(out))
    assert code == EXIT_OK
    path_data = [ln for ln in out.read_text().splitlines()
                 if ln.startswith("<path")][0]
    coords = path_data.split('d="M ')[1].split('"')[0].split(" L ")
    assert coords[0] == coords[-1]


def test_render_zero_collisions_still_valid(tmp_path, capsys):
    out = tmp_path / "z.svg"
    code, _, _ = run(capsys, "render", "--params", "1/2,1/2", "--slope", "3/4",
                     "--n-collisions", "0", "--start", "0,0,top,1/7",
                     "--out", str(out))
    assert code == EXIT_OK
    assert "<path" in out.read_text()


def test_decompose_and_csv(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    code, out, _ = run(capsys, "decompose", "--params", "1/2,1/2",
                       "--slope", "1/1", "--csv", str(csv))
    assert code == EXIT_OK
    assert "1 cylinder(s)" in out
    assert "E" in out and "F" in out
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("cylinder,")
    assert len(lines) == 2


def test_decompose_from_serialized_origami(tmp_path, capsys):
    from windtree.exact import classify_params
    from windtree.origami import build_origami
    path = tmp_path / "og.txt"
    path.write_text(build_origami(classify_params(1, 2, 1, 2)).serialize())
    code, out, _ = run(capsys, "decompose", "--origami", str(path),
                       "--slope", "0/1")
    assert code == EXIT_OK and "2 cylinder(s)" in out


def test_classify_direction_command(capsys):
    code, out, _ = run(capsys, "classify-direction", "--params", "1/2,1/2",
                       "--slope", "1/1")
    assert code == EXIT_OK and "good one-cylinder: yes" in out
    code, out, _ = run(capsys, "classify-direction", "--params", "2/3,2/3",
                       "--slope", "1/1")
    assert code == EXIT_OK and "good one-cylinder: no" in out


def test_good_dirs_lists_odd_odd(capsys, tmp_path):
    csv = tmp_path / "g.csv"
    code, out, _ = run(capsys, "good-dirs", "--params", "1/2,1/2",
                       "--limit", "9", "--csv", str(csv))
    assert code == EXIT_OK
    assert "3/7" in out and "9/29" not in out
    rows = csv.read_text().splitlines()
    assert rows[0] == "u,v"
    assert all(int(r.split(",")[0]) % 2 == 1 and int(r.split(",")[1]) % 2 == 1
               for r in rows[1:])


def test_lift_command(capsys):
    code, out, _ = run(capsys, "lift", "--params", "2/3,2/3", "--slope", "1/1")
    assert code == EXIT_OK and "strip" in out
    code, out, _ = run(capsys, "lift", "--params", "1/2,1/2", "--slope", "1/1")
    assert code == EXIT_OK and "strongly parabolic" in out and "factor 2" in out


def test_recur_command_csv_deterministic(tmp_path, capsys):
    csvs = []
    for name in ("r1.csv", "r2.csv"):
        csv = tmp_path / name
        code, out, _ = run(capsys, "recur", "--params", "1/2,1/2",
                           "--theta", "13/21", "--samples", "10",
                           "--horizon", "2000", "--seed", "5",
                           "--csv", str(csv))
        assert code == EXIT_OK and "returned" in out
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


def test_diffuse_command(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    code, out, _ = run(capsys, "diffuse", "--params", "2/3,2/3",
                       "--theta", "1/1", "--samples", "3",
                       "--horizon", "3000", "--csv", str(csv))
    assert code == EXIT_OK and "statistic" in out
    assert csv.read_text().splitlines()[0] == \
        "sample_id,row,t,dist,statistic,collisions"


def test_stability_command(capsys):
    code, out, _ = run(capsys, "stability", "--params", "1/2,1/2",
                       "--slope", "1/1", "--delta", "1/1000", "--probes", "8")
    assert code == EXIT_OK and "stable" in out


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_selftest_checks_the_shadow_guard_and_diffusion(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    for name in ("64-bit shadowed recurrence passes",
                 "14-bit direction refused",
                 "slope 1 diffusion on 2/3,2/3 grows"):
        assert f"PASS  {name}\n" in out


def test_selftest_checks_the_return_map_against_first_hits(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "PASS  64-bit return map equals first hits in every piece\n" in out


def test_selftest_checks_a_block_on_the_power_map(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "PASS  4096 collisions in one block equal single steps\n" in out


def test_selftest_checks_a_cycle_recorded_on_the_power_map(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert ("PASS  4181/6765 cycle on the power map equals single steps\n"
            in out)


def test_selftest_checks_a_run_on_the_power_map(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "PASS  run on the power map equals its repeats\n" in out


def test_config_roundtrips(tmp_path):
    cfg = RunConfig(command="classify", params="2/3,2/3", slope="3/4",
                    seed=42, horizon=777)
    assert RunConfig.from_json(cfg.to_json()) == cfg
    assert RunConfig.from_text(cfg.to_text()) == cfg
    parsed = json.loads(cfg.to_json())
    assert parsed["params"] == "2/3,2/3"


def test_config_file_and_dump(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("params=1/2,1/2\nslope=9/29\n# comment line\nseed=3\n")
    dumped = tmp_path / "effective.cfg"
    code, out, _ = run(capsys, "classify", "--config", str(cfg_file),
                       "--dump-config", str(dumped))
    assert code == EXIT_OK and out.startswith("Periodic")
    eff = RunConfig.from_text(dumped.read_text())
    assert eff.params == "1/2,1/2" and eff.slope == "9/29" and eff.seed == 3
    jf = tmp_path / "c.json"
    jf.write_text(RunConfig(command="classify", params="1/2,1/2",
                            slope="16/39").to_json())
    code, out, _ = run(capsys, "classify", "--json-config", str(jf))
    assert code == EXIT_OK and out.startswith("Escaping")


@pytest.mark.parametrize("kind", ["text", "json"])
def test_explicit_option_equal_to_its_default_beats_the_config(tmp_path,
                                                               capsys, kind):
    # --samples 50 is the default, and the config file says 3
    if kind == "text":
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text("samples=3\n")
        flag = "--config"
    else:
        cfg_file = tmp_path / "f.json"
        cfg_file.write_text('{"samples": 3}')
        flag = "--json-config"
    dumped = tmp_path / "effective.cfg"
    code, out, _ = run(capsys, "recur", "--params", "1/2,1/2",
                       "--theta", "13/21", flag, str(cfg_file),
                       "--samples", "50", "--horizon", "1000",
                       "--dump-config", str(dumped))
    assert code == EXIT_OK and " of 50 starts" in out
    eff = RunConfig.from_text(dumped.read_text())
    assert (eff.samples, eff.horizon, eff.theta) == (50, 1000, "13/21")
    # a key the command line leaves out still comes from the file
    code, out, _ = run(capsys, "recur", "--theta", "13/21", flag,
                       str(cfg_file), "--horizon", "1000")
    assert code == EXIT_OK and " of 3 starts" in out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("params=1/2,1/2\nnot_a_key=1\n")
    code, _, err = run(capsys, "classify", "--config", str(cfg_file))
    assert code == EXIT_ERROR and "unknown config keys" in err


@pytest.mark.parametrize("slope", ["1/2/3", "x", "1/"])
def test_malformed_slope_is_one_line_error(capsys, slope):
    code, _, err = run(capsys, "classify", "--params", "1/2,1/2",
                       "--slope", slope)
    assert code == EXIT_ERROR
    assert err.startswith("error: cannot parse slope")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,msg", [
    (("classify", "--n-collisions", "abc"),
     "argument --n-collisions: invalid int value: 'abc'"),
    (("classfy", "--slope", "1/2"), "argument command: invalid choice"),
    ((), "the following arguments are required: command")])
def test_usage_error_is_one_line_error(capsys, argv, msg):
    # exit 1, not argparse's 2, which would read as an undetermined result
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR != EXIT_UNDETERMINED
    assert out == ""
    assert err.startswith("error: " + msg)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command,theta", [("recur", "13/21"),
                                           ("diffuse", "1/1")])
def test_zero_samples_rejected(capsys, command, theta):
    code, _, err = run(capsys, command, "--params", "2/3,2/3",
                       "--theta", theta, "--samples", "0")
    assert code == EXIT_ERROR
    assert err == "error: n_samples must be >= 1\n"


def test_recur_decimal_theta_runs_the_shadow_guard(capsys):
    # 14 bits cannot pin this direction down: the doubled-precision shadow
    # run diverges within a few collisions
    code, out, err = run(capsys, "recur", "--params", "1/2,1/2",
                         "--theta", "0.33339", "--precision-bits", "14",
                         "--samples", "5", "--horizon", "50000", "--seed", "8")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: shadow divergence")
    assert "exceeds 2^-30" in err and len(err.splitlines()) == 1


def _one_line_error(code, err):
    return (code == EXIT_ERROR and err.startswith("error: ")
            and len(err.splitlines()) == 1)


@pytest.mark.parametrize("how", ["option", "json"])
def test_huge_precision_bits_is_one_line_error(tmp_path, capsys, how):
    # 2^-bits is never formed: the bound is checked before any shift
    bits = "1000000000000"
    if how == "option":
        argv = ["--params", "1/2,1/2", "--theta", "0.3",
                "--precision-bits", bits]
    else:
        jf = tmp_path / "c.json"
        jf.write_text('{"params": "1/2,1/2", "theta": "0.3", '
                      '"precision_bits": %s}' % bits)
        argv = ["--json-config", str(jf)]
    code, out, err = run(capsys, "recur", *argv)
    assert _one_line_error(code, err) and out == ""
    assert "at most 65536 bits of direction precision" in err


def test_shadowed_recur_takes_bits_above_half_the_cap(capsys):
    # the cap bounds the bits asked for; the shadow's doubled bits (65,538
    # here) are not checked against it
    code, out, err = run(capsys, "recur", "--theta", "0.5",
                         "--precision-bits", "32769", "--samples", "1",
                         "--horizon", "10")
    assert code == EXIT_OK and err == ""
    assert out.startswith("returned ")


@pytest.mark.parametrize("bits, message", [
    ("7", "need at least 8 bits of direction precision"),
    ("0", "need at least 8 bits of direction precision"),
    ("65537", "at most 65536 bits of direction precision")])
def test_precision_bits_are_checked_for_every_command(capsys, bits, message):
    # classify reads an exact slope and never quantizes, yet refuses bits
    # out of bounds with the message quantize_direction gives
    code, out, err = run(capsys, "classify", "--slope", "1/3",
                         "--precision-bits", bits)
    assert _one_line_error(code, err) and out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(DomainError, match=message):
        quantize_direction(Fraction(3, 10), int(bits))


def test_recur_csv_writes_exact_integers_of_any_length(tmp_path, capsys):
    # at 16,000 bits the exact lengths have more digits than Python turns
    # into text at once; the CSV holds them whole
    csv = tmp_path / "r.csv"
    code, out, err = run(capsys, "recur", "--params", "1/2,1/2", "--theta",
                         "0.3", "--precision-bits", "16000", "--samples", "1",
                         "--horizon", "10", "--csv", str(csv))
    assert code == EXIT_OK and err == ""
    row = csv.read_text().splitlines()[1].split(",")
    length = row[-1].split("/")
    assert max(map(len, length)) > sys.get_int_max_str_digits() > 0
    digits = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        num, den = map(int, length)
        assert f"{num}/{den}" == row[-1] and math.gcd(num, den) == 1
    finally:
        sys.set_int_max_str_digits(digits)


def test_theta_longer_than_the_digit_limit_cannot_be_parsed(capsys):
    # exact output writes integers of any length, but parsing keeps
    # Python's digit limit
    theta = "0." + "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run(capsys, "recur", "--theta", theta)
    assert _one_line_error(code, err) and out == ""
    assert err.startswith("error: cannot parse theta '0.111")


def test_json_config_unknown_key_is_one_line_error(tmp_path, capsys):
    jf = tmp_path / "c.json"
    jf.write_text('{"params": "1/2,1/2", "not_a_key": 1}')
    code, _, err = run(capsys, "good-dirs", "--json-config", str(jf))
    assert _one_line_error(code, err) and "unknown config keys" in err


@pytest.mark.parametrize("marked", ["A 0 1/0 0", "A 0 x 0", "A 0 1/2"])
def test_malformed_origami_is_one_line_error(tmp_path, capsys, marked):
    path = tmp_path / "og.txt"
    path.write_text(f"1\n0 0\n{marked}\n")
    code, _, err = run(capsys, "decompose", "--slope", "1/1", "--origami",
                       str(path))
    assert _one_line_error(code, err) and "malformed origami text" in err


def test_json_config_malformed_is_one_line_error(tmp_path, capsys):
    jf = tmp_path / "c.json"
    jf.write_text('{"limit": ')
    code, _, err = run(capsys, "good-dirs", "--json-config", str(jf))
    assert _one_line_error(code, err) and "malformed JSON config" in err


@pytest.mark.parametrize("value", ['"abc"', "true", "2.5", "null"])
def test_json_config_non_integer_limit_is_one_line_error(tmp_path, capsys,
                                                         value):
    jf = tmp_path / "c.json"
    jf.write_text('{"limit": %s}' % value)
    code, _, err = run(capsys, "good-dirs", "--json-config", str(jf))
    assert _one_line_error(code, err) and "limit needs an integer" in err


def test_text_config_non_integer_limit_is_one_line_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("params=1/2,1/2\nlimit=abc\n")
    code, _, err = run(capsys, "good-dirs", "--config", str(cfg_file))
    assert _one_line_error(code, err) and "limit needs an integer" in err


def test_config_not_utf8_is_one_line_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_bytes(b"\xff\xfelimit=3\n")
    code, _, err = run(capsys, "good-dirs", "--config", str(cfg_file))
    assert _one_line_error(code, err) and "can't decode" in err


_FUZZ_KEYS = ("params", "params", "slope", "slope", "limit", "seed",
              "max_collisions", "theta", "samples", "horizon", "probes",
              "scale", "k", "n_collisions", "command", " limit ",
              "not_a_key")
_FUZZ_JUNK = ("", "abc", "1.5", "0x10", "1/0", "0/1", "-1/2", "true", "-",
              "1/2,1/2", "2/3,2/3", "1/2,", "=", "1_0", "٣")
_NO_DIGITS = "abcxyz/,.=-_ #\t"


_FUZZ_VALID = {"params": ("1/2,1/2", "2/3,2/3", "1/3,3/4", "3/5,1/2"),
               "slope": ("1/1", "3/7", "0/1", "1/0", "5/2"),
               "limit": ("1", "3", "6"), "seed": ("0", "7"),
               "max_collisions": ("1", "50", "1000"),
               "theta": ("13/21", "0", "0.618"), "samples": ("1", "2"),
               "horizon": ("1", "2", "50"), "probes": ("1", "2")}


@st.composite
def _config_lines(draw):
    params = st.tuples(*[st.integers(0, 9)] * 4).map(
        lambda t: f"{t[0]}/{t[1]},{t[2]}/{t[3]}")
    slope = st.tuples(st.integers(-1, 12), st.integers(-1, 12)).map(
        lambda t: f"{t[0]}/{t[1]}")
    junk = st.one_of(st.integers(-3, 6).map(str), params, slope,
                     st.sampled_from(_FUZZ_JUNK),
                     st.text(alphabet=_NO_DIGITS, max_size=8))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from(_FUZZ_KEYS))
        roll = draw(st.integers(0, 9))
        if roll == 0:
            lines.append(draw(st.text(alphabet=_NO_DIGITS, max_size=12)))
        elif roll < 3 or key not in _FUZZ_VALID:
            lines.append(f"{key}={draw(junk)}")
        else:
            lines.append(f"{key}={draw(st.sampled_from(_FUZZ_VALID[key]))}")
    return "\n".join(lines)


@settings(max_examples=130, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_config_lines(),
       command=st.sampled_from(["classify", "classify-direction",
                                "decompose", "good-dirs", "lift", "render",
                                "recur", "diffuse", "stability",
                                "selftest"]))
def test_config_text_fuzz_never_tracebacks(tmp_path, capsys, text, command):
    # small runs by default, and somewhere for render to write
    head = f"samples=2\nhorizon=50\nout={tmp_path / 'fuzz.svg'}\n"
    cfg_file = tmp_path / "fuzz.cfg"
    cfg_file.write_text(head + text, encoding="utf-8")
    code, _, err = run(capsys, command, "--config", str(cfg_file))
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_UNDETERMINED)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert _one_line_error(code, err)


_BAD_FRACTION_RUNS = {
    "start": ("classify", "--slope", "3/4", "--start", "0,0,top,{}"),
    "theta-recur": ("recur", "--theta", "{}", "--samples", "2"),
    "theta-diffuse": ("diffuse", "--theta", "{}", "--samples", "2"),
    "delta": ("stability", "--slope", "1/1", "--delta", "{}"),
}


@pytest.mark.parametrize("text", ["abc", "1/0"])
@pytest.mark.parametrize("option", sorted(_BAD_FRACTION_RUNS))
def test_malformed_fraction_is_one_line_error(capsys, option, text):
    argv = [arg.format(text) for arg in _BAD_FRACTION_RUNS[option]]
    code, out, err = run(capsys, *argv, "--params", "1/2,1/2")
    assert _one_line_error(code, err) and out == ""
    assert "cannot parse" in err and repr(text) in err


@pytest.mark.parametrize("how", ["option", "config"])
@pytest.mark.parametrize("name, least, message", [
    ("n_collisions", 0, "n_collisions must be >= 0, got -1"),
    ("max_collisions", 1, "max_collisions must be >= 1"),
    ("limit", 1, "limit must be >= 1"),
    ("samples", 1, "n_samples must be >= 1"),
    ("horizon", 1, "horizon must be >= 1"), ("k", 1, "k must be >= 1"),
    ("probes", 1, "n_probes must be >= 1"),
    ("scale", 1, "scale must be >= 1, got 0"),
    ("jobs", 1, "jobs must be >= 1")])
def test_count_below_its_least_value_is_one_line_error(tmp_path, capsys,
                                                        name, least, message,
                                                        how):
    # every command refuses a bad count with the message of the command
    # that reads it, also a count it does not read, such as recur's
    # --scale or the self-test's --samples
    for command in ("classify", "recur", "selftest"):
        values = {"params": "1/2,1/2", "slope": "3/4", "theta": "13/21",
                  "samples": "2", "horizon": "50", name: str(least - 1)}
        if how == "option":
            argv = [command, *chain.from_iterable(
                ("--" + key.replace("_", "-"), value)
                for key, value in values.items())]
        else:
            cfg_file = tmp_path / "counts.cfg"
            cfg_file.write_text("".join(f"{key}={value}\n"
                                        for key, value in values.items()),
                                encoding="utf-8")
            argv = [command, "--config", str(cfg_file)]
        code, out, err = run(capsys, *argv)
        assert _one_line_error(code, err) and out == ""
        assert err == f"error: {message}\n"


def test_render_negative_collision_count_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "n.svg"
    code, _, err = run(capsys, "render", "--params", "1/2,1/2", "--slope", "3/4",
                       "--n-collisions", "-3", "--out", str(out))
    assert _one_line_error(code, err) and "n_collisions must be >= 0" in err
    assert not out.exists()


def test_stability_zero_probes_is_one_line_error(capsys):
    code, out, err = run(capsys, "stability", "--params", "1/2,1/2",
                         "--slope", "1/1", "--probes", "0")
    assert _one_line_error(code, err) and "n_probes must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("scale", ["0", "-5"])
def test_render_non_positive_scale_is_one_line_error(tmp_path, capsys, scale):
    out = tmp_path / "s.svg"
    code, _, err = run(capsys, "render", "--params", "1/2,1/2", "--slope", "3/4",
                       "--scale", scale, "--out", str(out))
    assert _one_line_error(code, err) and "scale must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("slope,digest,size", [
    ("3/4", "1fe777e6ab8993c6669f7c85d6007803b8c8431f1ae3183e9fcff25aec0a5878",
     6265),
    ("9/29", "15120428842d45bfd2c4d76f0d1c73d48acc081197bf71b26ef56054c916e09d",
     18224),
])
def test_render_bytes_pinned(tmp_path, capsys, slope, digest, size):
    # the SVG bytes of the first release of the renderer; any change to the
    # formatting or the layout of the document shows here
    out = tmp_path / "pin.svg"
    code, _, _ = run(capsys, "render", "--params", "1/2,1/2", "--slope", slope,
                     "--out", str(out))
    assert code == EXIT_OK
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("params,slope,digest,size", [
    # an escaping orbit with two highlighted obstacles
    ("2/3,2/3", "3/5",
     "431715b7ea64cc001d500450751f1aa15903d55d900c80e668e8752eec777b21",
     6129),
    # 201 points whose coordinates have denominators of up to 13 bits
    ("4/25,6/13", "2/5",
     "a9143d4c9a55547c6a2f40f059f355892a4e703cc2baa7cc03ec1fb830a5aa2a",
     126551),
])
def test_render_bytes_pinned_on_other_tables(tmp_path, capsys, params, slope,
                                             digest, size):
    # digests taken with the Fraction-based canvas coordinates
    out = tmp_path / "pin.svg"
    code, _, _ = run(capsys, "render", "--params", params, "--slope", slope,
                     "--out", str(out))
    assert code == EXIT_OK
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command,params,slope,digest,size", [
    ("lift", "1/2,1/2", "3/2",
     "858a05d7a864d03d73ada2ead22afa794af83bebd6c1a92422ccbfa389b9fff9", 97),
    ("lift", "1/2,1/2", "3/4",
     "36958ff49b2059073023f6eb6da14c4dce85f05ed4a405fa72956fe3228165cc", 97),
    ("lift", "2/3,2/3", "4/5",
     "763b85921c8df1570a98c9b6b5148bd450d35d838ebaeb7365d3635b59053138", 97),
    ("lift", "4/13,4/5", "1/3",
     "1519d3dde396366ea86fbe547ada0e62eb2edabb53bc3a1576d18ad6f037dc8d", 101),
    ("lift", "3/44,9/44", "1/4",
     "f2b16b8b3d93170ae3acaf538a0e2c8a1407d52386a93ed262f0628072c62cf7", 100),
    ("decompose", "1/2,1/2", "3/2",
     "177e8c73ed963a479923033b6e8845a8de989663be85c56d561bd47defd2e237", 91),
    ("decompose", "1/2,1/2", "3/4",
     "6514cf07dfd54d2c5ccea8f3c08ba1d3539f0ca1af355dfca16648304c797a95", 91),
    ("decompose", "2/3,2/3", "4/5",
     "848d55e16054a99613bab95e3d1f6beaf47115a37de394f992994926aeabffb8", 95),
    ("decompose", "4/13,4/5", "1/3",
     "d3de2555c5d6639ab590e844ba131962018fa1d90aeb217a70bc52dd33549514", 225),
    ("decompose", "3/44,9/44", "1/4",
     "6d5402410d1a11fd4f6bd4baf1ffffaa56dbb5642eb6f9d1935411c4717e8570", 8526),
])
def test_csv_bytes_pinned(tmp_path, capsys, command, params, slope, digest,
                          size):
    # the lift and decompose CSV bytes; the lift cases include strips whose
    # drift signs depend on which leaf of a cylinder gets sampled, so a
    # change of the sampled leaf shows here
    out = tmp_path / "pin.csv"
    code, _, _ = run(capsys, command, "--params", params, "--slope", slope,
                     "--csv", str(out))
    assert code == EXIT_OK
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("args,digest,size", [
    (("--params", "2/3,2/3", "--theta", "1.0000003", "--samples", "4",
      "--horizon", "20000", "--seed", "5"),
     "7218d0f7b07da55e3dd388b8ccc900500e028c3d14a9384ad815efa4b376c87a",
     19250),
    (("--params", "4/13,4/5", "--theta", "0.3183098861837907", "--samples",
      "3", "--horizon", "20000", "--seed", "2"),
     "04e4429e38c568020c7b5b727bb9ad10dc5ff1bdad135fd2a88c10b320a3576c",
     14458),
    (("--params", "2/3,2/3", "--theta", "0.41421356237309515", "--samples",
      "3", "--horizon", "5000", "--seed", "7", "--k", "2"),
     "ad669ad9008b51423aadf9f12817b285f42f2eff6f7edf198bf0de9331ddc099",
     466),
])
def test_diffuse_csv_bytes_pinned(tmp_path, capsys, args, digest, size):
    # the witnesses' float bits: a ballistic orbit just above slope 1, a
    # diffusive one, and k = 2
    out = tmp_path / "pin.csv"
    code, _, _ = run(capsys, "diffuse", *args, "--csv", str(out))
    assert code == EXIT_OK
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("horizon,digest,size", [
    (10**6, "bcf5228352b628e6399d23bdce7b32e6083563065c57005cc118386004f3bd68",
     9672),
    (10**7, "c93d508a138c65ab809a1758b1e1ce84b59831dbe16229cb8f786d8eac685b6d",
     9674),
])
def test_diffuse_csv_bytes_pinned_at_long_horizons(tmp_path, capsys, horizon,
                                                   digest, size):
    # a ballistic orbit just above slope 1 at 96 bits, whose T^8 orbit
    # crosses several piece boundaries over the horizon (digests taken
    # before orbits advanced whole runs of a piece at once)
    out = tmp_path / "pin.csv"
    code, _, _ = run(capsys, "diffuse", "--params", "2/3,2/3", "--theta",
                     "1.0000003", "--precision-bits", "96", "--samples", "2",
                     "--horizon", str(horizon), "--csv", str(out))
    assert code == EXIT_OK
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_diffuse_csv_carries_the_sup_it_reports(tmp_path, capsys):
    # each sample's witness rows, then one sup row; the largest sup is the
    # max the command prints
    out = tmp_path / "d.csv"
    code, stdout, _ = run(capsys, "diffuse", "--params", "2/3,2/3", "--theta",
                          "0.41421356237309515", "--samples", "3",
                          "--horizon", "5000", "--seed", "7", "--k", "2",
                          "--csv", str(out))
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    for sample_id in ("0", "1", "2"):
        *witnesses, sup = [r[1:] for r in rows if r[0] == sample_id]
        assert witnesses and {w[0] for w in witnesses} == {"witness"}
        assert all(w[4] == "" for w in witnesses)
        assert sup[0] == "sup" and sup[2] == "" and sup[4] == "5000"
        # the sup is at least the last record update, at or after it
        last = witnesses[-1]
        assert float.fromhex(sup[3]) >= float.fromhex(last[3])
        assert float.fromhex(sup[1]) >= float.fromhex(last[1])
    sups = [float.fromhex(r[4]) for r in rows if r[1] == "sup"]
    assert stdout.endswith(f"max {max(sups):.3f}\n")


def test_recur_shadowed_csv_bytes_pinned(tmp_path, capsys):
    # a 20-digit decimal direction quantized at 64 bits and shadowed at 128:
    # returns at 2 to 913 collisions, two samples lost at 920, one guard
    # checkpoint at 512 (digest taken before block stepping)
    out = tmp_path / "pin.csv"
    code, stdout, _ = run(capsys, "recur", "--params", "1/2,1/2", "--theta",
                          "0.31830988618379067154", "--samples", "12",
                          "--horizon", "920", "--seed", "4", "--csv", str(out))
    assert code == EXIT_OK
    assert stdout == \
        "returned 10 of 12 starts (0.8333) within 920 collisions\n"
    data = out.read_bytes()
    assert len(data) == 838
    assert hashlib.sha256(data).hexdigest() == \
        "567ed04901ab594341e83353d8d2aa347d03a60dc4af680b18e69ecbd1b1e8c2"


def test_render_periodic_negative_collision_count_is_one_line_error(tmp_path,
                                                                     capsys):
    # a periodic orbit draws its whole period, but a bad count is still bad
    out = tmp_path / "p.svg"
    code, stdout, err = run(capsys, "render", "--params", "1/2,1/2",
                            "--slope", "9/29", "--n-collisions", "-3",
                            "--out", str(out))
    assert _one_line_error(code, err) and "n_collisions must be >= 0" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_recur_jobs_below_one_is_one_line_error(capsys, jobs):
    code, out, err = run(capsys, "recur", "--params", "1/2,1/2",
                         "--theta", "13/21", "--samples", "2", "--jobs", jobs)
    assert _one_line_error(code, err) and "jobs must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("slope", ["0/1", "1/0"])
def test_stability_on_axis_slopes(capsys, slope):
    code, out, err = run(capsys, "stability", "--params", "1/2,1/2",
                         "--slope", slope)
    assert code == EXIT_OK and err == ""
    assert out == "stability at delta 1/1000 over 8 probes: stable\n"


def test_recur_summary_counts_returns(capsys):
    code, out, _ = run(capsys, "recur", "--params", "1/2,1/2",
                       "--theta", "13/21", "--samples", "2",
                       "--horizon", "1000")
    assert code == EXIT_OK
    assert out == "returned 2 of 2 starts (1.0000) within 1000 collisions\n"


def test_lift_out_of_collision_budget_is_one_line_error(capsys):
    # a cylinder whose sample runs out of the collision budget is not
    # retried with the next sample offset
    code, out, err = run(capsys, "lift", "--params", "4/25,6/13",
                         "--slope", "1/1000000")
    assert _one_line_error(code, err)
    assert err == ("error: cylinder 0: classification exhausted its budget "
                   "of 1000000 collisions\n")
    assert out == ""
