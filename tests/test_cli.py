import dataclasses
import io
import json
import subprocess
import sys
import time

import pytest

import oracles
from arithgenus import arith, cli, quadfield
from arithgenus.arith import Place
from arithgenus.brauer import parse_class
from test_quadfield import count_squarefree_everywhere


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_hilbert_positional(self):
        cmd = cli.parse(["hilbert", "-1", "3", "3"])
        assert cmd.verb == "hilbert"
        assert cmd.args["a"] == -1 and cmd.args["b"] == 3
        assert cmd.args["v"] == Place(3)

    def test_genus_class_string(self):
        cmd = cli.parse(["genus", "--algebra", "2:1/3,3:1/3,5:1/3"])
        assert cmd.verb == "genus"
        assert cmd.args["algebra"] == parse_class("2:1/3,3:1/3,5:1/3")

    def test_eta_rejects_non_squarefree(self):
        with pytest.raises(cli.UsageError):
            cli.parse(["eta", "--d", "12"])

    def test_unknown_verb(self):
        with pytest.raises(cli.UsageError):
            cli.parse(["frobnicate"])

    def test_malformed_class(self):
        with pytest.raises(cli.UsageError):
            cli.parse(["genus", "--algebra", "2:bogus"])

    def test_abhn_violation_is_usage_error(self):
        with pytest.raises(cli.UsageError):
            cli.parse(["genus", "--algebra", "2:1/3"])

    @pytest.mark.parametrize("verb", ["unit", "eta", "classnum"])
    def test_d_checked_once(self, verb, monkeypatch):
        calls = count_squarefree_everywhere(monkeypatch)
        assert cli.execute(cli.parse([verb, "--d=79"])).ok
        assert calls == [79]
        calls.clear()
        with pytest.raises(cli.UsageError, match="d must be a squarefree integer > 1, got 12"):
            cli.parse([verb, "--d=12"])
        assert calls == [12]

    def test_low_precision_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse(["eta", "--d", "5", "--prec", "16"])

    def test_precision_limit(self, monkeypatch):
        limit = quadfield.MAX_PREC_BITS
        for verb in (["eta", "--d=5"], ["spectrum", "--algebra=2:1/2,3:1/2", "--bound=30"]):
            assert cli.parse(verb + [f"--prec={limit}"]).args["prec"] == limit
            with pytest.raises(cli.UsageError, match=f"precision must be at most {limit} bits"):
                cli.parse(verb + [f"--prec={limit + 1}"])
        monkeypatch.setenv("ARITHGENUS_PREC_BITS", str(limit + 1))
        with pytest.raises(cli.UsageError, match=f"ARITHGENUS_PREC_BITS must be at most {limit}"):
            cli.parse(["eta", "--d=5"])


class TestExecute:
    def test_hilbert_report(self):
        report = cli.execute(cli.parse(["hilbert", "-1", "3", "3"]))
        assert report.to_json() == '{"ok":true,"result":-1}'

    def test_genus_report(self):
        report = cli.execute(cli.parse(["genus", "--algebra", "2:1/3,3:1/3,5:1/3"]))
        assert report.ok
        assert report.result["size"] == 2

    def test_triple_verdict(self):
        report = cli.execute(
            cli.parse(
                [
                    "triple",
                    "--triple1",
                    "form=1,1,-3;K=Q;S=",
                    "--triple2",
                    "form=1,2,-7;K=Q;S=",
                ]
            )
        )
        assert report.ok
        assert report.result["commensurable"] is False

    def test_field_tag_short_circuit(self):
        report = cli.execute(
            cli.parse(
                [
                    "triple",
                    "--triple1",
                    "form=1,1,-3;K=Q;S=",
                    "--triple2",
                    "form=opaque;K=Q(sqrt2);S=",
                ]
            )
        )
        assert report.ok and report.result["commensurable"] is False

    def test_domain_error_in_report(self):
        report = cli.execute(cli.parse(["spectrum", "--algebra", "", "--bound", "10"]))
        assert not report.ok
        assert "quaternion" in report.error

    def test_weakcomm_witness(self):
        report = cli.execute(
            cli.parse(["weakcomm", "--set1", "6,10", "--set2", "3/5,7"])
        )
        assert report.result == {"weakly_commensurable": True, "witness": "3/5"}

    def test_twins(self):
        report = cli.execute(
            cli.parse(["twins", "--form", "1,-1,1,-1,1,-1,1", "--algebra", ""])
        )
        assert report.result == {"twins": True}

    def test_weyl(self):
        report = cli.execute(
            cli.parse(["weyl", "--dim", "2", "--volume", "12.566370614359172", "--lam", "1"])
        )
        assert abs(report.result - 1.0) < 1e-12


class TestLencomm:
    def test_small_bound_does_not_change_verdict(self, capsys):
        # admissible sets of 2,3 and 2,5 agree up to 2, but the classes differ
        code, out, err = run_main(
            ["lencomm", "--algebra1=2:1/2,3:1/2", "--algebra2=2:1/2,5:1/2", "--bound=2"], capsys
        )
        assert (code, out, err) == (
            0, '{"ok":true,"result":{"length_commensurable":false,"bound":2}}\n', ""
        )


class TestMainAndExitCodes:
    def test_success_exit_zero(self, capsys):
        code, out, _ = run_main(["hilbert", "-1", "3", "3"], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": True, "result": -1}

    def test_usage_error_exit_two(self, capsys):
        code, out, err = run_main(["eta", "--d", "12"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["ok"] is False

    def test_domain_error_exit_one(self, capsys):
        code, out, _ = run_main(
            ["spectrum", "--algebra", "", "--bound", "10"], capsys
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_quaternion_factoring_limit_is_domain_error(self, capsys, monkeypatch):
        # the class is built when the command runs, not while it is parsed
        monkeypatch.setattr(arith, "_RHO_BUDGET", 2**12)
        semiprime = 1073741789 * 1073741783
        assert run_main(["brauer", f"--quaternion=-1,{semiprime}"], capsys) == (
            1, '{"ok":false,"error":"factorization gave up: no factor of '
               f'{semiprime} within 4096 rho iterations"}}\n', "")

    def test_quaternion_zero_entry_is_usage_error(self, capsys):
        for argv in (["brauer", "--quaternion=0,1"], ["brauer", "--quaternion=3,0", "--add=x"]):
            assert run_main(argv, capsys) == (
                2, "", '{"ok":false,"error":"usage: cannot factor 0"}\n')

    def test_triple_quaternion_factoring_limit_is_domain_error(self, capsys, monkeypatch):
        # the quat= class is built when the command runs, not while it is parsed
        monkeypatch.setattr(arith, "_RHO_BUDGET", 2**12)
        semiprime = 1073741789 * 1073741783
        for argv in (["triple", f"--triple1=quat=-1,{semiprime}", "--triple2=form=1,1,1"],
                     ["triple", "--triple1=quat=-1,3", f"--triple2=quat=-1,{semiprime};S=5"]):
            assert run_main(argv, capsys) == (
                1, '{"ok":false,"error":"factorization gave up: no factor of '
                   f'{semiprime} within 4096 rho iterations"}}\n', "")

    def test_triple_quaternion_usage_errors_stay_usage_errors(self, capsys):
        for argv, error in (
                (["triple", "--triple1=quat=0,1", "--triple2=form=1,1,1"], "cannot factor 0"),
                (["triple", "--triple1=quat=-1,3", "--triple2=quat=3,0"], "cannot factor 0"),
                (["triple", "--triple1=quat=-1,3;S=4", "--triple2=form=1,1,1"],
                 "S must contain primes; got 4")):
            assert run_main(argv, capsys) == (
                2, "", f'{{"ok":false,"error":"usage: {error}"}}\n')
        assert run_main(["triple", "--triple1=quat=-1,3;S=5", "--triple2=quat=2,3;S=5"],
                        capsys) == (0, '{"ok":true,"result":{"commensurable":true}}\n', "")

    def test_triple_form_factoring_limit_keeps_its_routing(self, capsys, monkeypatch):
        # a form's invariants are computed when first read: with S, by the S
        # check while the triple is built (a usage error); without S, by the
        # verdict when the command runs (a domain error)
        monkeypatch.setattr(arith, "_RHO_BUDGET", 2**12)
        semiprime = 1073741789 * 1073741783
        error = f"factorization gave up: no factor of {semiprime} within 4096 rho iterations"
        assert run_main(["triple", f"--triple1=form={semiprime},1,1;S=5",
                         "--triple2=form=1,1,1;S=5"], capsys) == (
            2, "", f'{{"ok":false,"error":"usage: {error}"}}\n')
        for argv in (["triple", f"--triple1=form={semiprime},1,1", "--triple2=form=1,1,1"],
                     ["triple", "--triple1=form=1,1,1", f"--triple2=form=1,-1,{semiprime}"]):
            assert run_main(argv, capsys) == (1, f'{{"ok":false,"error":"{error}"}}\n', "")

    def test_determinism(self, capsys):
        argv = ["spectrum", "--algebra", "2:1/2,3:1/2", "--bound", "30"]
        _, first, _ = run_main(argv, capsys)
        _, second, _ = run_main(argv, capsys)
        assert first == second

    def test_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("ARITHGENUS_PREC_BITS", "96")
        code, out, _ = run_main(["eta", "--d", "5"], capsys)
        assert code == 0
        assert json.loads(out)["prec"] == 96

    def test_round_trip_class_and_unit_strings(self, capsys):
        _, out, _ = run_main(["brauer", "--quaternion=-1,3"], capsys)
        payload = json.loads(out)["result"]
        assert parse_class(payload["class"]) == parse_class("2:1/2,3:1/2")
        _, out, _ = run_main(["unit", "--d", "13"], capsys)
        payload = json.loads(out)["result"]
        from fractions import Fraction

        from arithgenus.quadfield import QuadField, fundamental_unit

        rebuilt = oracles.make_unit(
            QuadField(payload["d"]), Fraction(payload["x"]), Fraction(payload["y"])
        )
        assert rebuilt == fundamental_unit(13)


class TestProvenPrimality:
    PSI_12 = "318665857834031151167461"  # 399165290221 * 798330580441

    def test_twelve_base_pseudoprime_is_not_a_place(self, capsys):
        assert run_main(["hilbert", "2", "3", self.PSI_12], capsys) == (
            2, "", f'{{"ok":false,"error":"usage: {self.PSI_12} is not prime, '
                   'so not a finite place"}\n')

    def test_twelve_base_pseudoprime_is_factored(self, capsys):
        code, out, _ = run_main(["weakcomm", f"--set1={self.PSI_12}",
                                 "--set2=399165290221,798330580441"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["weakly_commensurable"] is True


class TestBatch:
    def test_stream_survives_bad_lines(self, capsys, monkeypatch):
        lines = "\n".join(
            [
                json.dumps({"argv": ["hilbert", "-1", "3", "3"]}),
                "not json",
                json.dumps({"argv": ["eta", "--d", "12"]}),
                json.dumps({"argv": ["classnum", "--d", "10"]}),
                json.dumps({"wrong": "shape"}),
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code, out, _ = run_main(["--batch"], capsys)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["ok"] for r in reports] == [True, False, False, True, False]
        assert reports[3]["result"] == {"d": 10, "h": 2, "narrow": 2}

    def test_internal_error_is_not_a_bad_line(self, capsys, monkeypatch):
        # an unexpected exception from a builder is the program's fault: it is
        # answered as such, and the next line is still answered
        def broken(ns):
            raise KeyError("missing")

        monkeypatch.setitem(cli._VERBS, "classnum",
                            dataclasses.replace(cli._VERBS["classnum"], build=broken))
        lines = [json.dumps({"argv": ["classnum", "--d", "10"]}),
                 json.dumps({"argv": ["hilbert", "-1", "3", "3"]}),
                 "[1]",
                 json.dumps({"args": ["hilbert", "-1", "3", "3"]})]
        out = io.StringIO()
        assert cli._run_batch(io.StringIO("\n".join(lines)), out) == 0
        assert out.getvalue().splitlines() == [
            '{"ok":false,"error":"internal error: KeyError: \'missing\'"}',
            '{"ok":true,"result":-1}',
            '{"ok":false,"error":"bad batch line: list indices must be integers or slices, not str"}',
            '{"ok":false,"error":"bad batch line: \'argv\'"}',
        ]

    def test_output_order_matches_input(self, capsys, monkeypatch):
        lines = "\n".join(
            json.dumps({"argv": ["hilbert", str(a), "3", "3"]}) for a in (-1, 2, 5)
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        _, out, _ = run_main(["--batch"], capsys)
        results = [json.loads(line)["result"] for line in out.strip().splitlines()]
        assert len(results) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["brauer", "--quaternion=0,1"],
            ["triple", "--triple1=quat=0,1", "--triple2=form=1,1,1"],
            ["weyl", "--dim=1", "--volume=nan", "--lam=0"],
            ["weyl", "--dim=400", "--volume=1", "--lam=1e300"],
            ["weyl", "--dim=2", "--volume=inf", "--lam=1"],
            ["weyl", "--dim=2", "--volume=1", "--lam=inf"],
            ["weyl", "--dim=1", "--volume=1e308", "--lam=1e308"],
        ],
    )
    def test_bad_line_then_good_line(self, argv, capsys, monkeypatch):
        lines = [json.dumps({"argv": argv}), json.dumps({"argv": ["hilbert", "-1", "3", "3"]})]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        code, out, _ = run_main(["--batch"], capsys)
        assert code == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        reports = [json.loads(line, parse_constant=no_constant) for line in out.splitlines()]
        assert [r["ok"] for r in reports] == [False, True]

    @pytest.mark.parametrize("argv", [["-h"], ["hilbert", "--help"]])
    def test_help_line_then_good_line(self, argv, capsys, monkeypatch):
        lines = [json.dumps({"argv": argv}), json.dumps({"argv": ["hilbert", "-1", "3", "3"]})]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        assert run_main(["--batch"], capsys) == (
            0,
            '{"ok":false,"error":"usage: help is not available in --batch"}\n'
            '{"ok":true,"result":-1}\n',
            "",
        )

    def test_over_limit_lines_fail_cleanly(self, child_env):
        # 2**29 sign choices, and a 126-bit semiprime of two 63-bit primes
        # that Brent rho cannot split within its budget
        first_30_primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        semiprime = (2**63 - 25) * (2**63 - 165)
        hilbert = json.dumps({"argv": ["hilbert", "-1", "3", "3"]})
        lines = [json.dumps({"argv": ["family", "--primes=" + ",".join(map(str, first_30_primes))]}),
                 hilbert,
                 json.dumps({"argv": ["brauer", f"--quaternion=-1,{semiprime}"]}),
                 hilbert]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "arithgenus.cli", "--batch"],
                              input="\n".join(lines) + "\n", capture_output=True, text=True,
                              timeout=60, env=child_env)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert replies == [
            {"ok": False, "error": "genus enumeration needs 536870912 combinations, "
                                   "above the limit 65536"},
            {"ok": True, "result": -1},
            {"ok": False, "error": f"factorization gave up: no factor of {semiprime} "
                                   "within 1048576 rho iterations"},
            {"ok": True, "result": -1},
        ]
        assert elapsed < 20

    def test_thousand_digit_integers_fail_fast(self, capsys, monkeypatch):
        # before the size cap, factoring one ran for about half a minute
        big = str(10**999 + 7)
        hilbert = json.dumps({"argv": ["hilbert", "-1", "3", "3"]})
        lines = [json.dumps({"argv": ["brauer", f"--quaternion=-1,{big}"]}), hilbert,
                 json.dumps({"argv": ["hilbert", "2", "3", big]}), hilbert]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        start = time.perf_counter()
        code, out, _ = run_main(["--batch"], capsys)
        assert time.perf_counter() - start < 2
        assert code == 0
        cap = "integer of 3319 bits exceeds the supported bound 256 bits"
        assert [json.loads(line) for line in out.splitlines()] == [
            {"ok": False, "error": cap}, {"ok": True, "result": -1},
            {"ok": False, "error": f"usage: {cap}"}, {"ok": True, "result": -1},
        ]

    def test_exponent_notation_fails_fast(self, child_env):
        # Fraction("1e2000000") builds 10**2000000, and the valuation at 5
        # then divides two million times: over 90 s before the bound
        lines = [json.dumps({"argv": ["hilbert", "1e2000000", "3", "5"]}),
                 json.dumps({"argv": ["hilbert", "2", "3", "inf"]})]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "arithgenus.cli", "--batch"],
                              input="\n".join(lines) + "\n", capture_output=True, text=True,
                              timeout=60, env=child_env)
        assert time.perf_counter() - start < 2
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            {"ok": False,
             "error": "usage: malformed rational '1e2000000': denotes more than 4300 digits"},
            {"ok": True, "result": 1},
        ]

    @pytest.mark.parametrize("argv,error", [
        (["hilbert", "1e5000", "3", "5"], "malformed rational '1e5000'"),
        (["hilbert", "2", "1E-4300", "5"], "malformed rational '1E-4300'"),
        (["hilbert", "0." + "1" * 4301, "3", "5"], "malformed rational '0.1111"),
        (["brauer", "--quaternion=-1,1e9999"], "malformed rational '1e9999'"),
        (["brauer", "--algebra=2:1e5000,3:1/2"], "malformed class '2:1e5000,3:1/2'"),
        (["form", "--form=1e5000,1,-3"], "malformed form '1e5000,1,-3'"),
        (["weakcomm", "--set1=1e5000", "--set2=2"], "malformed rational '1e5000'"),
        (["triple", "--triple1=quat=-1,1e5000;K=Q;S=", "--triple2=form=1,1,-3;K=Q;S="],
         "malformed rational '1e5000'"),
    ])
    def test_exponent_bound_at_every_rational_input(self, argv, error):
        with pytest.raises(cli.UsageError, match=f"^{error}.*: denotes more than 4300 digits$"):
            cli.parse(argv)

    def test_exponent_just_inside_the_bound(self, capsys):
        assert run_main(["hilbert", "1e4299", "3", "5"], capsys) == (0, '{"ok":true,"result":-1}\n', "")
        assert run_main(["hilbert", "1e-4299", "3", "5"], capsys) == (0, '{"ok":true,"result":-1}\n', "")

    def test_double_dash_value_then_good_line(self, capsys, monkeypatch):
        # argparse reads "--algebra=--" as an empty list, which stopped the stream
        lines = [json.dumps({"argv": ["genus", "--algebra=--"]}),
                 json.dumps({"argv": ["hilbert", "-1", "3", "3"]})]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        assert run_main(["--batch"], capsys) == (
            0,
            '{"ok":false,"error":"usage: \'--\' is not an option value"}\n{"ok":true,"result":-1}\n',
            "",
        )

    def test_mpmath_is_imported_only_for_real_values(self, child_env):
        script = (
            "import io, json, sys\n"
            "import arithgenus.cli as cli\n"
            "def ask(argv):\n"
            "    cli._run_batch(io.StringIO(json.dumps({'argv': argv})), io.StringIO())\n"
            "    return 'mpmath' in sys.modules\n"
            "print(ask(['hilbert', '2', '3', 'inf']), ask(['eta', '--d', '5']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=child_env)
        assert proc.stdout.split() == ["False", "True"], proc.stderr

    def test_spectrum_and_precision_limits_fail_cleanly(self, child_env):
        # without the limits, the bound alone would run for hours
        hilbert = json.dumps({"argv": ["hilbert", "-1", "3", "3"]})
        lines = [json.dumps({"argv": ["spectrum", "--algebra=2:1/2,3:1/2", "--bound=100000000"]}),
                 hilbert,
                 json.dumps({"argv": ["spectrum", "--algebra=2:1/2,3:1/2", "--bound=300",
                                      "--prec=1000000"]}),
                 hilbert]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "arithgenus.cli", "--batch"],
                              input="\n".join(lines) + "\n", capture_output=True, text=True,
                              timeout=60, env=child_env)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert replies == [
            {"ok": False, "error": "bound 100000000 exceeds the supported bound 10000"},
            {"ok": True, "result": -1},
            {"ok": False, "error": "usage: precision must be at most 1024 bits"},
            {"ok": True, "result": -1},
        ]
        assert elapsed < 20

    def test_help_outside_batch_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arithgenus")

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        counts = []
        for n in (1, 50):
            built.clear()
            line = json.dumps({"argv": ["hilbert", "-1", "3", "3"]})
            monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join([line] * n)))
            run_main(["--batch"], capsys)
            counts.append(len(built))
        assert counts[1] <= counts[0]


# Exact replies recorded before the verb table replaced the per-verb
# if-chains: one command per verb, then each class of usage error.  The
# argparse texts depend on the order in which verbs and options are declared.
VERB_LIST = (
    "'hilbert', 'brauer', 'genus', 'family', 'unit', 'eta', 'classnum', "
    "'spectrum', 'lencomm', 'weakcomm', 'form', 'twins', 'triple', 'weyl'"
)
UNKNOWN_VERB = (
    '{"ok":false,"error":"usage: argument verb: invalid choice: '
    "'frobnicate' (choose from " + VERB_LIST + ')"}'
)
GOLDEN_MAIN = [
    (["hilbert", "-1", "3", "3"], 0, '{"ok":true,"result":-1}', ""),
    (
        ["brauer", "--algebra=2:1/3,3:1/3,5:1/3", "--add=2:1/3,7:2/3", "--neg"],
        0,
        '{"ok":true,"result":{"class":"2:1/3,3:2/3,5:2/3,7:1/3",'
        '"local_index":{"2":3,"3":3,"5":3,"7":3},"global_index":3}}',
        "",
    ),
    (
        ["brauer", "--quaternion=-1,3"],
        0,
        '{"ok":true,"result":{"class":"2:1/2,3:1/2",'
        '"local_index":{"2":2,"3":2},"global_index":2}}',
        "",
    ),
    (
        ["genus", "--algebra=2:1/3,3:1/3,5:1/3"],
        0,
        '{"ok":true,"result":{"base":"2:1/3,3:1/3,5:1/3","size":2,'
        '"members":["2:1/3,3:1/3,5:1/3","2:2/3,3:2/3,5:2/3"]}}',
        "",
    ),
    (
        ["family", "--primes=7,13"],
        0,
        '{"ok":true,"result":{"primes":[7,13],"size":2,'
        '"members":["7:1/3,13:2/3","7:2/3,13:1/3"]}}',
        "",
    ),
    # members in sign-product order over the primes as given, not sorted
    (
        ["family", "--primes=5,2,3,7"],
        0,
        '{"ok":true,"result":{"primes":[5,2,3,7],"size":6,"members":['
        '"2:1/3,3:2/3,5:1/3,7:2/3","2:2/3,3:1/3,5:1/3,7:2/3","2:2/3,3:2/3,5:1/3,7:1/3",'
        '"2:1/3,3:1/3,5:2/3,7:2/3","2:1/3,3:2/3,5:2/3,7:1/3","2:2/3,3:1/3,5:2/3,7:1/3"]}}',
        "",
    ),
    (
        ["genus", "--algebra=2:1/3,3:1/3,5:1/6,7:1/6"],
        0,
        '{"ok":true,"result":{"base":"2:1/3,3:1/3,5:1/6,7:1/6","size":6,"members":['
        '"2:1/3,3:1/3,5:1/6,7:1/6","2:1/3,3:2/3,5:1/6,7:5/6","2:1/3,3:2/3,5:5/6,7:1/6",'
        '"2:2/3,3:1/3,5:1/6,7:5/6","2:2/3,3:1/3,5:5/6,7:1/6","2:2/3,3:2/3,5:5/6,7:5/6"]}}',
        "",
    ),
    (
        ["unit", "--d=13"],
        0,
        '{"ok":true,"result":{"d":13,"x":"3/2","y":"1/2","norm":-1,'
        '"text":"3/2 + 1/2*sqrt(13)"}}',
        "",
    ),
    (
        ["unit", "--d=7", "--norm-one"],
        0,
        '{"ok":true,"result":{"d":7,"x":"8","y":"3","norm":1,"text":"8 + 3*sqrt(7)"}}',
        "",
    ),
    (
        ["eta", "--d=5", "--prec=64"],
        0,
        '{"ok":true,"prec":64,"result":{"d":5,'
        '"eta":"2.6180339887498948480987898124183743675530422478914"}}',
        "",
    ),
    # eta(435) = 52847209807841084161.99999999999999999998..., one ulp at 64
    # bits is 4; the sine product rounded it up to ...164
    (
        ["eta", "--d=435", "--prec=64"],
        0,
        '{"ok":true,"prec":64,"result":{"d":435,"eta":"52847209807841084160.0"}}',
        "",
    ),
    (["classnum", "--d=10"], 0, '{"ok":true,"result":{"d":10,"h":2,"narrow":2}}', ""),
    (
        ["spectrum", "--algebra=2:1/2,3:1/2", "--bound=30"],
        0,
        '{"ok":true,"prec":192,"result":['
        '{"d":2,"log_eta":"1.7627471740390860504652186499595846180563206565233"},'
        '{"d":3,"log_eta":"2.633915793849633417250092694615936888053963942935"},'
        '{"d":5,"log_eta":"0.96242365011920689499551782684873684627036866877132"},'
        '{"d":6,"log_eta":"4.5848633391223553756015746226960308632437364800314"},'
        '{"d":11,"log_eta":"5.986445692252761795825335427548365826167320902362"},'
        '{"d":14,"log_eta":"6.8001688282266790014003744284897341290395657462879"},'
        '{"d":15,"log_eta":"8.2537482755822421869091246904805274858263657995336"},'
        '{"d":21,"log_eta":"3.1335984739448221573281137251609669877241647021853"},'
        '{"d":23,"log_eta":"7.7415334005741875111962335971414902991899748231333"},'
        '{"d":26,"log_eta":"9.2497533650910104810142493654576575346329802905862"},'
        '{"d":29,"log_eta":"3.2944622927421914212497172208872393270088288603865"},'
        '{"d":30,"log_eta":"12.355879619378412071665919414945180378133817764546"}]}',
        "",
    ),
    (
        ["lencomm", "--algebra1=2:1/2,3:1/2", "--algebra2=2:1/2,5:1/2"],
        0,
        '{"ok":true,"result":{"length_commensurable":false,"bound":200}}',
        "",
    ),
    (
        ["weakcomm", "--set1=6,10", "--set2=3/5,7"],
        0,
        '{"ok":true,"result":{"weakly_commensurable":true,"witness":"3/5"}}',
        "",
    ),
    (
        ["form", "--form=1,1,-3"],
        0,
        '{"ok":true,"result":{"dim":3,"disc":-3,"signature":[2,1],'
        '"hasse_minus_places":[],"isotropic_global":false,"witt_global":0}}',
        "",
    ),
    (
        ["form", "--form=1,1,-3", "--place=3"],
        0,
        '{"ok":true,"result":{"place":"3","isotropic":false,"witt":0}}',
        "",
    ),
    (
        ["twins", "--form=1,-1,1,-1,1,-1,1", "--algebra="],
        0,
        '{"ok":true,"result":{"twins":true}}',
        "",
    ),
    (
        ["triple", "--triple1=form=1,1,-3;K=Q;S=", "--triple2=form=1,2,-7;K=Q;S="],
        0,
        '{"ok":true,"result":{"commensurable":false,'
        '"reason":"forms are not similar over Q"}}',
        "",
    ),
    (
        ["weyl", "--dim=2", "--volume=12.566370614359172", "--lam=1"],
        0,
        '{"ok":true,"result":1.0}',
        "",
    ),
    (
        ["spectrum", "--algebra=", "--bound=10"],
        1,
        '{"ok":false,"error":"algebra must be a quaternion division class (index 2)"}',
        "",
    ),
    (["frobnicate"], 2, "", UNKNOWN_VERB),
    (
        ["genus"],
        2,
        "",
        '{"ok":false,"error":"usage: the following arguments are required: --algebra"}',
    ),
    (
        ["hilbert", "-1", "3", "3", "--bogus"],
        2,
        "",
        '{"ok":false,"error":"usage: unrecognized arguments: --bogus"}',
    ),
    ([], 2, "", '{"ok":false,"error":"usage: a subcommand is required (or --batch)"}'),
    # a repeated place is refused, not overwritten by its later entry
    (
        ["brauer", "--algebra=2:1/2,2:1/2,3:1/2,3:1/2"],
        2,
        "",
        '{"ok":false,"error":"usage: malformed class \'2:1/2,2:1/2,3:1/2,3:1/2\': '
        'duplicate invariant for place 2"}',
    ),
    (
        ["genus", "--algebra=5:1/3,5:2/3,7:1/3,7:1/3"],
        2,
        "",
        '{"ok":false,"error":"usage: malformed class \'5:1/3,5:2/3,7:1/3,7:1/3\': '
        'duplicate invariant for place 5"}',
    ),
    (
        ["weakcomm", "--set1=,", "--set2=2"],
        2,
        "",
        '{"ok":false,"error":"usage: eigenvalue set must be nonempty"}',
    ),
    (
        ["weakcomm", "--set1=2,0", "--set2=x"],
        2,
        "",
        '{"ok":false,"error":"usage: eigenvalues must be nonzero"}',
    ),
]
GOLDEN_BATCH = [
    (
        '{"argv": []}',
        '{"ok":false,"error":"usage: a subcommand is required (or --batch)"}',
    ),
    (
        "not json",
        '{"ok":false,"error":"bad batch line: Expecting value: line 1 column 1 (char 0)"}',
    ),
    ('{"argv": ["--batch"]}', '{"ok":false,"error":"usage: --batch cannot be nested"}'),
    ('{"argv": ["frobnicate"]}', UNKNOWN_VERB),
    ('{"argv": ["hilbert", "-1", "3", "3"]}', '{"ok":true,"result":-1}'),
]


class TestGolden:
    @pytest.mark.parametrize(
        "argv,code,out,err", GOLDEN_MAIN, ids=[" ".join(g[0]) or "no-args" for g in GOLDEN_MAIN]
    )
    def test_main(self, argv, code, out, err, capsys, monkeypatch):
        monkeypatch.delenv("ARITHGENUS_PREC_BITS", raising=False)
        assert run_main(argv, capsys) == (
            code,
            out + "\n" if out else "",
            err + "\n" if err else "",
        )

    def test_batch(self, capsys, monkeypatch):
        lines = [line for line, _ in GOLDEN_BATCH]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        replies = "".join(reply + "\n" for _, reply in GOLDEN_BATCH)
        assert run_main(["--batch"], capsys) == (0, replies, "")


def test_installed_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "arithgenus.cli", "hilbert", "-1", "3", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ok": True, "result": -1}
