"""A cold start imports only what it reads: ``arithgenus``,
``arithgenus.cli`` and ``arithgenus.arith`` for a ``hilbert`` line, a
one-shot call's verb modules (with what they import), and in a ``--batch``
stream the six library modules as one group on the first line that reads any
of them.  The package's exports resolve on first use, to the objects their
modules define."""

import importlib
import io
import json
import subprocess
import sys

import pytest

import arithgenus
from arithgenus import cli, spectrum
from test_trace_targets import SPANS

MODULES = ["arith", "brauer", "cli", "genus", "qforms", "quadfield", "spectrum", "weakcomm"]


def run_child(script, child_env, stdin=None):
    proc = subprocess.run([sys.executable, *script], input=stdin, capture_output=True, text=True,
                          timeout=60, env=child_env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartUp:
    def test_hilbert_loads_only_cli_and_arith(self, child_env):
        script = (
            "import io, json, sys\n"
            "import arithgenus.cli as cli\n"
            "def ask(argv):\n"
            "    out = io.StringIO()\n"
            "    cli._run_batch(io.StringIO(json.dumps({'argv': argv})), out)\n"
            "    loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'arithgenus')\n"
            "    stand_ins = [n for n in cli._LIBRARY if type(vars(cli)[n]) is cli._Library]\n"
            "    print(json.dumps([out.getvalue().strip(), loaded, stand_ins, 'mpmath' in sys.modules]))\n"
            "ask(['hilbert', '2', '3', 'inf'])\n"
            "ask(['unit', '--d=5'])\n"
        )
        hilbert, unit = map(json.loads, run_child(["-c", script], child_env).splitlines())
        assert hilbert == ['{"ok":true,"result":1}',
                           ["arithgenus", "arithgenus.arith", "arithgenus.cli"],
                           list(cli._LIBRARY), False]
        assert unit == ['{"ok":true,"result":{"d":5,"x":"1/2","y":"1/2","norm":-1,'
                        '"text":"1/2 + 1/2*sqrt(5)"}}',
                        [f"arithgenus.{m}" if m else "arithgenus" for m in ["", *MODULES]],
                        [], False]

    def test_first_line_parsed_by_argparse(self, child_env):
        # the abbreviated --alg goes to the argparse tree, whose builder is the
        # first reader of a library module
        genus = '{"ok":true,"result":{"base":"2:1/2,3:1/2","size":1,"members":["2:1/2,3:1/2"]}}'
        lines = [["genus", "--alg=2:1/2,3:1/2"], ["hilbert", "2", "3", "inf"], ["unit", "--d=5"]]
        stdin = "".join(json.dumps({"argv": argv}) + "\n" for argv in lines)
        assert run_child(["-m", "arithgenus.cli", "--batch"], child_env, stdin).splitlines() == [
            genus, '{"ok":true,"result":1}',
            '{"ok":true,"result":{"d":5,"x":"1/2","y":"1/2","norm":-1,"text":"1/2 + 1/2*sqrt(5)"}}']
        assert run_child(["-m", "arithgenus.cli", *lines[0]], child_env) == genus + "\n"

    @pytest.mark.parametrize("argv, modules", [
        (["hilbert", "2", "3", "inf"], []),
        (["unit", "--d=5"], ["quadfield"]),
        (["eta", "--d=5", "--prec=64"], ["quadfield"]),
        (["weakcomm", "--set1=2,3", "--set2=6"], ["weakcomm"]),
        (["genus", "--algebra=2:1/2,3:1/2"], ["brauer", "genus"]),
        (["form", "--form=1,1,-1"], ["brauer", "qforms"]),
        (["weyl", "--dim=2", "--volume=1", "--lam=1"], ["brauer", "quadfield", "spectrum"]),
    ])
    def test_one_shot_call_loads_only_its_verb(self, child_env, argv, modules):
        script = (
            "import json, sys\n"
            "import arithgenus.cli as cli\n"
            f"cli.main({argv!r})\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'arithgenus')))\n"
        )
        loaded = json.loads(run_child(["-c", script], child_env).splitlines()[-1])
        assert loaded == ["arithgenus", *sorted(f"arithgenus.{m}" for m in ["arith", "cli", *modules])]

    def test_tracer_installs_after_one_stream_line(self, child_env):
        # the benchmark's tracer reads every library module from sys.modules
        script = (
            "import io, types\n"
            "import arithgenus.cli as cli\n"
            "cli._run_batch(io.StringIO('{\"argv\": [\"unit\", \"--d=5\"]}\\n'), io.StringIO())\n"
            "spans = types.ModuleType('spans')\n"
            f"exec(compile(open({str(SPANS)!r}).read(), 'spans.py', 'exec'), spans.__dict__)\n"
            "tracer = spans.Tracer()\n"
            "tracer.install()\n"
            "out = io.StringIO()\n"
            "cli._run_batch(io.StringIO('{\"argv\": [\"weakcomm\", \"--set1=2,3\", \"--set2=6\"]}\\n'), out)\n"
            "tracer.uninstall()\n"
            "print(out.getvalue().strip(), len(tracer))\n"
        )
        reply, spans = run_child(["-c", script], child_env).split()
        assert reply == '{"ok":true,"result":{"weakly_commensurable":true,"witness":"6"}}'
        assert int(spans) > 0

    def test_package_import_loads_no_module(self, child_env):
        script = (
            "import sys\n"
            "import arithgenus\n"
            "before = sorted(m for m in sys.modules if m.startswith('arithgenus'))\n"
            "print(before, arithgenus.spectrum is sys.modules['arithgenus.spectrum'])\n"
        )
        assert run_child(["-c", script], child_env).split() == ["['arithgenus']", "True"]


class TestExports:
    def test_every_export_is_its_module_object(self):
        for name in arithgenus.__all__:
            module = importlib.import_module(f"arithgenus.{arithgenus._EXPORTS[name]}")
            assert getattr(arithgenus, name) is getattr(module, name), name

    def test_star_import_and_dir_list_every_export(self):
        namespace = {}
        exec("from arithgenus import *", namespace)
        assert set(arithgenus.__all__) <= namespace.keys()
        assert set(arithgenus.__all__) <= set(dir(arithgenus))
        assert len(arithgenus.__all__) == len(set(arithgenus.__all__)) == 57

    def test_submodule_and_unknown_name(self):
        assert arithgenus.spectrum is spectrum is sys.modules["arithgenus.spectrum"]
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(arithgenus, "no_such_name")

    def test_rebound_library_function_reaches_the_handler(self, monkeypatch):
        # after the group load, cli's globals are the modules themselves, so a
        # rebinding (as a tracer makes) is seen by every handler
        def weyl():
            out = io.StringIO()
            cli._run_batch(io.StringIO('{"argv": ["weyl", "--dim=2", "--volume=1", "--lam=1"]}\n'), out)
            return out.getvalue()

        assert weyl().startswith('{"ok":true,')
        assert all(vars(cli)[name] is sys.modules[f"arithgenus.{name}"] for name in cli._LIBRARY)
        monkeypatch.setattr(spectrum, "weyl_main_term", lambda query: 12345)
        assert weyl() == '{"ok":true,"result":12345}\n'
