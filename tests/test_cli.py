import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlwe.cli
from nlwe.bound import OptimizerOptions
from nlwe.certify import EnumerationBudgetExceeded
from nlwe.cli import build_parser, main
from nlwe.families import StateSet, gentiles1, load, save


GOLDEN = Path(__file__).parent / "golden"

# Written by hand, since no StateSet with these priors can be built. NaN
# passes both the positivity and the sum check unless priors must be finite.
NAN_PRIORS = (
    '{"version": 1, "dims": [2], "priors": [NaN, 0.5], "states": '
    '[[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]]}\n'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reports holding only integers, booleans and strings, so their bytes do not
# depend on the BLAS build. A refactor must leave each one unchanged; after an
# intended report change, regenerate one with
# ``PYTHONPATH=src python -m nlwe <argv> > tests/golden/<name>.json``.
@pytest.mark.parametrize("name,argv", [
    ("certify_tiles", ["certify", "tiles"]),
    ("certify_gentiles1_n8", ["certify", "gentiles1", "--n", "8"]),
    ("certify_halder-full_all-bipartite",
     ["certify", "halder-full", "--cut", "all-bipartite"]),
    ("upb_tiles", ["upb", "tiles"]),
    ("upb_halder-full", ["upb", "halder-full"]),
    ("upb_gentiles1_n4", ["upb", "gentiles1", "--n", "4"]),
])
def test_golden_report(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["certify", "upb", "bound"])
def test_nan_priors_file_rejected(tmp_path, capsys, command):
    path = tmp_path / "nan.json"
    path.write_text(NAN_PRIORS, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert "priors must be finite and positive" in err


def test_certify_and_upb_never_import_scipy_optimize():
    # A fresh interpreter, since this one may have imported it already.
    script = (
        "import contextlib, io, sys\n"
        "import nlwe.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [nlwe.cli.main(['certify', 'tiles']),\n"
        "             nlwe.cli.main(['upb', 'tiles'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules)\n"
    )
    src = Path(nlwe.cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[0, 0] False\n"


def test_bound_runs_without_scipy():
    # A fresh interpreter in which any import of scipy fails.
    script = (
        "import contextlib, io, sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import nlwe.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = nlwe.cli.main(['bound', 'two-qubit-demo', '--r-steps', "
        "'3', '--restarts', '2'])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    src = Path(nlwe.cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 False\n"


def test_module_entry_prints_version():
    # ``python -m nlwe`` runs src/nlwe/__main__.py, which exits with main()'s
    # status.
    src = Path(nlwe.cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "nlwe", "--version"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{nlwe.__version__}\n"


class TestGenerate:
    def test_tiles_file(self, tmp_path, capsys):
        out = tmp_path / "tiles.json"
        code, _, _ = run(capsys, "generate", "tiles", "-o", str(out))
        assert code == 0
        assert load(out).n_states == 5

    def test_gentiles1_n6(self, tmp_path, capsys):
        out = tmp_path / "g6.json"
        code, _, _ = run(capsys, "generate", "gentiles1", "--n", "6",
                         "-o", str(out))
        assert code == 0
        assert load(out).n_states == 25

    def test_rotated_dominoes_thetas(self, tmp_path, capsys):
        out = tmp_path / "dom.json"
        code, _, _ = run(capsys, "generate", "rotated-dominoes",
                         "--theta", "0.3,0.3,0.3,0.3", "-o", str(out))
        assert code == 0
        assert load(out).n_states == 9

    def test_stdout_payload(self, capsys):
        code, out, _ = run(capsys, "generate", "bell")
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [2, 2]

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "nonsense"])
        assert err.value.code == 2

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "generate", "rotated-dominoes",
                           "--theta", "0,0,0,0")
        assert code == 2
        assert "pi/4" in err or "angle" in err
        code, _, _ = run(capsys, "generate", "gentiles1", "--n", "5")
        assert code == 2
        code, _, err = run(capsys, "certify", "rotated-dominoes",
                           "--theta", "0.1,0.2,0.3")
        assert code == 2
        assert "four comma-separated angles" in err


class TestCertify:
    def test_tiles_from_file(self, tmp_path, capsys):
        path = tmp_path / "tiles.json"
        run(capsys, "generate", "tiles", "-o", str(path))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "CERTIFIED_INDISCRIMINABLE"
        assert [p["span_rank"] for p in report["parties"]] == [8, 8]

    def test_demo_inconclusive_exit(self, capsys):
        code, out, _ = run(capsys, "certify", "two-qubit-demo")
        assert code == 1
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    def test_halder_all_bipartite(self, capsys):
        code, out, _ = run(capsys, "certify", "halder-full",
                           "--cut", "all-bipartite")
        assert code == 0
        report = json.loads(out)
        assert report["strong_nlwe"]["certified"] is True
        assert len(report["strong_nlwe"]["cuts"]) == 3

    def test_explicit_cut(self, capsys):
        code, out, _ = run(capsys, "certify", "halder-full", "--cut", "0|1,2")
        assert code == 0
        report = json.loads(out)
        assert report["cut"] == [[0], [1, 2]]
        assert [p["span_rank"] for p in report["parties"]] == [8, 80]

    def test_malformed_cut(self, capsys):
        code, _, err = run(capsys, "certify", "halder-full", "--cut", "0;1;2")
        assert code == 2
        assert "cut" in err

    def test_non_integer_dims_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "tiles.json"
        run(capsys, "generate", "tiles", "-o", str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["dims"] = [3.7, 3.2]
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (2, "")
        assert "malformed state-set payload" in err

    def test_overflowing_ket_file_rejected(self, tmp_path, capsys):
        # The norm of [1e308, 0] overflows; dividing by it would turn the
        # ket into zeros, which pass the orthogonality check.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "version": 1, "dims": [2, 2], "priors": [0.5, 0.5],
            "states": [[[[1e308, 0.0], [1e308, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                       [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }), encoding="utf-8")
        code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (2, "")
        assert "ket norm overflows" in err

    def test_int_amplitude_beyond_float_file_rejected(self, tmp_path,
                                                      capsys):
        # Python's json reads the integer exactly; no float can hold it.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "version": 1, "dims": [2, 2], "priors": [1.0],
            "states": [[[[10**400, 0], [0, 0]], [[1, 0], [0, 0]]]],
        }), encoding="utf-8")
        code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (2, "")
        assert "malformed state-set payload" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "certify", "no-such-file.json")
        assert code == 2
        assert "neither" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_invalid_tol_rejected_before_loading(self, capsys, monkeypatch,
                                                 tol):
        def explode(text, args):
            raise AssertionError("input loaded")

        monkeypatch.setattr("nlwe.cli._resolve_input", explode)
        code, out, err = run(capsys, "certify", "tiles", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestFamilyOptions:
    """``--n`` and ``--theta`` are refused where the input ignores them,
    before anything is loaded or built."""

    @pytest.fixture(autouse=True)
    def no_load(self, monkeypatch):
        def explode(path):
            raise AssertionError("input loaded")

        monkeypatch.setattr("nlwe.cli.load", explode)

    def test_family(self, capsys):
        code, out, err = run(capsys, "certify", "tiles", "--n", "8")
        assert (code, out) == (2, "")
        assert "--n applies only to the gentiles1 family" in err

    def test_file(self, tmp_path, capsys):
        path = tmp_path / "g4.json"
        save(gentiles1(4), path)
        code, out, err = run(capsys, "certify", str(path), "--n", "16")
        assert (code, out) == (2, "")
        assert "--n applies only to the gentiles1 family" in err

    def test_generate(self, capsys):
        code, out, err = run(capsys, "generate", "gentiles1",
                             "--theta", "0.3,0.3,0.3,0.3")
        assert (code, out) == (2, "")
        assert "--theta applies only to the rotated-dominoes family" in err


class TestUpb:
    def test_tiles(self, capsys):
        code, out, _ = run(capsys, "upb", "tiles")
        assert code == 0
        report = json.loads(out)
        assert report["is_unextendible"] and report["is_minimal"]
        assert report["verdict"] == "CERTIFIED_INDISCRIMINABLE"
        assert report["min_states"] == 5

    def test_extendible_pair_with_witness(self, tmp_path, capsys):
        e = np.eye(2)
        s = StateSet((2, 2), [(e[0], e[0]), (e[1], e[1])])
        path = tmp_path / "pair.json"
        save(s, path)
        code, out, _ = run(capsys, "upb", str(path))
        assert code == 0
        report = json.loads(out)
        assert not report["is_unextendible"]
        assert report["witness_partition"] == [[0], [1]]
        assert all(r < d for r, d in zip(report["local_ranks"], (2, 2)))

    def test_budget_exit_code(self, capsys, monkeypatch):
        def explode(s):
            raise EnumerationBudgetExceeded("too big")

        monkeypatch.setattr("nlwe.cli.upb_report", explode)
        code, _, err = run(capsys, "upb", "tiles")
        assert code == 3
        assert "too big" in err

    def test_trivial_dimension_rejected_before_search(self, tmp_path, capsys,
                                                       monkeypatch):
        e = np.eye(3)
        path = tmp_path / "trivial.json"
        save(StateSet((1, 3), [([1], e[i]) for i in range(3)]), path)

        def explode(*args, **kwargs):
            raise AssertionError("search ran")

        # The package exports the function ``certify`` under the module's name.
        module = importlib.import_module("nlwe.certify")
        monkeypatch.setattr(module, "upb_extendibility", explode)
        code, out, err = run(capsys, "upb", str(path))
        assert code == 2
        assert out == ""
        assert "every local dimension must be at least 2" in err

    def test_budget_exceeded_on_large_set(self, capsys):
        # 27 members on three parties: the flat search stays far inside the
        # default node budget, so the set is decided rather than refused.
        code, out, _ = run(capsys, "upb", "halder-full")
        assert code == 0
        assert json.loads(out)["is_unextendible"] is True


class TestBound:
    ARGS = ("bound", "two-qubit-demo", "--r-steps", "4", "--restarts", "4",
            "--seed", "0")

    def test_demo_bound_small(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["p_err_lower"] <= 1e-3
        assert len(report["r_grid"]) == len(report["delta_r"])

    def test_reruns_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([*self.ARGS, "-o", str(a)]) == 0
        assert main([*self.ARGS, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_lists_pruned_and_failed_radii(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert len(diagnostics["pruned"]) == len(json.loads(out)["r_grid"])
        assert diagnostics["failed_radii"] == 0

    def test_defaults_are_optimizer_defaults(self):
        args = build_parser().parse_args(["bound", "bell"])
        defaults = OptimizerOptions()
        for field in ("seed", "r_steps", "restarts", "penalty_stages",
                      "max_iters", "tol"):
            assert getattr(args, field) == getattr(defaults, field)

    @pytest.mark.parametrize("flag,field", [("--restarts", "restarts"),
                                            ("--r-steps", "r_steps")])
    def test_invalid_options_rejected_before_work(self, capsys, monkeypatch,
                                                  flag, field):
        def explode(s, opts):
            raise AssertionError("optimization started")

        monkeypatch.setattr("nlwe.cli.error_lower_bound", explode)
        code, out, err = run(capsys, "bound", "bell", flag, "0")
        assert code == 2
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("flag,value", [("--restarts", "0"),
                                            ("--r-steps", "0"),
                                            ("--tol", "nan")])
    def test_invalid_options_rejected_before_loading(self, capsys,
                                                     monkeypatch, flag,
                                                     value):
        def explode(text, args):
            raise AssertionError("input loaded")

        monkeypatch.setattr("nlwe.cli._resolve_input", explode)
        code, out, err = run(capsys, "bound", "tiles", flag, value)
        assert code == 2
        assert out == ""
        assert "optimizer options" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_rejected(self, capsys, tol):
        code, out, err = run(capsys, "bound", "two-qubit-demo", "--r-steps",
                             "2", "--restarts", "1", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol" in err

    def test_report_embeds_provenance(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        report = json.loads(out)
        assert report["tool"]["name"] == "nlwe"
        assert report["config"]["seed"] == 0
        assert "version" in report["tool"]
