import json

import numpy as np
import pytest

from nlwe.bound import OptimizerOptions
from nlwe.certify import EnumerationBudgetExceeded
from nlwe.cli import build_parser, main
from nlwe.families import StateSet, load, save


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "certify", "no-such-file.json")
        assert code == 2
        assert "neither" in err


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

    def test_budget_exceeded_on_large_set(self, capsys):
        # 3^27 assignments is far past the default budget
        code, _, err = run(capsys, "upb", "halder-full")
        assert code == 3
        assert "budget" in err


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

    def test_report_embeds_provenance(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        report = json.loads(out)
        assert report["tool"]["name"] == "nlwe"
        assert report["config"]["seed"] == 0
        assert "version" in report["tool"]
