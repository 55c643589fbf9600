"""The grq command line: subcommands, exit codes, determinism and the
seed-reporting header."""

import json

import pytest

from grquiver import cli
from grquiver.cli import main
from grquiver.constructions import borel_algebra
from grquiver.grmod import borel_dual, character_module


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHeader:
    def test_seed_flag_recorded(self, capsys):
        code, out = run(capsys, "--p", "3", "--seed", "7",
                        "module", "W(3)")
        assert code == 0
        assert out.splitlines()[0] == "# p=3 seed=7"

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GRQ_SEED", "5")
        _, out = run(capsys, "--p", "3", "module", "W(3)")
        assert out.splitlines()[0] == "# p=3 seed=5"

    def test_default_seed_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("GRQ_SEED", raising=False)
        _, out = run(capsys, "--p", "3", "module", "W(3)")
        assert out.splitlines()[0] == "# p=3 seed=0"


class TestModule:
    def test_summary(self, capsys):
        code, out = run(capsys, "--p", "3", "module", "W(6)")
        assert code == 0
        assert "dim 6" in out
        assert "polynomial: yes" in out

    def test_json_roundtrip_bytes(self, capsys, tmp_path):
        _, out1 = run(capsys, "--p", "3", "module", "Q(1)", "--emit", "json")
        payload = out1.splitlines()[1]
        f = tmp_path / "m.json"
        f.write_text(payload + "\n")
        _, out2 = run(capsys, "--p", "3", "module", str(f), "--emit", "json")
        assert out2.splitlines()[1] == payload

    def test_bad_label_is_usage_error(self, capsys):
        code, _ = run(capsys, "--p", "3", "module", "Nope(1)")
        assert code == 2


class TestFunctor:
    def test_identification_line(self, capsys):
        code, out = run(capsys, "--p", "3", "functor", "tau", "W(6)",
                        "--emit", "summary")
        assert code == 0
        assert "identified: W(6)+(3,-3)" in out

    def test_torsion(self, capsys):
        code, out = run(capsys, "--p", "3", "functor", "t", "V(6)+(-3,0)",
                        "--emit", "summary")
        assert code == 0
        assert "identified: W(3)" in out


class TestSchurAndAr:
    def test_schur_dot_with_template(self, capsys):
        code, out = run(capsys, "--p", "3", "schur", "--d", "3",
                        "--drop-projective-injective")
        assert code == 0
        assert "digraph" in out
        assert "template Z[A_3]/tau^3: MATCH" in out

    def test_ar_json(self, capsys):
        code, out = run(capsys, "--p", "3", "ar", "W(3)", "--max-ql", "1",
                        "--max-tau", "1", "--emit", "json")
        assert code == 0
        data = json.loads(out.splitlines()[1])
        assert "vertices" in data


class TestBorelAndCheck:
    def test_raising_dual_character(self, capsys, tmp_path):
        # the dual of k lives over the raising algebra, whose tau shifts by
        # (1, -1) where the lowering algebra's shifts by (-1, 1)
        k = character_module(borel_algebra(3, 1), (0, 0))
        f = tmp_path / "dk.json"
        f.write_text(borel_dual(k).to_json() + "\n")
        code, out = run(capsys, "--p", "3", "functor", "tau", str(f),
                        "--emit", "summary")
        assert code == 0
        assert "identified: C(1,-1)" in out
        code, out = run(capsys, "--p", "3", "ar", str(f), "--max-ql", "1",
                        "--max-tau", "1")
        assert code == 0
        assert '"C(0,0)" -> "C(1,-1)" [style=dashed' in out

    def test_dual_of_borel_character(self, capsys, tmp_path):
        # `functor dual` takes the duality of the module's backend
        k = character_module(borel_algebra(3, 1), (0, 0))
        f = tmp_path / "k.json"
        f.write_text(k.to_json() + "\n")
        code, out = run(capsys, "--p", "3", "functor", "dual", str(f))
        assert code == 0
        assert out.splitlines()[1] == borel_dual(k).to_json()

    def test_borel_report(self, capsys):
        code, out = run(capsys, "--p", "3", "borel", "--d", "2")
        assert code == 0
        assert "quasi-hereditary evidence: PASS" in out

    def test_check_core_json(self, capsys):
        code, out = run(capsys, "--p", "3", "check", "--suite", "core")
        assert code == 0
        data = json.loads(out.splitlines()[1])
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["--p", "3", "bogus"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main(["--p", "3"]) == 2


class TestInputErrors:
    """Bad user input exits 2 with one `error:` line on stderr."""

    def module_file(self, capsys, tmp_path, text, p="3", label="W(3)"):
        """A file holding text(d), d the JSON dict of the labelled module."""
        _, out = run(capsys, "--p", p, "module", label, "--emit", "json")
        f = tmp_path / "m.json"
        f.write_text(text(json.loads(out.splitlines()[1])))
        return str(f)

    def assert_usage_error(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("text", [
        lambda d: json.dumps({k: v for k, v in d.items() if k != "dim"}),
        lambda d: "{not json",
        lambda d: json.dumps({**d, "action": {**d["action"],
                                              "E": [[0, 1], [0, 0]]}}),
    ], ids=["missing-key", "bad-json", "wrong-shape"])
    def test_malformed_file(self, capsys, tmp_path, text):
        f = self.module_file(capsys, tmp_path, text)
        self.assert_usage_error(capsys, "--p", "3", "module", f)

    def test_invalid_module(self, capsys, tmp_path):
        def break_relation(d):
            d["action"]["E"][1][0] = (d["action"]["E"][1][0] + 1) % 3
            return json.dumps(d)
        f = self.module_file(capsys, tmp_path, break_relation)
        err = self.assert_usage_error(capsys, "--p", "3", "functor", "tau", f)
        assert "invalid module" in err

    def test_prime_mismatch(self, capsys, tmp_path):
        f = self.module_file(capsys, tmp_path, json.dumps, p="5",
                             label="W(5)")
        err = self.assert_usage_error(capsys, "--p", "3", "module", f)
        assert "p=5" in err

    @pytest.mark.parametrize("argv", [
        ["--p", "3", "module", "V(4)+(1,0)"],
        ["--p", "3", "functor", "tau", "V(4)+(1,0)"],
        ["--p", "5", "schur", "--d", "5", "--seed-label", "L(0)+(1,4)"],
    ], ids=["module", "functor", "schur-seed"])
    def test_label_shifted_off_g1t(self, capsys, argv):
        # a shift by mu with mu0 != mu1 mod p leaves H acting as before, so
        # H no longer acts as (a-b) mod p
        err = self.assert_usage_error(capsys, *argv)
        assert "H does not act as (a-b) mod p" in err

    def test_decomposable_schur_seed(self, capsys):
        # V(5) splits at p=3 since 5 = p - 1 mod p
        err = self.assert_usage_error(capsys, "--p", "3", "schur", "--d", "5")
        assert "V(5)" in err and "--seed-label" in err


class TestInternalErrors:
    """Any unexpected exception exits 3 with one `internal error:` line."""

    def test_assertion_error_exits_3(self, capsys, monkeypatch):
        def broken(m):
            raise AssertionError("forced\nfailure")
        monkeypatch.setitem(cli._FUNCTORS, "tau", broken)
        code = main(["--p", "3", "functor", "tau", "W(3)"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: AssertionError: forced failure\n"
