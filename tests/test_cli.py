"""Tests for the command-line interface."""

import pytest

from repro.cli import main

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"


@pytest.fixture
def vuln_file(tmp_path):
    path = tmp_path / "vuln.php"
    path.write_text(VULN)
    return path


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.php"
    path.write_text(SAFE)
    return path


class TestVerify:
    def test_safe_exit_zero(self, safe_file, capsys):
        assert main(["verify", str(safe_file)]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out

    def test_vulnerable_exit_one(self, vuln_file, capsys):
        assert main(["verify", str(vuln_file)]) == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out

    def test_detailed_flag(self, vuln_file, capsys):
        main(["verify", "--detailed", str(vuln_file)])
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_directory_recursion(self, tmp_path, safe_file, vuln_file, capsys):
        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "safe.php" in out and "vuln.php" in out

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", str(empty)]) == 2

    def test_multiple_paths(self, safe_file, vuln_file):
        assert main(["verify", str(safe_file), str(vuln_file)]) == 1


class TestPatch:
    def test_patch_writes_output(self, vuln_file, tmp_path, capsys):
        output = tmp_path / "out.php"
        assert main(["patch", str(vuln_file), "-o", str(output)]) == 0
        assert "__webssari_sanitize" in output.read_text()
        assert "guard(s)" in capsys.readouterr().out

    def test_patch_default_output_name(self, vuln_file):
        main(["patch", str(vuln_file)])
        assert vuln_file.with_suffix(".patched.php").exists()

    def test_ts_strategy(self, vuln_file, tmp_path):
        output = tmp_path / "ts.php"
        assert main(["patch", str(vuln_file), "-o", str(output), "--strategy", "ts"]) == 0
        assert "__webssari_sanitize" in output.read_text()

    def test_patched_file_verifies_safe(self, vuln_file, tmp_path):
        output = tmp_path / "out.php"
        main(["patch", str(vuln_file), "-o", str(output)])
        assert main(["verify", str(output)]) == 0


class TestHtml:
    def test_html_report_written(self, vuln_file, tmp_path):
        output = tmp_path / "r.html"
        assert main(["html", str(vuln_file), "-o", str(output)]) == 1
        text = output.read_text()
        assert "<!DOCTYPE html>" in text
        assert "VULNERABLE" in text

    def test_html_safe_exit_zero(self, safe_file, tmp_path):
        output = tmp_path / "r.html"
        assert main(["html", str(safe_file), "-o", str(output)]) == 0


class TestPreludeOption:
    def test_custom_prelude_applies(self, tmp_path, capsys):
        prelude = tmp_path / "p.prelude"
        prelude.write_text("source read_config tainted\nsink show tainted xss\n")
        php = tmp_path / "app.php"
        php.write_text("<?php $x = read_config(); show($x);")
        # Without the prelude: safe; with it: vulnerable.
        assert main(["verify", str(php)]) == 0
        assert main(["--prelude", str(prelude), "verify", str(php)]) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    @pytest.mark.parametrize("command", ["verify", "audit", "watch"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--solver", "portfolio"],
            ["--restart-strategy", "luby"],
            ["--sat-seed", "7"],
        ],
        ids=["solver-portfolio", "restart-strategy", "sat-seed"],
    )
    def test_removed_solver_options_are_rejected(self, command, flag, tmp_path):
        with pytest.raises(SystemExit) as exited:
            main([command, str(tmp_path), *flag])
        assert exited.value.code == 2


class TestVerifyReplay:
    def test_traces_past_the_cap_are_reported_as_skipped(self, tmp_path, capsys):
        from repro.replay import MAX_REPLAYED_TRACES

        count = MAX_REPLAYED_TRACES + 8
        path = tmp_path / "many.php"
        path.write_text(
            "<?php\n" + "".join(f"echo $_GET['q{i}'];\n" for i in range(count))
        )
        assert main(["verify", str(path), "--replay", "on"]) == 1
        out = capsys.readouterr().out
        assert f"  replay: {MAX_REPLAYED_TRACES} confirmed, 0 refuted, " \
            "0 unsupported, 8 skipped" in out
        assert out.count(": confirmed via") == MAX_REPLAYED_TRACES

    def test_no_skipped_note_under_the_cap(self, vuln_file, capsys):
        assert main(["verify", str(vuln_file), "--replay", "on"]) == 1
        out = capsys.readouterr().out
        assert "  replay: 1 confirmed, 0 refuted, 0 unsupported\n" in out
