"""docs/API.md must match the code (regenerate-and-compare)."""

import os
import sys

API_MD = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "API.md")
TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def _generate():
    sys.path.insert(0, TOOLS)
    try:
        import gen_api_docs

        return gen_api_docs.generate()
    finally:
        sys.path.remove(TOOLS)


class TestApiReference:
    def test_checked_in_reference_is_current(self):
        with open(API_MD, encoding="utf-8") as fh:
            checked_in = fh.read()
        assert checked_in == _generate(), (
            "docs/API.md is stale; regenerate with `python tools/gen_api_docs.py`"
        )

    def test_every_public_name_documented(self):
        text = _generate()
        assert "(undocumented)" not in text, (
            "public names without docstrings:\n"
            + "\n".join(l for l in text.splitlines() if "(undocumented)" in l)
        )

    def test_all_packages_present(self):
        text = _generate()
        for package in ("repro.kernel", "repro.core", "repro.dse", "repro.analysis"):
            assert f"## `{package}`" in text


class TestGeneratorCommandLine:
    """``--help`` and bad options write nothing; a path argument is the output."""

    def _run(self, tmp_path, *args):
        import subprocess

        env = dict(os.environ)
        src = os.path.abspath(os.path.join(TOOLS, "..", "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = os.path.abspath(os.path.join(TOOLS, "gen_api_docs.py"))
        return subprocess.run(
            [sys.executable, script, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        result = self._run(tmp_path, "--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage:")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_exits_2(self, tmp_path):
        result = self._run(tmp_path, "--bogus")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_output_path_argument(self, tmp_path):
        result = self._run(tmp_path, "api.md")
        assert result.returncode == 0
        with open(API_MD, encoding="utf-8") as fh:
            assert (tmp_path / "api.md").read_text(encoding="utf-8") == fh.read()
