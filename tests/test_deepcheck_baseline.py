"""``repro analyze`` and the fingerprint baseline are gone: ``repro lint``
is the one static-analysis command and the inline pragma the one
suppression.  What these tests drove through ``analyze`` either runs
through ``lint`` now or is asserted removed (argparse exit 2)."""

import pytest

from repro.analysis import RULES
from repro.cli import main


def exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


class TestAnalyzeCli:
    def test_strict_fails_without_baseline(self):
        # There is no baseline to be without, and no second command.
        assert exits_2(["analyze", "--strict"])
        assert exits_2(["lint", "--baseline", "analysis_baseline.json"])
        assert exits_2(["lint", "--update-baseline"])

    def test_adversarial_tree_fails_strict(self, tmp_path, capsys):
        # Missing-snapshot attr and a clock read in a throwaway tree.
        pkg = tmp_path / "badpkg"
        pkg.mkdir()
        (pkg / "component.py").write_text(
            "class Component:\n"
            "    def snapshot(self):\n"
            "        return None\n"
            "    def restore(self, state):\n"
            "        raise NotImplementedError\n"
        )
        (pkg / "bad.py").write_text(
            "import time\n"
            "from badpkg.component import Component\n"
            "\n"
            "class Leaky(Component):\n"
            "    def __init__(self):\n"
            "        self._buf = []\n"
            "    def on_message(self, ctx, port, payload):\n"
            "        self._buf.append(payload)\n"
            "        return time.perf_counter()\n"
            "    def snapshot(self):\n"
            "        return {}\n"
            "    def restore(self, state):\n"
            "        pass\n"
        )
        rc = main(["lint", "--root", str(pkg), "--strict", "--skip-graph"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "state.snapshot-missing" in out
        assert "repo.wall-clock" in out

    def test_json_document_shape(self):
        assert exits_2(["lint", "--json"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == sorted(RULES)
        assert len(lines) == 22

    def test_graph_provider_fails_on_unhandled_tag(self):
        assert exits_2(["lint", "--graph", "badgraph:provide"])
        assert exits_2(["lint", "--skip", "proto"])

    def test_unknown_graph_provider_is_a_usage_error(self):
        assert exits_2(["analyze", "--graph", "no.such.mod:f"])
