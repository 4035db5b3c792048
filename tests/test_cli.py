"""Command line interface: formats, exit codes, notes and warnings."""

import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from edgespec import emit_grf, relabel
from edgespec.cli import main

import fixtures as fx


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def grf_file(tmp_path, name, g):
    return write(tmp_path, name, emit_grf(g))


# a spider with 33 legs of 2 edges, as an edge list
SPIDER_33X2 = "".join(f"1 {2 * i}\n{2 * i} {2 * i + 1}\n" for i in range(1, 34))


class TestInvariant:
    def test_human(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert "vertices: 6" in lines
        assert "edges: 11" in lines
        assert "cut levels: 4" in lines
        assert "IS: (14, 2×19, 4×24, 4×27) & (2×67, 2×87, 2×102)" in lines
        assert "IC: (4×3, 7×4) & (2×10, 2×14, 2×16)" in lines
        assert any(l.startswith("IS[0]:") for l in lines)
        assert not any(l.startswith("IL:") for l in lines)

    def test_machine(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["invariant", path, "--format", "machine"])
        assert r.exit_code == 0
        payload = json.loads(r.stdout)
        assert payload["n"] == 6 and payload["m"] == 11
        assert payload["tree"] is False
        assert payload["cut"]["level_count"] == 4
        assert payload["cut"]["total"]["edge"] == sorted(fx.G_6V11E_CUT_XI_TOTAL)
        assert payload["cycle"]["kind"] == "cycle"
        assert payload["line"] is None

    def test_with_line_invariant(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v10e_b())
        r = runner.invoke(main, ["invariant", path, "--with-line-invariant"])
        assert "IL: (3×10, 6×11, 15) & (30, 3×32, 2×48)" in r.stdout.splitlines()

    def test_tree_mode(self, runner, tmp_path):
        path = grf_file(tmp_path, "t.grf", fx.spider_tree())
        r = runner.invoke(main, ["invariant", path])
        lines = r.stdout.splitlines()
        assert f"IT: {fx.SPIDER_IT}" in lines
        assert any(l.startswith("tree levels:") for l in lines)

    def test_reads_stdin(self, runner):
        r = runner.invoke(main, ["invariant", "-"], input="1 2\n2 3\n1 3\n")
        assert r.exit_code == 0
        assert "IS: (3×2) & (3×4)" in r.stdout.splitlines()

    def test_edge_count_note_caps_the_levels(self, runner, tmp_path):
        path = grf_file(tmp_path, "k12.grf", fx.k_n(12))
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0
        assert r.stderr.startswith(
            "note: 66 edges exceed 64, capping the cut spectrum at 2 levels"
        )

    def test_trees_get_no_cap_note(self, runner, tmp_path):
        # 33 legs of 2 edges: 66 edges, over the cap threshold, but trees
        # take the uncapped tree invariant
        path = write(tmp_path, "spider.txt", SPIDER_33X2)
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0
        assert r.stderr == ""
        assert "tree levels: 6" in r.stdout.splitlines()

    def test_explicit_levels_silence_the_note(self, runner, tmp_path):
        path = grf_file(tmp_path, "k12.grf", fx.k_n(12))
        r = runner.invoke(main, ["invariant", path, "--max-levels", "1"])
        assert r.exit_code == 0
        assert r.stderr == ""

    def test_malformed_file_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "bad.grf", "2 9 9 9\n")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 2
        assert r.stderr.startswith("error: ")


class TestCompare:
    def test_isomorphic(self, runner, tmp_path):
        g = fx.quartic_8v_a()
        a = grf_file(tmp_path, "a.grf", g)
        b = grf_file(tmp_path, "b.grf", relabel(g, (5, 3, 8, 1, 7, 2, 4, 6)))
        r = runner.invoke(main, ["compare", a, b])
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "verdict: isomorphic"
        assert any(l.startswith("bijection: ") and "->" in l for l in lines)

    def test_not_isomorphic_exits_1(self, runner, tmp_path):
        a = grf_file(tmp_path, "a.grf", fx.k33())
        b = grf_file(tmp_path, "b.grf", fx.prism())
        r = runner.invoke(main, ["compare", a, b])
        assert r.exit_code == 1
        assert r.stdout.splitlines() == [
            "verdict: not isomorphic",
            "witness: cut spectrum level count 1 vs 2",
        ]

    def test_machine(self, runner, tmp_path):
        a = grf_file(tmp_path, "a.grf", fx.g_16v30e_a())
        b = grf_file(tmp_path, "b.grf", fx.g_16v30e_b())
        r = runner.invoke(main, ["compare", a, b, "--format", "machine"])
        assert r.exit_code == 1
        payload = json.loads(r.stdout)
        assert payload == {
            "verdict": "not isomorphic",
            "witness": fx.G_16V30E_WITNESS,
            "bijection": None,
        }

    def test_indistinguishable(self, runner, tmp_path):
        g = fx.rook_4x4()
        a = grf_file(tmp_path, "a.grf", g)
        b = grf_file(tmp_path, "b.grf", relabel(g, {v: v % 16 + 1 for v in g.vertices}))
        r = runner.invoke(main, ["compare", a, b])
        assert r.exit_code == 0
        assert r.stdout.splitlines() == ["verdict: indistinguishable by invariants"]

    def test_trees_get_no_cap_note(self, runner, tmp_path):
        a = write(tmp_path, "a.txt", SPIDER_33X2)
        b = write(tmp_path, "b.txt", SPIDER_33X2)
        r = runner.invoke(main, ["compare", a, b])
        assert r.exit_code == 0
        assert r.stderr == ""
        assert r.stdout.splitlines() == ["verdict: indistinguishable by invariants"]

    def test_brute_force_limit_flag(self, runner, tmp_path):
        g = fx.rook_4x4()
        a = grf_file(tmp_path, "a.grf", g)
        b = grf_file(tmp_path, "b.grf", relabel(g, {v: v % 16 + 1 for v in g.vertices}))
        r = runner.invoke(main, ["compare", a, b, "--brute-force-limit", "16"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[0] == "verdict: isomorphic"


class TestCycles:
    def test_human(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_5v7e())
        r = runner.invoke(main, ["cycles", path])
        assert r.stdout.splitlines() == [
            "isometric cycles: 3",
            "edges:",
            "cycle 1: 1 3 4",
            "cycle 2: 2 3 6",
            "cycle 3: 4 5 7",
            "vertices:",
            "cycle 1: 1 2 4",
            "cycle 2: 1 3 4",
            "cycle 3: 2 4 5",
        ]

    def test_machine(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_5v7e())
        r = runner.invoke(main, ["cycles", path, "--format", "machine"])
        payload = json.loads(r.stdout)
        assert payload["count"] == 3
        assert payload["cycles"][0] == {"edges": [1, 3, 4], "vertices": [1, 2, 4]}

    def test_grid_10x10(self, runner, tmp_path):
        path = grf_file(tmp_path, "grid.grf", fx.grid(10, 10))
        r = runner.invoke(main, ["cycles", path, "--format", "machine"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["count"] == 81


class TestSpectrum:
    def test_human_cut(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["spectrum", path])
        lines = r.stdout.splitlines()
        assert lines[0] == "cut spectrum: 4 levels"
        assert "level 0:" in lines
        assert "  e1: 2 3 4 5 6" in lines
        assert "totals:" in lines
        assert "  xi:   " + " ".join(str(x) for x in fx.G_6V11E_CUT_XI_TOTAL) in lines

    def test_dead_cells_render_as_dashes(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["spectrum", path])
        assert "  e4: -" in r.stdout.splitlines()

    def test_truncation_notice(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["spectrum", path, "--max-levels", "2"])
        lines = r.stdout.splitlines()
        assert lines[0] == "cut spectrum: 2 levels"
        assert lines[1] == "(truncated at the level cap)"

    def test_cycle_kind_note_names_the_cycle_spectrum(self, runner, tmp_path):
        path = grf_file(tmp_path, "k12.grf", fx.k_n(12))
        r = runner.invoke(main, ["spectrum", path, "--kind", "cycle", "--format", "machine"])
        assert r.exit_code == 0
        assert r.stderr.startswith(
            "note: 66 edges exceed 64, capping the cycle spectrum at 2 levels"
        )

    def test_machine_cycle(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_5v7e())
        r = runner.invoke(main, ["spectrum", path, "--kind", "cycle", "--format", "machine"])
        payload = json.loads(r.stdout)
        assert payload["kind"] == "cycle"
        assert payload["levels"][0] == [list(fx.G_5V7E_TAU[e]) for e in range(1, 8)]
        assert payload["xi"]["per_level"][0] == list(fx.G_5V7E_TAU_XI)
        assert payload["zeta"]["per_level"][0] == list(fx.G_5V7E_TAU_ZETA)

    def test_separable_input_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "p.edges", "1 2\n2 3\n")
        r = runner.invoke(main, ["spectrum", path])
        assert r.exit_code == 2
        assert r.stderr == "error: articulation vertex 2\n"


class TestOrbits:
    def test_human(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_8v15e())
        r = runner.invoke(main, ["orbits", path])
        assert r.stdout.splitlines() == [
            "orbit 1: 1 8",
            "orbit 2: 2 6",
            "orbit 3: 3 7",
            "orbit 4: 4 5",
        ]

    def test_machine(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_8v15e())
        r = runner.invoke(main, ["orbits", path, "--format", "machine"])
        assert json.loads(r.stdout) == {"groups": [[1, 8], [2, 6], [3, 7], [4, 5]]}


class TestLineGraph:
    def test_human(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v10e_b())
        r = runner.invoke(main, ["linegraph", path])
        assert r.stdout.splitlines() == [
            "line graph: 10 vertices, 24 edges",
            "isometric cycles: 30",
            "vertex triples: 12",
            "cycle images: 9",
            "double cycles: 9",
            "IL: (3×10, 6×11, 15) & (30, 3×32, 2×48)",
        ]

    def test_machine(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v10e_b())
        r = runner.invoke(main, ["linegraph", path, "--format", "machine"])
        payload = json.loads(r.stdout)
        assert (payload["triples"], payload["images"], payload["doubles"]) == (12, 9, 9)
        assert payload["invariant"]["edge"] == sorted(fx.G_6V10E_B_IL_EDGE)


class TestTree:
    def test_human(self, runner, tmp_path):
        path = grf_file(tmp_path, "t.grf", fx.caterpillar_tree())
        r = runner.invoke(main, ["tree", path])
        lines = r.stdout.splitlines()
        assert lines[0] == "vertices: 7"
        assert lines[1] == "edges: 6"
        assert lines[3] == f"IT: {fx.CATERPILLAR_IT}"

    def test_rejects_non_trees(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.g_6v11e())
        r = runner.invoke(main, ["tree", path])
        assert r.exit_code == 2
        assert r.stderr == "error: graph has 11 edges on 6 vertices\n"


class TestLoading:
    def test_edges_extension_forces_the_edge_list_parser(self, runner, tmp_path):
        path = write(tmp_path, "g.edges", "1 2\n2 3\n1 3\n")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0

    def test_txt_extension(self, runner, tmp_path):
        path = write(tmp_path, "g.txt", "1 2\n2 3\n1 3\n")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0

    def test_grf_extension_refuses_edge_lists(self, runner, tmp_path):
        path = write(tmp_path, "g.grf", "1 2\n2 3\n1 3\n")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 2

    def test_extensionless_files_are_sniffed(self, runner, tmp_path):
        path = write(tmp_path, "graph", "1 2\n2 3\n1 3\n")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 0

    def test_missing_file_exits_2(self, runner, tmp_path):
        path = str(tmp_path / "nope.grf")
        r = runner.invoke(main, ["invariant", path])
        assert r.exit_code == 2
        assert r.stderr.startswith(f"error: cannot read {path}: ")

    def test_missing_file_is_no_compare_verdict(self, runner, tmp_path):
        path = str(tmp_path / "nope.grf")
        r = runner.invoke(main, ["compare", path, path])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: cannot read {path}: ")

    def test_directory_exits_2(self, runner, tmp_path):
        r = runner.invoke(main, ["orbits", str(tmp_path)])
        assert r.exit_code == 2
        assert r.stderr.startswith("error: cannot read ")

    def test_non_utf8_file_exits_2_without_traceback(self, runner, tmp_path):
        p = tmp_path / "g.edges"
        p.write_bytes(b"1 2\n2 3\n1 3\n\xff\xfe\n")
        r = runner.invoke(main, ["linegraph", str(p)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.startswith(f"error: cannot read {p}: ")
        assert "Traceback" not in r.output

    def test_machine_output_is_sorted_and_indented(self, runner, tmp_path):
        path = grf_file(tmp_path, "g.grf", fx.k_n(4))
        r = runner.invoke(main, ["orbits", path, "--format", "machine"])
        assert r.stdout.startswith('{\n  "groups"')

    @pytest.mark.parametrize(
        "args, redirect, start",
        [
            (["orbits", "g.grf", "--format", "machine"], contextlib.redirect_stdout, '{\n  "groups"'),
            (["invariant", "g.grf"], contextlib.redirect_stdout, "vertices: 4\n"),
            (["invariant", "nope.grf"], contextlib.redirect_stderr, "error: cannot read "),
        ],
        ids=["machine", "human", "error"],
    )
    def test_in_process_call_keeps_no_stream_alive(self, tmp_path, args, redirect, start):
        grf_file(tmp_path, "g.grf", fx.k_n(4))
        argv = [str(tmp_path / a) if a.endswith(".grf") else a for a in args]
        out = io.StringIO()
        with redirect(out), contextlib.suppress(SystemExit):
            main.main(argv, standalone_mode=False)
        assert out.getvalue().startswith(start)
        stream = weakref.ref(out)
        del out
        gc.collect()
        assert stream() is None


COMMANDS = sorted(main.commands)


def argv(command, path):
    return [command, path, path] if command == "compare" else [command, path]


class TestContract:
    """Exit codes and formats every command shares."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file_exits_2(self, runner, tmp_path, command):
        r = runner.invoke(main, argv(command, str(tmp_path / "nope.grf")))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: cannot read")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_machine_prints_one_json_object(self, runner, tmp_path, command):
        if command == "tree":
            path = write(tmp_path, "p.edges", "1 2\n2 3\n3 4\n")
        else:
            path = grf_file(tmp_path, "k4.grf", fx.k_n(4))
        r = runner.invoke(main, [*argv(command, path), "--format", "machine"])
        assert r.exit_code == 0
        assert isinstance(json.loads(r.stdout), dict)
