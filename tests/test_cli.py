import json

import pytest

from pcfg import cli, parallel, workload
from pcfg.cfg import Edge, EdgeKind
from pcfg.cli import main
from pcfg.image import pack_image
from pcfg.workload import ScenarioSpec, emit, generate
from test_parallel import _FALLTHROUGH_TO_TEXT_END, _tail_call_chain


@pytest.fixture
def corpus(tmp_path):
    img, truth = generate(ScenarioSpec.make("big-random", seed=4, functions=40))
    image_path, truth_path = emit(img, truth, tmp_path)
    return image_path, truth_path


def _run(capsys, *argv):
    """The exit code `pcfg` would end with, and what it printed; argparse
    ends a run with bad arguments by raising `SystemExit`."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the commands that load an image
_IMAGE_COMMANDS = ("analyze", "verify", "bench")


def _image_command(command, image_path, corpus):
    """`command` run on `image_path`; `verify` checks it against the
    corpus's valid ground truth, so only the image can be at fault."""
    if command == "verify":
        return command, image_path, "--truth", corpus[1]
    return command, image_path


class TestAnalyze:
    def test_canon_output_identical_across_thread_counts(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        out1 = tmp_path / "t1.canon"
        out8 = tmp_path / "t8.canon"
        code, _, _ = _run(capsys, "analyze", image_path, "--threads", 1, "--out", out1)
        assert code == 0
        code, _, _ = _run(capsys, "analyze", image_path, "--threads", 8, "--out", out8)
        assert code == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_minimal_image_listing(self, tmp_path, capsys):
        from pcfg.image import Image, SymbolKind, make_symbol, pack_image

        img = Image(
            0x1000, b"\x08", 0x2000, b"", (make_symbol(0x1000, "main$0", SymbolKind.FUNC),)
        )
        p = tmp_path / "min.pcfg"
        p.write_bytes(pack_image(img))
        code, out, err = _run(capsys, "analyze", p)
        assert code == 0
        records = [l for l in out.splitlines() if l[:2] in ("B ", "F ")]
        assert records == ["B 0x1000 0x1001", "F 0x1000 NORETURN 1"]
        assert "summary functions=1 blocks=1" in out

    def test_summary_counts(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        code, out, err = _run(
            capsys, "analyze", image_path, "--out", tmp_path / "x.canon"
        )
        assert code == 0
        assert out.startswith("summary functions=")
        assert "traversal" in err and "export" in err

    def test_json_format_includes_registry_dump(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        out = tmp_path / "g.json"
        code, _, _ = _run(capsys, "analyze", image_path, "--format", "json", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert "cfg" in doc and "jump_tables" in doc
        fields = {"base", "jump_end", "declared_bound", "effective_bound", "final_bound"}
        for t in doc["jump_tables"]:
            assert fields <= set(t)

    def test_dot_format(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        out = tmp_path / "g.dot"
        code, _, _ = _run(capsys, "analyze", image_path, "--format", "dot", "--out", out)
        assert code == 0
        assert out.read_text().startswith("digraph cfg {")

    @pytest.mark.parametrize("command", _IMAGE_COMMANDS)
    def test_bad_magic_exits_1(self, corpus, tmp_path, capsys, command):
        p = tmp_path / "bad.pcfg"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        code, _, err = _run(capsys, *_image_command(command, p, corpus))
        assert code == 1
        assert "malformed" in err

    @pytest.mark.parametrize("command", _IMAGE_COMMANDS)
    def test_undecodable_symbol_name_exits_1(self, corpus, tmp_path, capsys, command):
        from pcfg.image import Image, SymbolKind, make_symbol, pack_image

        img = Image(0x1000, b"\x05", 0x2000, b"", (make_symbol(0x1000, "f", SymbolKind.FUNC),))
        p = tmp_path / "badname.pcfg"
        p.write_bytes(pack_image(img)[:-1] + b"\xff")
        code, _, err = _run(capsys, *_image_command(command, p, corpus))
        assert code == 1
        assert "malformed image" in err
        assert "Traceback" not in err

    def test_long_tail_call_chain_exits_0(self, tmp_path, capsys):
        p = tmp_path / "chain.pcfg"
        p.write_bytes(pack_image(_tail_call_chain(1000)))
        code, out, err = _run(capsys, "analyze", p)
        assert code == 0
        assert "summary functions=1000 " in out
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "analyze", tmp_path / "nope.pcfg")
        assert code == 2

    def test_threads_below_one_exits_2(self, corpus, capsys):
        image_path, _ = corpus
        code, out, err = _run(capsys, "analyze", image_path, "--threads", 0)
        assert code == 2
        assert out == ""
        assert "--threads" in err and "Traceback" not in err


class TestVerify:
    def test_generated_scenario_verifies(self, corpus, capsys):
        image_path, truth_path = corpus
        code, out, _ = _run(capsys, "verify", image_path, "--truth", truth_path)
        assert code == 0
        assert "functions: ok" in out
        assert "jump_tables: ok" in out
        assert "noreturn_calls: ok" in out
        assert "tail_calls: ok" in out

    def test_perturbed_table_size_fails_and_names_base(self, corpus, capsys, tmp_path):
        image_path, truth_path = corpus
        doc = json.loads(truth_path.read_text())
        assert doc["jump_tables"], "corpus image should contain a table"
        doc["jump_tables"][0]["size"] += 1
        bad = tmp_path / "bad_truth.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, "verify", image_path, "--truth", bad)
        assert code == 1
        assert "jump_tables: FAIL" in out
        assert doc["jump_tables"][0]["base"] in out

    def test_missing_truth_exits_2(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        code, _, _ = _run(capsys, "verify", image_path, "--truth", tmp_path / "no.json")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"functions":[{"entry":"zz","ranges":[]}],'
            '"jump_tables":[],"noreturn_calls":[],"tail_calls":[]}',
            "[1,2]",
        ],
        ids=["bad-address", "not-an-object"],
    )
    def test_malformed_truth_exits_2(self, corpus, capsys, tmp_path, doc):
        image_path, _ = corpus
        bad = tmp_path / "bad_truth.json"
        bad.write_text(doc)
        code, out, err = _run(capsys, "verify", image_path, "--truth", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad input: ")

    def test_threads_below_one_exits_2(self, corpus, capsys):
        image_path, truth_path = corpus
        code, out, err = _run(
            capsys, "verify", image_path, "--truth", truth_path, "--threads", -1
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err and "Traceback" not in err


class TestBench:
    def test_single_thread_speedup_is_one(self, corpus, capsys):
        image_path, _ = corpus
        code, out, err = _run(capsys, "bench", image_path, "--threads", "1", "--repeat", 2)
        assert code == 0
        assert "identical_output=yes" in out
        for line in err.splitlines():
            if line.startswith("bench threads=1"):
                assert "speedup=1.000" in line

    def test_multi_thread_bench_reports_rows(self, corpus, capsys):
        image_path, _ = corpus
        code, out, err = _run(
            capsys, "bench", image_path, "--threads", "1,2", "--repeat", 1
        )
        assert code == 0
        rows = [l for l in err.splitlines() if l.startswith("bench threads=")]
        assert len(rows) == 2

    def test_fault_injection_detected(self, corpus, capsys, monkeypatch):
        image_path, _ = corpus
        real = cli.canonical_serialize
        calls = []

        def second_call_differs(cfg):
            calls.append(cfg)
            text = real(cfg)
            return text + "fault\n" if len(calls) == 2 else text

        monkeypatch.setattr(cli, "canonical_serialize", second_call_differs)
        code, _, err = _run(capsys, "bench", image_path, "--threads", "1", "--repeat", 2)
        assert len(calls) == 2
        assert code == 1
        assert "diverged" in err

    def test_bad_thread_list_exits_2(self, corpus, capsys):
        image_path, _ = corpus
        code, _, _ = _run(capsys, "bench", image_path, "--threads", "1,zap")
        assert code == 2

    @pytest.mark.parametrize("threads", ["0", "1,0"])
    def test_threads_below_one_exits_2(self, corpus, capsys, threads):
        image_path, _ = corpus
        code, out, err = _run(capsys, "bench", image_path, "--threads", threads)
        assert code == 2
        assert out == ""
        assert "--threads" in err and "Traceback" not in err


class TestAnalysisFailure:
    """A typed error raised by construction or by a writer's check ends
    `analyze`, `verify` and `bench` with one line and exit code 3."""

    COMMANDS = ("analyze", "verify", "bench")

    @staticmethod
    def _argv(command, image_path, truth_path):
        if command == "verify":
            return (command, image_path, "--truth", truth_path)
        if command == "bench":
            return (command, image_path, "--threads", "1,2", "--repeat", 1)
        return (command, image_path)

    @staticmethod
    def _assert_failed(code, out, err, cls):
        assert code == cli.ANALYSIS_FAILED == 3
        assert err.splitlines()[-1].startswith(f"error: analysis failed: {cls}: ")
        assert "Traceback" not in err
        assert "B 0x" not in out and "verify:" not in out and "bench ok" not in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_construction_error_exits_3(self, command, corpus, capsys, tmp_path):
        # the last instruction falls through to the end of the text
        hostile = tmp_path / "hostile.pcfg"
        hostile.write_bytes(pack_image(_FALLTHROUGH_TO_TEXT_END))
        _, truth_path = corpus
        code, out, err = _run(capsys, *self._argv(command, hostile, truth_path))
        self._assert_failed(code, out, err, "OutOfRangeError")
        assert "0x102a" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_invalid_graph_exits_3(self, command, corpus, capsys, monkeypatch):
        # finalization no longer validates, so the graph must be checked
        # before any output or verdict
        real = parallel.finalize_details

        def corrupting(g, registry, index):
            stats = real(g, registry, index)
            g.edges.add(Edge(min(g.blocks), 0xDEAD0, EdgeKind.DIRECT))
            return stats

        monkeypatch.setattr(parallel, "finalize_details", corrupting)
        image_path, truth_path = corpus
        code, out, err = _run(capsys, *self._argv(command, image_path, truth_path))
        self._assert_failed(code, out, err, "InvalidGraphError")
        assert "dangling-edge-target" in err


#: (family, parameter, lower bound) for every parameter of every schema
_SCHEMA_LOWER_BOUNDS = [
    (family, name, lo)
    for family, schema in [
        *((f, s) for f, (_, s) in workload._SIMPLE_FAMILIES.items()),
        ("big-random", workload._BIG_RANDOM_SCHEMA),
    ]
    for name, (_, lo, _) in schema.items()
]


class TestGen:
    @pytest.mark.parametrize("family,name,lo", _SCHEMA_LOWER_BOUNDS)
    def test_gen_takes_every_schema_parameter(self, tmp_path, capsys, family, name, lo):
        code, _, err = _run(
            capsys, "gen", family, f"--{name.replace('_', '-')}", lo, "--out", tmp_path
        )
        assert code == 0, err
        assert json.loads((tmp_path / "truth.json").read_text())["functions"]

    def test_gen_writes_two_files(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys, "gen", "tailcall-ambiguous", "--seed", 1, "--out", tmp_path
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("image.pcfg")
        assert lines[1].endswith("truth.json")
        assert (tmp_path / "image.pcfg").exists()
        assert (tmp_path / "truth.json").exists()

    def test_gen_out_of_bounds_exits_1(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "gen", "big-random", "--functions", 100001, "--out", tmp_path
        )
        assert code == 1
        assert "functions" in err

    def test_gen_analyze_verify_pipeline(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys,
            "gen", "jump-table-overapprox", "--seed", 3, "--extra", 2, "--out", tmp_path,
        )
        assert code == 0
        code, _, _ = _run(
            capsys,
            "analyze", tmp_path / "image.pcfg", "--out", tmp_path / "g.canon",
        )
        assert code == 0
        code, out, _ = _run(
            capsys,
            "verify", tmp_path / "image.pcfg", "--truth", tmp_path / "truth.json",
        )
        assert code == 0
        assert "all facets match" in out
