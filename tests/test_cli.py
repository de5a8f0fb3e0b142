import json

import pytest

from pcfg import cli
from pcfg.cli import main
from pcfg.workload import ScenarioSpec, emit, generate


@pytest.fixture
def corpus(tmp_path):
    img, truth = generate(ScenarioSpec.make("big-random", seed=4, functions=40))
    image_path, truth_path = emit(img, truth, tmp_path)
    return image_path, truth_path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "traversal" in err

    def test_json_format_includes_registry_dump(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        out = tmp_path / "g.json"
        code, _, _ = _run(capsys, "analyze", image_path, "--format", "json", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert "cfg" in doc and "jump_tables" in doc
        for t in doc["jump_tables"]:
            assert {"base", "declared_bound", "effective_bound", "final_bound"} <= set(t)

    def test_dot_format(self, corpus, capsys, tmp_path):
        image_path, _ = corpus
        out = tmp_path / "g.dot"
        code, _, _ = _run(capsys, "analyze", image_path, "--format", "dot", "--out", out)
        assert code == 0
        assert out.read_text().startswith("digraph cfg {")

    def test_bad_magic_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.pcfg"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        code, _, err = _run(capsys, "analyze", p)
        assert code == 1
        assert "malformed" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = _run(capsys, "analyze", tmp_path / "nope.pcfg")
        assert code == 2


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


class TestGen:
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
