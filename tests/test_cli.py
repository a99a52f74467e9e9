import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corp import generate_fixture, random_fixture_spec, read_map_pgm, write_map_pgm, write_tensor
from corp import storage
from corp.cli import main
from conftest import subprocess_env


@pytest.fixture
def fixture_dirs(tmp_path):
    """A generated on-disk group: features/, gt/, init/ under one root."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"seed": 21, "n_images": 3, "height": 10, "width": 10}))
    data_dir = tmp_path / "data"
    assert main(["fixtures", "--spec", str(spec_file), "--out", str(data_dir)]) == 0
    return data_dir


# Recorded with the per-pixel score dump and the tempfile text writer that
# came before the shared storage writer; same inputs must give these bytes.
PINNED_RUN_TEXT = {
    "scores.csv": "5bfd38ce25fbc85d6e820b6336049509d5d9e4bcf76dd0f8ae83918153c6eb01",
    "trace.jsonl": "250271bead14c1e5888f7a6afbff93fccff813b8480debad32efca45f0f36018",
}


def _run_args(data_dir, out, *extra):
    return ["run", "--features", str(data_dir / "features"), "--init-maps", str(data_dir / "init"),
            "--gt", str(data_dir / "gt"), "--out", str(out), *extra]


def _non_utf8_stem(data_dir) -> None:
    """Rename img_000.* in every fixture folder to a stem holding the byte 0xff."""
    stem = os.fsdecode(b"img_\xff")
    for sub in ("features", "gt", "init"):
        for path in (data_dir / sub).glob("img_000.*"):
            path.rename(path.with_name(stem + path.suffix))


class TestRun:
    def test_defaults_produce_maps(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"),
            "--out", str(out),
        ])
        assert code == 0
        maps = sorted(p.name for p in out.glob("*.pgm"))
        assert maps == ["img_000.pgm", "img_001.pgm", "img_002.pgm"]

    def test_all_ones_init(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", "all-ones",
            "--out", str(out),
        ])
        assert code == 0
        assert len(list(out.glob("*.pgm"))) == 3

    def test_trace_and_purity(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"),
            "--gt", str(fixture_dirs / "gt"),
            "--out", str(out),
            "--iters", "2",
            "--trace",
        ])
        assert code == 0
        lines = (out / "trace" / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["iteration"] for r in records] == [1, 2]
        assert all(0.0 <= r["purity"] <= 1.0 for r in records)
        assert all(r["proxy_norm"] > 0 for r in records)
        assert len(list((out / "trace" / "iter_1").glob("*.pgm"))) == 3

    def test_dump_scores(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        scores_csv = tmp_path / "scores.csv"
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"),
            "--out", str(out),
            "--iters", "1",
            "--dump-scores", str(scores_csv),
        ])
        assert code == 0
        lines = scores_csv.read_text().splitlines()
        assert lines[0] == "iteration,image,row,col,score"
        assert len(lines) == 1 + 3 * 10 * 10

    def test_text_outputs_pinned(self, fixture_dirs, tmp_path):
        out, scores_csv = tmp_path / "out", tmp_path / "scores.csv"
        assert main(_run_args(fixture_dirs, out, "--trace", "--dump-scores", str(scores_csv))) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (scores_csv, out / "trace" / "trace.jsonl")}
        assert digests == PINNED_RUN_TEXT

    def test_non_utf8_stem_dumped_as_its_bytes(self, fixture_dirs, tmp_path):
        _non_utf8_stem(fixture_dirs)
        scores_csv = tmp_path / "scores.csv"
        code = main(_run_args(fixture_dirs, tmp_path / "out", "--dump-scores", str(scores_csv)))
        assert code == 0
        assert list(tmp_path.rglob("*.tmp")) == []
        rows = scores_csv.read_bytes().splitlines()
        assert len(rows) == 1 + 3 * 3 * 10 * 10
        assert sum(row.split(b",")[1] == b"img_\xff" for row in rows) == 3 * 10 * 10

    def test_gt_proxy_mode(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", "all-ones",
            "--gt", str(fixture_dirs / "gt"),
            "--proxy-mode", "gt",
            "--out", str(out),
        ])
        assert code == 0

    def test_bad_k_exits_2(self, fixture_dirs, tmp_path, capsys):
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
            "--k", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:argument:")

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "k must be >= 1"),
        (["--iters", "-1"], "iters must be >= 0"),
        (["--proxy-mode", "gt"], "--proxy-mode gt requires --gt"),
        (["--decoder", "nonexistent"], "unknown decoder 'nonexistent'"),
    ])
    def test_settings_checked_before_any_file(self, tmp_path, capsys, flags, message):
        code = main([
            "run",
            "--features", str(tmp_path / "missing"),
            "--init-maps", str(tmp_path / "missing"),
            "--out", str(tmp_path / "out"),
            *flags,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:argument:") and message in err

    def test_gt_mode_without_gt_exits_2(self, fixture_dirs, tmp_path):
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", "all-ones",
            "--proxy-mode", "gt",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_unknown_decoder_exits_2(self, fixture_dirs, tmp_path, capsys):
        code = main([
            "run",
            "--features", str(fixture_dirs / "features"),
            "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
            "--decoder", "nonexistent",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:argument:")

    def test_mismatched_feature_dims_exit_4(self, tmp_path, rng, capsys):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        a = rng.standard_normal((4, 6, 6)).astype(np.float32)
        b = rng.standard_normal((4, 5, 5)).astype(np.float32)
        for arr, name in ((a, "a"), (b, "b")):
            norm = np.sqrt((arr.astype(np.float64) ** 2).sum(axis=0))
            write_tensor(feat_dir / f"{name}.crpt", (arr / norm).astype(np.float32))
        code = main([
            "run", "--features", str(feat_dir), "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and "b.crpt" in err

    def test_unnormalized_features_exit_4(self, tmp_path, rng, capsys):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        write_tensor(feat_dir / "a.crpt", rng.standard_normal((4, 6, 6)).astype(np.float32) * 3)
        code = main([
            "run", "--features", str(feat_dir), "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and "a.crpt" in err

    def test_unnormalized_second_file_is_named(self, tmp_path, capsys):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        unit = np.zeros((4, 6, 6), dtype=np.float32)
        unit[0] = 1.0
        write_tensor(feat_dir / "a.crpt", unit)
        bad = unit.copy()
        bad[:, 2, 3] = np.nan
        write_tensor(feat_dir / "b.crpt", bad)
        code = main([
            "run", "--features", str(feat_dir), "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and "b.crpt" in err and "a.crpt" not in err

    def test_corrupt_feature_file_exits_3(self, tmp_path, capsys):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        (feat_dir / "a.crpt").write_bytes(b"XXXX" + bytes(16))
        code = main([
            "run", "--features", str(feat_dir), "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:format:")

    @pytest.mark.parametrize("raw", [
        # Extents whose 64-bit product wraps to 0, matching the empty payload.
        b"CRPT\x01\x01\x03" + (2 ** 31).to_bytes(4, "little") * 2 + (4).to_bytes(4, "little"),
        # A 0-d tensor, which the writer refuses.
        b"CRPT\x01\x01\x00" + bytes(4),
    ], ids=["wrapping-extents", "zero-ndim"])
    def test_malformed_header_exits_3(self, tmp_path, capsys, raw):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        (feat_dir / "a.crpt").write_bytes(raw)
        code = main([
            "run", "--features", str(feat_dir), "--init-maps", "all-ones",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:format:")

    def test_missing_init_map_exits_2(self, fixture_dirs, tmp_path):
        incomplete = tmp_path / "maps"
        incomplete.mkdir()
        write_map_pgm(incomplete / "img_000.pgm", np.ones((10, 10)))
        code = main([
            "run", "--features", str(fixture_dirs / "features"),
            "--init-maps", str(incomplete), "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_output_is_pure_function_of_inputs(self, fixture_dirs, tmp_path):
        args = [
            "run", "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"),
            "--gt", str(fixture_dirs / "gt"), "--trace",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_zero_iters_passes_through_init(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"), "--out", str(out),
            "--iters", "0",
        ])
        assert code == 0
        written = read_map_pgm(out / "img_000.pgm")
        original = read_map_pgm(fixture_dirs / "init" / "img_000.pgm")
        assert np.array_equal(written, original)


class TestEval:
    def test_eval_writes_csv(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"), "--out", str(out),
        ])
        csv_path = tmp_path / "metrics.csv"
        code = main([
            "eval", "--pred", str(out), "--gt", str(fixture_dirs / "gt"),
            "--out", str(csv_path),
        ])
        assert code == 0
        with csv_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "image", "mae", "fmax", "favg", "smeasure", "emean"]
        assert [r[1] for r in rows[1:]] == ["img_000", "img_001", "img_002", "__group__"]
        group_row = rows[-1]
        assert float(group_row[3]) > 0.9  # fmax on a separable fixture

    def test_non_utf8_stem_written_as_its_bytes(self, fixture_dirs, tmp_path):
        _non_utf8_stem(fixture_dirs)
        out, csv_path = tmp_path / "out", tmp_path / "metrics.csv"
        assert main(_run_args(fixture_dirs, out)) == 0
        code = main(["eval", "--pred", str(out), "--gt", str(fixture_dirs / "gt"),
                     "--out", str(csv_path)])
        assert code == 0
        assert list(tmp_path.rglob("*.tmp")) == []
        rows = csv_path.read_bytes().split(b"\r\n")
        assert rows[-1] == b""
        images = [row.split(b",")[1] for row in rows[1:-1]]
        assert images == [b"img_001", b"img_002", b"img_\xff", b"__group__"]

    def test_eval_missing_gt_exits_2(self, fixture_dirs, tmp_path):
        out = tmp_path / "out"
        main([
            "run", "--features", str(fixture_dirs / "features"),
            "--init-maps", str(fixture_dirs / "init"), "--out", str(out),
        ])
        code = main([
            "eval", "--pred", str(out), "--gt", str(tmp_path / "nope"),
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2


class TestFailedWrite:
    """A text file whose write or rename fails: one error line, exit 2, no file left."""

    @pytest.mark.parametrize("failure", ["write", "replace"])
    @pytest.mark.parametrize("target", ["scores.csv", "trace.jsonl", "metrics.csv"])
    def test_leaves_nothing_behind(self, fixture_dirs, tmp_path, monkeypatch, capsys,
                                   target, failure):
        out, scores_csv = tmp_path / "out", tmp_path / "scores.csv"
        argv = _run_args(fixture_dirs, out, "--trace", "--dump-scores", str(scores_csv))
        target_path = {"scores.csv": scores_csv, "trace.jsonl": out / "trace" / "trace.jsonl",
                       "metrics.csv": tmp_path / "metrics.csv"}[target]
        if target == "metrics.csv":
            assert main(argv) == 0
            argv = ["eval", "--pred", str(out), "--gt", str(fixture_dirs / "gt"),
                    "--out", str(target_path)]
        capsys.readouterr()
        mkstemp, replace = storage.tempfile.mkstemp, storage.os.replace

        def failing_mkstemp(dir, prefix, suffix):
            fd, tmp = mkstemp(dir=dir, prefix=prefix, suffix=suffix)
            if prefix == target:
                os.close(fd)
                fd = os.open(tmp, os.O_RDONLY)  # so writing to it fails
            return fd, tmp

        def failing_replace(src, dst):
            if Path(dst).name == target:
                raise OSError(28, "No space left on device", str(dst))
            replace(src, dst)

        if failure == "write":
            monkeypatch.setattr(storage.tempfile, "mkstemp", failing_mkstemp)
        else:
            monkeypatch.setattr(storage.os, "replace", failing_replace)
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:argument:")
        assert not target_path.exists()
        assert list(tmp_path.rglob("*.tmp")) == []


class TestFixturesCommand:
    def test_explicit_spec_roundtrip(self, tmp_path):
        spec = random_fixture_spec(33, n_images=2, channels=4, height=6, width=6)
        payload = {
            "seed": spec.seed,
            "n_images": spec.n_images,
            "channels": spec.channels,
            "height": spec.height,
            "width": spec.width,
            "planted_regions": [list(r) for r in spec.planted_regions],
            "co_direction": list(spec.co_direction),
            "distractor_directions": [list(d) for d in spec.distractor_directions],
            "separation_margin": spec.separation_margin,
            "noise_sigma": spec.noise_sigma,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload))
        out = tmp_path / "data"
        assert main(["fixtures", "--spec", str(spec_file), "--out", str(out)]) == 0
        features, gt, init = generate_fixture(spec)
        from corp import read_tensor

        on_disk = read_tensor(out / "features" / "img_000.crpt")
        assert np.array_equal(on_disk, features.embeddings[0])

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope")
        assert main(["fixtures", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{}")
        assert main(["fixtures", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("raw", [
        b"5",
        b'{"seed": 1, "n_images": "3"}',
        b'{"seed": 1.5}',
        b'{"seed": 1, "noise_sigma": null}',
        b'{"seed": 1, "co_direction": [1.0], "n_images": 1, "channels": 1, "height": 2, '
        b'"width": 2, "planted_regions": 5, "distractor_directions": [[1.0]], '
        b'"separation_margin": 0.5, "noise_sigma": 0.0}',
        b'{"seed": 1, "co_direction": [1.0, 0.0], "n_images": 1, "channels": 2, "height": 4, '
        b'"width": 4, "planted_regions": [[0, 0]], "distractor_directions": [[0.0, 1.0]], '
        b'"separation_margin": 0.5, "noise_sigma": 0.0}',
        b'{"seed": 1.5, "co_direction": [1.0, 0.0], "n_images": 1, "channels": 2, "height": 4, '
        b'"width": 4, "planted_regions": [[0, 0, 2, 2]], "distractor_directions": [[0.0, 1.0]], '
        b'"separation_margin": 0.5, "noise_sigma": 0.0}',
        b'\xff\xfe{"seed": 1}',
        b'{"seed": 1, "n_images": true}',
        b'{"seed": 1, "noise_sigma": NaN}',
        b'{"seed": 1, "height": 1000000000, "width": 1000000000}',
    ], ids=["not-an-object", "string-count", "float-seed", "null-field",
            "scalar-regions", "short-region", "explicit-float-seed", "not-utf8", "bool-images",
            "nan-noise", "huge-grid"])
    def test_bad_spec_exits_2(self, tmp_path, capsys, raw):
        bad = tmp_path / "spec.json"
        bad.write_bytes(raw)
        assert main(["fixtures", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:argument:")


    @pytest.mark.parametrize("raw", [
        b'{"seed": 1, "separation_margin": 0.9999999}',
        b'{"seed": 1, "channels": 1}',
        b'{"seed": 1, "separation_margin": NaN}',
        b'{"seed": 1, "separation_margin": 1}',
        b'{"seed": 1, "n_distractors": 2.5}',
        b'{"seed": 1, "n_distractors": true}',
        b'{"seed": 1, "channels": 1000000000}',
    ], ids=["margin-near-1", "one-channel", "nan-margin", "margin-1", "float-count", "bool-count",
            "huge-channels"])
    def test_generated_spec_ends_without_hang(self, tmp_path, raw):
        spec = tmp_path / "spec.json"
        spec.write_bytes(raw)
        out = subprocess.run(
            [sys.executable, "-m", "corp.cli", "fixtures", "--spec", str(spec),
             "--out", str(tmp_path / "o")],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error:argument:") and out.stderr.count("\n") == 1


class TestGradcheck:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--trials", "5"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_bad_trials_exits_2(self):
        assert main(["gradcheck", "--trials", "0"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:argument:")



_ODD_VALUES = st.sampled_from(
    [None, True, "2", [1], 0, -1, 2.5, 10 ** 9, float("nan"), float("inf"), -0.5]
)


@st.composite
def _spec_json(draw):
    """A small valid spec, generated or explicit, with at most one field dropped or corrupted."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    h, w = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    spec = {
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "n_images": n, "channels": c, "height": h, "width": w,
        "separation_margin": draw(st.floats(0.05, 0.95)),
        "noise_sigma": draw(st.floats(0.0, 0.2)),
        "init_mode": draw(st.sampled_from(["gt", "dilated", "ones"])),
    }
    if draw(st.booleans()):
        spec["region_size"] = draw(st.integers(1, min(h, w)))
        spec["n_distractors"] = draw(st.integers(1, 4))
    else:
        regions = []
        for _ in range(n):
            r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            regions.append([r0, c0, draw(st.integers(1, h - r0)), draw(st.integers(1, w - c0))])
        spec["planted_regions"] = regions
        spec["co_direction"] = [1.0] + [0.0] * (c - 1)
        spec["distractor_directions"] = [[0.0, 1.0] + [0.0] * (c - 2)]
    action = draw(st.sampled_from(["keep", "drop", "corrupt"]))
    key = draw(st.sampled_from(sorted(spec)))
    if action == "drop":
        del spec[key]
    elif action == "corrupt":
        spec[key] = draw(_ODD_VALUES)
    return spec


class TestFixtureSpecFuzz:
    @given(spec=_spec_json())
    def test_spec_gives_fixture_or_argument_error(self, spec):
        """Every spec writes 3 files per image with exit 0, or exits 2 with one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            spec_file = Path(tmp) / "spec.json"
            spec_file.write_text(json.dumps(spec))
            out, err = Path(tmp) / "out", io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["fixtures", "--spec", str(spec_file), "--out", str(out)])
            if code == 0:
                n = spec.get("n_images", 3)
                written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
                assert written == sorted(
                    f"{sub}/img_{i:03d}.{ext}" for i in range(n)
                    for sub, ext in (("features", "crpt"), ("gt", "pgm"), ("init", "pgm"))
                )
            else:
                assert code == 2
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:argument:")
