import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from corp import generate_fixture, random_fixture_spec, read_map_pgm, write_map_pgm, write_tensor
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
    ], ids=["not-an-object", "string-count", "float-seed", "null-field",
            "scalar-regions", "short-region", "explicit-float-seed", "not-utf8", "bool-images"])
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
    ], ids=["margin-near-1", "one-channel", "nan-margin", "margin-1", "float-count", "bool-count"])
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
