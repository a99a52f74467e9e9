"""Command-line interface: run, eval, fixtures, gradcheck."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .decoder import get_decoder
from .errors import ArgumentError, CorpError, RangeViolationError, ShapeError
from .fixtures import FixtureSpec, generate_fixture, random_fixture_spec
from .losses import iou_grad_check
from .metrics import evaluate, write_metrics_csv
from .pipeline import run_pipeline
from .storage import _atomic_write, read_map_pgm, read_tensor, write_map_pgm, write_tensor
from .types import FeatureGroup, MapGroup, PipelineConfig

_EXIT_CODES = {"argument": 2, "format": 3, "shape": 4}


class _Parser(argparse.ArgumentParser):
    """A usage error ends as one ``error:argument:`` line, like every other failure."""

    def error(self, message):
        raise ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corp", description="Co-representation purification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the iterative co-saliency pipeline on a group")
    run.add_argument("--features", required=True, help="directory of <name>.crpt feature tensors")
    run.add_argument("--init-maps", required=True,
                     help='directory of <name>.pgm initial maps, or the literal "all-ones"')
    run.add_argument("--out", required=True, help="output directory for the final maps")
    run.add_argument("--k", type=int, default=32)
    run.add_argument("--iters", type=int, default=3)
    run.add_argument("--decoder", default="reference")
    run.add_argument("--proxy-mode", choices=("maps", "gt"), default="maps")
    run.add_argument("--gt", help="directory of <name>.pgm ground-truth maps")
    run.add_argument("--trace", action="store_true",
                     help="also write per-iteration maps and a JSON-lines trace")
    run.add_argument("--dump-scores", metavar="CSV", help="write per-location scores per iteration")
    run.set_defaults(handler=cmd_run)

    ev = sub.add_parser("eval", help="evaluate prediction maps against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out", required=True, help="metrics CSV path")
    ev.set_defaults(handler=cmd_eval)

    fx = sub.add_parser("fixtures", help="generate a synthetic group from a JSON spec")
    fx.add_argument("--spec", required=True, help="JSON fixture spec")
    fx.add_argument("--out", required=True, help="output directory (features/, gt/, init/)")
    fx.set_defaults(handler=cmd_fixtures)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the IoU-loss gradient")
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(handler=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CorpError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error:argument: {exc}", file=sys.stderr)
        return 2


def _sorted_stems(directory: Path, suffix: str) -> list[Path]:
    if not directory.is_dir():
        raise ArgumentError(f"{directory} is not a directory")
    files = sorted(p for p in directory.iterdir() if p.suffix == suffix)
    if not files:
        raise ArgumentError(f"{directory} contains no {suffix} files")
    return files


def _load_features(directory: str) -> tuple[FeatureGroup, list[str]]:
    files = _sorted_stems(Path(directory), ".crpt")
    tensors = []
    for path in files:
        t = read_tensor(path)
        if t.ndim != 3:
            raise ShapeError(f"{path}: expected a D x H x W tensor, got shape {t.shape}")
        if tensors and t.shape != tensors[0].shape:
            raise ShapeError(
                f"{path}: shape {t.shape} disagrees with the group's {tensors[0].shape}"
            )
        tensors.append(t)
    try:
        features = FeatureGroup.from_tensors(tensors)
    except RangeViolationError as exc:
        raise RangeViolationError(
            f"{files[exc.image]}: {exc}; features must be l2-normalized", image=exc.image
        ) from None
    return features, [p.stem for p in files]


def _load_map_group(directory: str, stems: list[str]) -> MapGroup:
    base = Path(directory)
    if not base.is_dir():
        raise ArgumentError(f"{base} is not a directory")
    maps = []
    for stem in stems:
        path = base / f"{stem}.pgm"
        if not path.is_file():
            raise ArgumentError(f"missing map {path} for feature stem {stem!r}")
        m = read_map_pgm(path)
        if maps and m.shape != maps[0].shape:
            raise ShapeError(f"{path}: shape {m.shape} disagrees with the group's {maps[0].shape}")
        maps.append(m)
    return MapGroup(maps)


def cmd_run(args) -> int:
    # Settings are checked before any file is read.
    cfg = PipelineConfig(
        k=args.k,
        iters=args.iters,
        decoder=args.decoder,
        proxy_mode="from_ground_truth" if args.proxy_mode == "gt" else "from_maps",
    )
    get_decoder(cfg.decoder)
    if args.proxy_mode == "gt" and not args.gt:
        raise ArgumentError("--proxy-mode gt requires --gt")
    features, stems = _load_features(args.features)
    if args.init_maps == "all-ones":
        init_maps = MapGroup.all_ones(features.n_images, features.height, features.width)
    else:
        init_maps = _load_map_group(args.init_maps, stems)
    gt = _load_map_group(args.gt, stems) if args.gt else None
    trace = run_pipeline(
        features, init_maps, cfg, gt=gt, keep_scores=args.dump_scores is not None
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    final = trace.records[-1].maps if trace.records else init_maps
    for i, stem in enumerate(stems):
        write_map_pgm(out_dir / f"{stem}.pgm", final.maps[i])
    if args.trace:
        _write_trace(out_dir, stems, trace)
    if args.dump_scores:
        _dump_scores(Path(args.dump_scores), stems, trace, features.height, features.width)
    print(f"wrote {len(stems)} maps to {out_dir} ({len(trace)} iterations)")
    return 0


def _write_trace(out_dir: Path, stems: list[str], trace) -> None:
    trace_dir = out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for rec in trace.records:
        iter_dir = trace_dir / f"iter_{rec.iteration}"
        iter_dir.mkdir(parents=True, exist_ok=True)
        for i, stem in enumerate(stems):
            write_map_pgm(iter_dir / f"{stem}.pgm", rec.maps.maps[i])
        lines.append(json.dumps({
            "iteration": rec.iteration,
            "proxy_norm": rec.proxy.source_norm,
            "degenerate": rec.proxy.degenerate,
            "purity": rec.purity,
        }))
    _atomic_write(trace_dir / "trace.jsonl", "".join(line + "\n" for line in lines))


def _dump_scores(path: Path, stems: list[str], trace, height: int, width: int) -> None:
    prefixes = [f"{stem},{y},{x}," for stem in stems for y in range(height) for x in range(width)]
    rows = ["iteration,image,row,col,score\n"]
    for rec in trace.records:
        rows += [f"{rec.iteration},{p}{s:.17g}\n" for p, s in zip(prefixes, rec.scores.tolist())]
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, "".join(rows))


def cmd_eval(args) -> int:
    pred_files = _sorted_stems(Path(args.pred), ".pgm")
    stems = [p.stem for p in pred_files]
    pred = _load_map_group(args.pred, stems)
    gt = _load_map_group(args.gt, stems)
    if pred.maps.shape != gt.maps.shape:
        raise ShapeError(
            f"prediction group shape {pred.maps.shape} does not match ground truth "
            f"{gt.maps.shape}"
        )
    report = evaluate(pred, gt, image_ids=stems)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out, group=Path(args.pred).name, report=report)
    print(
        f"group {Path(args.pred).name}: mae={report.mae:.4f} fmax={report.f_max:.4f} "
        f"favg={report.f_avg:.4f} s={report.s_measure:.4f} e={report.e_mean:.4f}"
    )
    return 0


_SPEC_GEN_KEYS = (
    "n_images", "channels", "height", "width", "region_size", "n_distractors",
    "separation_margin", "noise_sigma", "init_mode",
)


def cmd_fixtures(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ArgumentError(f"spec file {spec_path} does not exist")
    try:
        payload = json.loads(spec_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"{spec_path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ArgumentError(f"{spec_path}: spec must be a JSON object")
    if "seed" not in payload:
        raise ArgumentError(f"{spec_path}: spec needs a 'seed' field")
    try:
        if "co_direction" in payload:
            spec = FixtureSpec(
                seed=payload["seed"],
                n_images=payload["n_images"],
                channels=payload["channels"],
                height=payload["height"],
                width=payload["width"],
                planted_regions=tuple(tuple(r) for r in payload["planted_regions"]),
                co_direction=tuple(payload["co_direction"]),
                distractor_directions=tuple(tuple(d) for d in payload["distractor_directions"]),
                separation_margin=payload["separation_margin"],
                noise_sigma=payload["noise_sigma"],
                init_mode=payload.get("init_mode", "dilated"),
            )
        else:
            kwargs = {k: payload[k] for k in _SPEC_GEN_KEYS if k in payload}
            spec = random_fixture_spec(payload["seed"], **kwargs)
    except KeyError as exc:
        raise ArgumentError(f"{spec_path}: missing field {exc}") from None
    except TypeError as exc:
        # Every value here comes from the spec, so this is a field of the wrong type.
        raise ArgumentError(f"{spec_path}: spec field of the wrong type ({exc})") from None
    features, gt, init = generate_fixture(spec)
    out = Path(args.out)
    for sub in ("features", "gt", "init"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for i in range(features.n_images):
        stem = f"img_{i:03d}"
        write_tensor(out / "features" / f"{stem}.crpt", features.embeddings[i])
        write_map_pgm(out / "gt" / f"{stem}.pgm", gt.maps[i])
        write_map_pgm(out / "init" / f"{stem}.pgm", init.maps[i])
    print(f"wrote {features.n_images}-image fixture (seed {spec.seed}) to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ArgumentError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ArgumentError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        gt = rng.uniform(0.1, 0.9, size=(2, 6, 6))
        delta = rng.uniform(1e-3, 0.08, size=gt.shape)
        sign = rng.choice([-1.0, 1.0], size=gt.shape)
        pred = np.clip(gt + sign * delta, 0.05, 0.95)
        # Clipping may pull a point back within the tie margin; nudge it off.
        tie = np.abs(pred - gt) < 1e-3
        pred[tie] = gt[tie] - 1e-3
        report = iou_grad_check(pred, gt)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            print(
                f"gradcheck FAILED: max relative error {report.max_rel_error:.3e} "
                f"at {report.worst_index}"
            )
            return 1
    print(f"gradcheck passed: {args.trials} trials, worst relative error {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
