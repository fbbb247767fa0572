"""Experiment orchestration: config parsing, ladder fan-out, persistence.

An experiment is a plain-text config (key/value with sections) naming one
operation from the registry, a parameter map, an optional ladder (a list
of values for any numeric parameter) and a replicate count.  Running it
runs the cells one after another and produces one output directory per
cell with deterministic CSV/JSON files, plus a manifest holding the spec
hash, timestamps and per-file digests.
Result files never embed wall-clock data, so a rerun with the same seed
is byte-identical; reruns skip completed cells unless forced.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import operations
from .errors import ConfigurationError
from .files import write_json
from .operations import parse_value

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    operation: str
    seed: int
    params: dict
    ladders: dict
    replicates: int = 1
    output: str = "runs"

    def __post_init__(self):
        if self.operation not in operations.REGISTRY:
            raise ConfigurationError(f"unknown operation {self.operation!r}")
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")
        op = operations.REGISTRY[self.operation]
        for _, params in self.cells():
            op.bind(params)

    def canonical(self) -> str:
        blob = {
            "name": self.name, "operation": self.operation, "seed": self.seed,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "ladders": {k: list(self.ladders[k]) for k in sorted(self.ladders)},
            "replicates": self.replicates,
            "artifact_version": ARTIFACT_VERSION,
        }
        return json.dumps(blob, sort_keys=True)

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def cells(self):
        """Ladder x replicate grid as (cell_name, params) pairs; stochastic
        operations get a per-replicate seed."""
        stochastic = operations.REGISTRY[self.operation].stochastic
        items = sorted(self.ladders.items())
        combos = [{}]
        for key, values in items:
            combos = [dict(c, **{key: v}) for c in combos for v in values]
        out = []
        for combo in combos:
            for rep in range(self.replicates):
                label_parts = [f"{k}={v}" for k, v in sorted(combo.items())]
                if self.replicates > 1:
                    label_parts.append(f"rep={rep}")
                label = "_".join(label_parts) if label_parts else "single"
                params = dict(self.params)
                params.update(combo)
                if stochastic:
                    params["seed"] = self.seed ^ rep * 0x9E3779B9
                out.append((label.replace("/", "-"), params))
        return out


def spec_from_config(text: str) -> ExperimentSpec:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from None
    if "experiment" not in sections:
        raise ConfigurationError("config needs an [experiment] section")
    exp = sections["experiment"]
    for req in ("name", "operation", "seed"):
        if req not in exp:
            raise ConfigurationError(f"[experiment] must set {req!r}")
    try:
        seed, replicates = int(exp["seed"]), int(exp.get("replicates", "1"))
    except ValueError:
        raise ConfigurationError("[experiment] seed and replicates must be integers") from None
    params = {k: parse_value(v) for k, v in sections.get("params", {}).items()}
    ladders = {k: [parse_value(x) for x in v.split(",")]
               for k, v in sections.get("ladder", {}).items()}
    return ExperimentSpec(
        name=exp["name"], operation=exp["operation"], seed=seed,
        params=params, ladders=ladders, replicates=replicates,
        output=exp.get("output", "runs"),
    )


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunRecord:
    spec_hash: str
    started: float
    finished: float
    artifact_version: str
    digests: dict
    status: str


def run_experiment(spec: ExperimentSpec, root: Path | str | None = None,
                   force: bool = False) -> RunRecord:
    """Execute the ladder x replicate grid; idempotent on the spec hash."""
    root = Path(root) if root is not None else Path(spec.output)
    run_dir = root / spec.name
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = run_dir / "manifest.json"
    spec_hash = spec.spec_hash()

    previous = {}
    if manifest_path.exists() and not force:
        try:
            old = json.loads(manifest_path.read_text())
            if old.get("spec_hash") == spec_hash and old.get("status") == "complete":
                previous = old.get("digests", {})
        except (json.JSONDecodeError, OSError):
            previous = {}

    op = operations.REGISTRY[spec.operation]
    started = time.time()
    digests = {}

    for label, params in spec.cells():
        expected = {k: v for k, v in previous.items() if k.startswith(label + "/")}
        if expected and all((run_dir / k).exists() and _digest(run_dir / k) == v
                            for k, v in expected.items()):
            digests.update(expected)
            continue
        # work in a temp dir, atomically renamed on success
        tmp_dir = run_dir / (label + ".tmp")
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        files = op.execute(params, tmp_dir)
        cell_dir = run_dir / label
        if cell_dir.exists():
            shutil.rmtree(cell_dir)
        tmp_dir.replace(cell_dir)
        for f in files:
            digests[str(Path(label) / Path(f).name)] = _digest(cell_dir / Path(f).name)
    record = RunRecord(
        spec_hash=spec_hash, started=started, finished=time.time(),
        artifact_version=ARTIFACT_VERSION, digests=digests, status="complete",
    )
    payload = {"experiment": spec.name, "operation": spec.operation,
               "anchor": op.anchor, **asdict(record)}
    write_json(manifest_path, payload)
    return record


def report(run_root: Path | str) -> tuple[str, int]:
    """Human-readable summary of every experiment under run_root.

    Digest mismatches and missing files are flagged; the report is still
    produced.  Returns (text, exit_code)."""
    run_root = Path(run_root)
    manifests = sorted(run_root.glob("*/manifest.json")) + (
        [run_root / "manifest.json"] if (run_root / "manifest.json").exists() else [])
    if not manifests:
        return f"no experiments found under {run_root}\n", 1
    lines = []
    bad = 0
    for mf in manifests:
        try:
            data = json.loads(mf.read_text())
        except (json.JSONDecodeError, OSError):
            lines.append(f"{mf}: corrupt manifest")
            bad += 1
            continue
        lines.append(f"experiment: {data.get('experiment')}  "
                     f"operation: {data.get('operation')}  "
                     f"anchor: {data.get('anchor')}")
        lines.append(f"  spec_hash: {data.get('spec_hash')}  "
                     f"status: {data.get('status')}")
        for rel, dig in sorted(data.get("digests", {}).items()):
            path = mf.parent / rel
            if not path.exists():
                flag = "MISSING"
                bad += 1
            elif _digest(path) != dig:
                flag = "DIGEST-MISMATCH"
                bad += 1
            else:
                flag = "ok"
            lines.append(f"    {rel}: {flag}")
    return "\n".join(lines) + "\n", (0 if bad == 0 else 1)
