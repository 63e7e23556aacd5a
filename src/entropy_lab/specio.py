"""JSON set-specification files: parsing, validation, and emission.

Three spec types are understood, all versioned with "version": 1:

    {"version": 1, "type": "intervals", "intervals": [[a, b], ...]}
    {"version": 1, "type": "cantor", "q": 0.25, "a": 1.0, "depth": 3 | "auto"}
    {"version": 1, "type": "fermi", "samples": [[theta, e], ...],
     "filling": 0.5}

An optional top-level "metadata" object is carried along untouched (the
cantor emitter fills it in). Unknown fields and unknown versions are
rejected. A missing "version" is read as 1.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .torus_sets import (
    CantorSpec,
    DispersionSamples,
    TorusIntervalSet,
    TorusSetError,
    canonicalize,
    cantor_depth_policy,
    cantor_generate,
    fermi_sea,
    predicted_alpha,
)

SCHEMA_VERSION = 1


class SpecFormatError(ValueError):
    """Malformed or unsupported specification file."""


@dataclass(frozen=True)
class SetSpec:
    """Parsed spec: exactly one of the payload fields is set."""

    kind: str
    intervals: TorusIntervalSet | None = None
    cantor_ratio: float | None = None
    cantor_amplitude: float | None = None
    cantor_depth: int | str | None = None     # int or "auto"
    dispersion: DispersionSamples | None = None
    filling: float | None = None
    metadata: dict | None = None

    def resolve_set(self, n_max: int | None = None) -> TorusIntervalSet:
        """Concrete interval set; cantor specs with depth "auto" need the
        largest block size of the intended scan to pick their depth."""
        if self.kind == "intervals":
            return self.intervals
        if self.kind == "cantor":
            depth = resolve_cantor_depth(self.cantor_ratio, self.cantor_amplitude,
                                         self.cantor_depth, n_max)
            return cantor_generate(
                CantorSpec(self.cantor_ratio, self.cantor_amplitude, depth))
        return fermi_sea(self.dispersion, self.filling)


def resolve_cantor_depth(ratio: float, amplitude: float, depth: int | str,
                         n_max: int | None) -> int:
    """``depth`` itself, or for "auto" the depth ``cantor_depth_policy``
    picks for a scan up to block size ``n_max``."""
    if depth != "auto":
        return depth
    if n_max is None:
        raise SpecFormatError('cantor depth "auto" needs a target N_max (--nmax)')
    return cantor_depth_policy(CantorSpec(ratio, amplitude), n_max)


def cantor_parameters(spec: SetSpec) -> dict | None:
    """{"q": ratio, "a": amplitude} of a cantor spec, or of any other spec
    whose metadata carries "q" and "a" (as the cantor emitter writes them);
    None when the spec carries neither. Metadata parameters are checked as
    a cantor spec's own are."""
    if spec.kind == "cantor":
        return {"q": spec.cantor_ratio, "a": spec.cantor_amplitude}
    metadata = spec.metadata or {}
    if not {"q", "a"} <= set(metadata):
        return None
    message = 'cantor metadata needs numeric "q" and "a"'
    ratio, amplitude = _number(metadata["q"], message), _number(metadata["a"], message)
    CantorSpec(ratio, amplitude)
    return {"q": ratio, "a": amplitude}


def _check_keys(obj: dict, allowed: set[str]):
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFormatError(f"unknown spec fields: {sorted(unknown)}")


def _number(value, what: str) -> float:
    """A JSON number as a float. Booleans, strings and null are refused
    rather than coerced; ``what`` opens the error message."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError(f"{what}, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SpecFormatError(f"{what}, got an integer too large for a float") from exc


def _number_pairs(obj: dict, key: str, what: str) -> list[tuple[float, float]]:
    raw = obj.get(key)
    if not isinstance(raw, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in raw):
        raise SpecFormatError(f'"{key}" must be a list of [{what}] pairs')
    message = f'"{key}" must hold numeric [{what}] pairs'
    return [(_number(a, message), _number(b, message)) for a, b in raw]


def parse_spec(obj) -> SetSpec:
    if not isinstance(obj, dict):
        raise SpecFormatError("spec must be a JSON object")
    version = obj.get("version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:   # True == 1, 1.0 == 1
        raise SpecFormatError(f"unsupported spec version {version!r}")
    kind = obj.get("type")
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SpecFormatError('"metadata" must be an object')

    if kind == "intervals":
        _check_keys(obj, {"version", "type", "intervals", "metadata"})
        pairs = _number_pairs(obj, "intervals", "start, end")
        try:    # a canonical list, as every emitter writes, needs no rebuild
            intervals = TorusIntervalSet(tuple(pairs))
        except TorusSetError:
            intervals = canonicalize(pairs)
        return SetSpec(kind="intervals", intervals=intervals, metadata=metadata)

    if kind == "cantor":
        _check_keys(obj, {"version", "type", "q", "a", "depth", "metadata"})
        ratio = _number(obj.get("q"), 'cantor spec needs numeric "q" and "a"')
        amplitude = _number(obj.get("a"), 'cantor spec needs numeric "q" and "a"')
        depth = obj.get("depth", "auto")
        # validate the parameters and a fixed depth eagerly
        CantorSpec(ratio, amplitude, 0 if depth == "auto" else depth)
        return SetSpec(kind="cantor", cantor_ratio=ratio, cantor_amplitude=amplitude,
                       cantor_depth=depth, metadata=metadata)

    if kind == "fermi":
        _check_keys(obj, {"version", "type", "samples", "filling", "metadata"})
        samples = _number_pairs(obj, "samples", "theta, energy")
        filling = _number(obj.get("filling"), 'fermi spec needs a numeric "filling"')
        disp = DispersionSamples(thetas=tuple(t for t, _ in samples),
                                 energies=tuple(e for _, e in samples))
        return SetSpec(kind="fermi", dispersion=disp, filling=filling,
                       metadata=metadata)

    raise SpecFormatError(f"unknown spec type {kind!r}")


def load_spec(path) -> SetSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec file {path} is not valid JSON: {exc}") from exc
    return parse_spec(obj)


def intervals_spec_dict(K: TorusIntervalSet, metadata: dict | None = None) -> dict:
    out = {
        "version": SCHEMA_VERSION,
        "type": "intervals",
        "intervals": [[s, e] for s, e in K.intervals],
    }
    if metadata:
        out["metadata"] = metadata
    return out


def cantor_spec_dict(ratio: float, amplitude: float, depth: int) -> dict:
    """Interval-list spec of the depth-``depth`` truncation plus its
    construction metadata."""
    spec = CantorSpec(ratio, amplitude, depth)
    K = cantor_generate(spec)
    return intervals_spec_dict(K, metadata={
        "q": ratio,
        "a": amplitude,
        "depth": depth,
        "predicted_alpha": predicted_alpha(spec),
        "truncated_measure": spec.truncated_measure(),
        "limit_measure": spec.limit_measure,
    })


def dump_json(obj, path=None) -> None:
    """Write ``obj`` as one line of JSON and a newline to ``path``, or to
    stdout when no path is given. ``json.dumps`` without ``indent`` encodes
    every value in C; ``indent`` would select the pure-Python encoder. Floats
    are written by ``repr`` either way, so they read back bit for bit."""
    text = json.dumps(obj) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Spec files are JSON documents like any other; the older name stays.
dump_spec = dump_json
