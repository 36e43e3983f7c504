"""Problem files: the on-disk description of an implicitization instance.

Two formats are accepted.  JSON::

    {
      "blocks": [["s", "u"], ["t", "v"]],
      "target_vars": ["X_0", "X_1", "X_2", "X_3"],   // optional
      "polynomials": ["3*s^2*t*v - ...", "..."],
      "degree": [2, 2]                               // optional cross-check
    }

and a line-oriented text format meant for easy transcription of computer
algebra sessions::

    # comment
    blocks: s u ; t v
    targets: X_0 X_1 X_2 X_3
    degree: 2 2
    f0 = 3*s^2*t*v - 2*s*u*t^2 - ... ;
    f1 = ...

Text lines may end with ';'; polynomial names are arbitrary and only their
order matters.  Each header line, like each JSON key, may be given once.  Files ending in ``.json`` (or whose first non-blank byte is
``{``) are parsed as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .complexes import ProblemInstance
from .multipoly import PolyParseError, parameter_ring, parse_poly


class ProblemValidationError(ValueError):
    """Invalid problem file (message includes the offending position)."""


@dataclass
class ProblemFile:
    """Validated problem description, ready to build a :class:`ProblemInstance`."""

    blocks: list
    target_vars: list | None
    polynomials: list
    degree: tuple | None

    def instance(self) -> ProblemInstance:
        ring = parameter_ring(self.blocks)
        polys = []
        for k, text in enumerate(self.polynomials):
            try:
                polys.append(parse_poly(text, ring))
            except PolyParseError as exc:
                raise ProblemValidationError(f"polynomial #{k}: {exc}") from exc
        try:
            inst = ProblemInstance.from_polys(polys, target_names=self.target_vars)
        except ValueError as exc:
            raise ProblemValidationError(str(exc)) from exc
        if self.degree is not None and tuple(self.degree) != inst.gamma:
            raise ProblemValidationError(
                f"declared degree {tuple(self.degree)} does not match the actual {inst.gamma}"
            )
        return inst

    def validate(self):
        if not self.blocks or any(not g for g in self.blocks):
            raise ProblemValidationError("need at least one non-empty variable block")
        names = [n for g in self.blocks for n in g]
        if len(set(names)) != len(names):
            raise ProblemValidationError("variable names must be unique across blocks")
        if self.target_vars is not None:
            if len(set(self.target_vars)) != len(self.target_vars):
                raise ProblemValidationError("target variable names must be unique")
            if set(self.target_vars) & set(names):
                raise ProblemValidationError("target names collide with parameter names")
            if len(self.target_vars) != len(self.polynomials):
                raise ProblemValidationError(
                    f"{len(self.polynomials)} polynomials but {len(self.target_vars)} target names"
                )
        if len(self.polynomials) < 2:
            raise ProblemValidationError("need at least two polynomials")
        return self


def _unique_keys(pairs):
    """``object_pairs_hook`` that refuses a key given twice in one object
    (plain ``json.loads`` keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemValidationError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(text) -> ProblemFile:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProblemValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemValidationError("top-level JSON value must be an object")
    unknown = set(obj) - {"blocks", "target_vars", "polynomials", "degree"}
    if unknown:
        raise ProblemValidationError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("blocks", "polynomials"):
        if key not in obj:
            raise ProblemValidationError(f"missing key {key!r}")
    blocks, polys = obj["blocks"], obj["polynomials"]
    targets, degree = obj.get("target_vars"), obj.get("degree")
    if not isinstance(blocks, list) or not all(_is_list_of(g, str) for g in blocks):
        raise ProblemValidationError("'blocks' must be a list of lists of strings")
    if not _is_list_of(polys, str):
        raise ProblemValidationError("'polynomials' must be a list of strings")
    if targets is not None and not _is_list_of(targets, str):
        raise ProblemValidationError("'target_vars' must be a list of strings")
    if degree is not None and not _is_list_of(degree, int):
        raise ProblemValidationError("'degree' must be a list of integers")
    return ProblemFile(
        blocks=blocks,
        target_vars=targets,
        polynomials=polys,
        degree=tuple(degree) if degree is not None else None,
    ).validate()


def _is_list_of(value, kind):
    """Whether ``value`` is a JSON array of ``kind`` values (booleans are not
    integers here)."""
    return isinstance(value, list) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in value
    )


def _load_text(text) -> ProblemFile:
    blocks = None
    targets = None
    degree = None
    polys = []
    seen = {}  # header key -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("--"):
            continue
        if line.endswith(";"):
            line = line[:-1].rstrip()
        key, sep, rest = line.partition(":")
        if sep and key.strip() in ("blocks", "targets", "degree"):
            key = key.strip()
            rest = rest.strip()
            if key in seen:
                raise ProblemValidationError(
                    f"line {lineno}: duplicate {key!r} (first given on line {seen[key]})"
                )
            seen[key] = lineno
            if key == "blocks":
                blocks = [group.split() for group in rest.split(";")]
            elif key == "targets":
                targets = rest.split()
            else:
                try:
                    degree = tuple(int(x) for x in rest.split())
                except ValueError:
                    raise ProblemValidationError(f"line {lineno}: degree must be integers")
            continue
        name, sep, rhs = line.partition("=")
        if not sep:
            raise ProblemValidationError(
                f"line {lineno}: expected 'name = polynomial' or a 'blocks:'/'targets:'/'degree:' line"
            )
        if not rhs.strip():
            raise ProblemValidationError(f"line {lineno}: empty polynomial")
        polys.append(rhs.strip())
    if blocks is None:
        raise ProblemValidationError("missing 'blocks:' line")
    if not polys:
        raise ProblemValidationError("no polynomial lines found")
    return ProblemFile(blocks=blocks, target_vars=targets, polynomials=polys, degree=degree).validate()


def load_problem(path) -> ProblemFile:
    """Load and validate a problem file (JSON or text, by extension/sniffing)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemValidationError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        return _load_json(text)
    return _load_text(text)


def hypersurface_check(inst: ProblemInstance):
    """The image can only be a hypersurface when the number of polynomials is
    dim(source) + 2; raise otherwise (used by the implicitize command)."""
    need = sum(inst.blocks.r) + 2
    if len(inst.f) != need:
        raise ProblemValidationError(
            f"{len(inst.f)} polynomials map a {sum(inst.blocks.r)}-dimensional source into "
            f"projective {len(inst.f) - 1}-space; a hypersurface image needs exactly {need}"
        )
