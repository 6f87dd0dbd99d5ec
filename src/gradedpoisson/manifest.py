"""Chart manifests: a line-oriented key-value format for chart input.

A manifest names a chart, its coordinates and the two structure tensors:

    [chart] name=plane, dim=2, coords=x,y
    [metric]
    g.1.1=1
    g.2.2=1
    [symplectic]
    w.1.2=1
    [ltensor]
    L.1.2.2=0

Indices are 1-based coordinate positions. One rule fills every tensor
section: an entry sets its slot, and the slot with its last two indices
swapped takes the entry times the section's mirror sign, +1 for g and
-1 for w and L, so g is symmetric, w antisymmetric and L antisymmetric
in its last index pair. A slot and its mirror filled twice must agree,
and where the last two indices are equal an antisymmetric section's
entry must be zero. Everything unspecified is zero.
Every diagnostic carries the offending line number. Structural
validation (symmetry, non-degeneracy, closedness of the symplectic
form) happens when the chart is built, with the same error surface the
rest of the package uses.
"""

from __future__ import annotations

from .exprparse import ExprError, parse_scalar_expr
from .geometry import ChartGeometry
from .scalars import SizeError, coordinate_field

# section: (key prefix, index count, sign of a mirrored entry, entry label,
# rule for an entry whose last two indices are equal, or None to fill it)
_TENSORS = {
    "metric": ("g", 2, 1, "metric entry", None),
    "symplectic": ("w", 2, -1, "symplectic entry", "diagonal {} must be zero"),
    "ltensor": ("L", 3, -1, "tensor entry", "{} must vanish (antisymmetric slots)"),
}
_SECTIONS = ("chart", *_TENSORS)


class ManifestError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _split_assignments(text: str, line: int):
    """Comma-split with re-attachment: a piece without '=' belongs to the
    value of the previous assignment (so coords=x,y parses whole)."""
    pieces = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if "=" in raw:
            pieces.append(raw)
        elif pieces:
            pieces[-1] = pieces[-1] + "," + raw
        else:
            raise ManifestError(f"expected key=value, got {raw!r}", line)
    out = []
    for piece in pieces:
        key, _, value = piece.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ManifestError(f"expected key=value, got {piece!r}", line)
        out.append((key, value))
    return out


def _indices(key: str, prefix: str, count: int, line: int):
    parts = key.split(".")
    if len(parts) != count + 1 or parts[0] != prefix:
        raise ManifestError(
            f"expected {prefix}.{'.'.join('i' * count)} style key, got {key!r}", line
        )
    try:
        return [int(p) - 1 for p in parts[1:]]
    except ValueError:
        raise ManifestError(f"non-integer index in {key!r}", line) from None


def _chart_value(key: str, value: str, line: int):
    """The value of a [chart] key, checked."""
    if key == "name":
        return value
    if key == "dim":
        try:
            return int(value)
        except ValueError:
            raise ManifestError(f"dim must be an integer, got {value!r}", line) from None
    if key == "coords":
        coords = tuple(c.strip() for c in value.split(",") if c.strip())
        if not coords:
            raise ManifestError("coords list is empty", line)
        for c in coords:
            if not c.isidentifier():
                raise ManifestError(f"bad coordinate name {c!r}", line)
        if len(set(coords)) != len(coords):
            raise ManifestError("duplicate coordinate names", line)
        for c in coords:
            # an expression reads d<name> as a coordinate before a differential
            if c[:1] == "d" and c[1:] in coords:
                raise ManifestError(
                    f"coordinate name {c!r} would hide the differential of {c[1:]!r}", line
                )
        return coords
    if key == "kahler-expected":
        lowered = value.lower()
        if lowered not in ("true", "false"):
            raise ManifestError(f"kahler-expected must be true or false, got {value!r}", line)
        return lowered == "true"
    raise ManifestError(f"unknown [chart] key {key!r}", line)


def _fill(section: str, entries, field, parse_entry):
    """The tensor of one section: each entry sets its slot and, times the
    section's mirror sign, the slot with its last two indices swapped."""
    _, count, sign, label, diagonal = _TENSORS[section]
    dim = field.dimension

    def matrix():
        return [[field.zero] * dim for _ in range(dim)]

    tensor = [matrix() for _ in range(dim)] if count == 3 else matrix()
    seen = {}
    for _, (*head, j, k), text, line in entries:
        value = parse_entry(text, line)
        entry = f"{label} ({','.join(str(i + 1) for i in (*head, j, k))})"
        if j == k and diagonal is not None:
            if not value.is_zero:
                raise ManifestError(diagonal.format(entry), line)
            continue
        mirror = value if sign > 0 else -value
        # the independent slot has j <= k; two entries that fill it must agree
        independent = value if j <= k else mirror
        if seen.setdefault((*head, min(j, k), max(j, k)), independent) != independent:
            raise ManifestError(f"{entry} conflicts with an earlier one", line)
        block = tensor[head[0]] if head else tensor
        block[j][k] = value
        block[k][j] = mirror
    return tensor


def parse_manifest(text: str) -> ChartGeometry:
    chart = {}
    entries = {section: [] for section in _TENSORS}  # (key, indices, text, line)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ManifestError("unterminated section header", lineno)
            name = line[1:end].strip()
            if name not in _SECTIONS:
                raise ManifestError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    lineno,
                )
            section = name
            line = line[end + 1 :].strip()
            if not line:
                continue
        if section is None:
            raise ManifestError("content before any section header", lineno)
        for key, value in _split_assignments(line, lineno):
            if section == "chart":
                chart[key] = _chart_value(key, value, lineno)
            else:
                prefix, count = _TENSORS[section][:2]
                entries[section].append((key, _indices(key, prefix, count, lineno), value, lineno))

    if "name" not in chart:
        raise ManifestError("missing [chart] name", 1)
    coords = chart.get("coords")
    if coords is None:
        raise ManifestError("missing [chart] coords", 1)
    if chart.get("dim", len(coords)) != len(coords):
        raise ManifestError(f"dim={chart['dim']} but {len(coords)} coordinates given", 1)
    field = coordinate_field(coords)
    dim = field.dimension
    # indices are range-checked here, where the coordinates are known:
    # an entry may come before the [chart] line that fixes them
    for key, indices, _, line in sorted(
        (entry for listed in entries.values() for entry in listed), key=lambda entry: entry[-1]
    ):
        for index in indices:
            if not 0 <= index < dim:
                raise ManifestError(f"index {index + 1} out of range 1..{dim} in {key!r}", line)

    # a conformal metric writes one text for several entries: parse each
    # distinct text once. A text that fails is never stored, so it fails
    # at the first line that holds it.
    parsed = {}

    def parse_entry(text, line):
        value = parsed.get(text)
        if value is None:
            try:
                value = parsed[text] = parse_scalar_expr(text, field)
            except (ExprError, SizeError) as err:
                raise ManifestError(str(err), line) from None
        return value

    g = _fill("metric", entries["metric"], field, parse_entry)
    if not entries["symplectic"]:
        raise ManifestError("missing [symplectic] entries", 1)
    w = _fill("symplectic", entries["symplectic"], field, parse_entry)
    l_tensor = _fill("ltensor", entries["ltensor"], field, parse_entry) if entries["ltensor"] else None
    return ChartGeometry(
        chart["name"], coords, g, w, l_tensor=l_tensor, kahler_expected=chart.get("kahler-expected")
    )
