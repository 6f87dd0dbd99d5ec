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

Indices are 1-based coordinate positions. Metric entries fill in by
symmetry, symplectic ones by antisymmetry, compatibility-tensor ones by
antisymmetry in the last index pair; everything unspecified is zero.
Every diagnostic carries the offending line number. Structural
validation (symmetry, non-degeneracy, closedness of the symplectic
form) happens when the chart is built, with the same error surface the
rest of the package uses.
"""

from __future__ import annotations

from .exprparse import ExprError, parse_scalar_expr
from .geometry import ChartGeometry
from .scalars import SizeError, coordinate_field

_SECTIONS = ("chart", "metric", "symplectic", "ltensor")


class ManifestError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ChartManifest:
    """Parsed manifest content, prior to chart construction."""

    def __init__(self):
        self.name = None
        self.dim = None
        self.coords = None
        self.kahler_expected = None
        self.metric_entries = []  # (key, i, j, expr_text, line)
        self.symplectic_entries = []
        self.l_entries = []  # (key, i, j, k, expr_text, line)

    def build(self) -> ChartGeometry:
        if self.name is None:
            raise ManifestError("missing [chart] name", 1)
        if self.coords is None:
            raise ManifestError("missing [chart] coords", 1)
        if self.dim is not None and self.dim != len(self.coords):
            raise ManifestError(
                f"dim={self.dim} but {len(self.coords)} coordinates given", 1
            )
        field = coordinate_field(self.coords)
        dim = field.dimension
        # indices are range-checked here, where the coordinates are known:
        # an entry may come before the [chart] line that fixes them
        entries = self.metric_entries + self.symplectic_entries + self.l_entries
        for key, *indices, _, line in sorted(entries, key=lambda entry: entry[-1]):
            for index in indices:
                if not 0 <= index < dim:
                    raise ManifestError(
                        f"index {index + 1} out of range 1..{dim} in {key!r}", line
                    )

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

        def settle(seen, slot, value, entry, line):
            """Record the value of an independent slot; two entries that fill
            it must agree."""
            if seen.setdefault(slot, value) != value:
                raise ManifestError(f"{entry} conflicts with an earlier one", line)

        g = [[field.zero] * dim for _ in range(dim)]
        seen = {}
        for _, i, j, text, line in self.metric_entries:
            value = parse_entry(text, line)
            settle(seen, (min(i, j), max(i, j)), value, f"metric entry ({i + 1},{j + 1})", line)
            g[i][j] = value
            g[j][i] = value

        if not self.symplectic_entries:
            raise ManifestError("missing [symplectic] entries", 1)
        w = [[field.zero] * dim for _ in range(dim)]
        seen = {}
        for _, i, j, text, line in self.symplectic_entries:
            value = parse_entry(text, line)
            if i == j:
                if not value.is_zero:
                    raise ManifestError(
                        f"diagonal symplectic entry ({i + 1},{i + 1}) must be zero", line
                    )
                continue
            entry = f"symplectic entry ({i + 1},{j + 1})"
            settle(seen, (min(i, j), max(i, j)), value if i < j else -value, entry, line)
            w[i][j] = value
            w[j][i] = -value

        l_tensor = None
        if self.l_entries:
            l_tensor = [
                [[field.zero] * dim for _ in range(dim)] for _ in range(dim)
            ]
            seen = {}
            for _, i, j, k, text, line in self.l_entries:
                value = parse_entry(text, line)
                if j == k:
                    if not value.is_zero:
                        raise ManifestError(
                            f"tensor entry ({i + 1},{j + 1},{k + 1}) must vanish "
                            "(antisymmetric slots)",
                            line,
                        )
                    continue
                entry = f"tensor entry ({i + 1},{j + 1},{k + 1})"
                settle(seen, (i, min(j, k), max(j, k)), value if j < k else -value, entry, line)
                l_tensor[i][j][k] = value
                l_tensor[i][k][j] = -value

        return ChartGeometry(
            self.name,
            self.coords,
            g,
            w,
            l_tensor=l_tensor,
            kahler_expected=self.kahler_expected,
        )


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


def parse_manifest_document(text: str) -> ChartManifest:
    manifest = ChartManifest()
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
            _apply(manifest, section, key, value, lineno)
    return manifest


def _apply(manifest: ChartManifest, section: str, key: str, value: str, line: int):
    if section == "chart":
        if key == "name":
            manifest.name = value
        elif key == "dim":
            try:
                manifest.dim = int(value)
            except ValueError:
                raise ManifestError(f"dim must be an integer, got {value!r}", line) from None
        elif key == "coords":
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
            manifest.coords = coords
        elif key == "kahler-expected":
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ManifestError(
                    f"kahler-expected must be true or false, got {value!r}", line
                )
            manifest.kahler_expected = lowered == "true"
        else:
            raise ManifestError(f"unknown [chart] key {key!r}", line)
        return
    if section == "metric":
        manifest.metric_entries.append((key, *_indices(key, "g", 2, line), value, line))
    elif section == "symplectic":
        manifest.symplectic_entries.append((key, *_indices(key, "w", 2, line), value, line))
    else:
        manifest.l_entries.append((key, *_indices(key, "L", 3, line), value, line))


def parse_manifest(text: str) -> ChartGeometry:
    return parse_manifest_document(text).build()
