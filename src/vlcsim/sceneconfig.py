"""Plain-text scene files: sectioned key-value, SI units.

Format (INI-style, parsed with configparser)::

    [scene]
    noise_floor_dbm = -60

    [frontend tx_a]
    role = tx
    position_m = 0 0 0
    boresight = 1 0 0
    half_power_semi_angle_deg = 30
    tx_power_dbm = 0

    [frontend rx_a]
    role = rx
    position_m = 2 0 0
    boresight = -1 0 0
    fov_half_angle_deg = 45
    active_area_m2 = 1e-4
    conversion_gain_db = 0

    [obstacle cover_b]
    blocks = tx_a->rx_b
    frames = 100 181

Vectors are whitespace-separated; boresights are normalized while parsing.
`frames` is the half-open active interval [start, end); `blocks` is a
comma-separated list of tx->rx pairs.
"""

import configparser
import math

import numpy as np

from .channel import DEFAULT_NOISE_FLOOR_DBM, FrontEnd, Obstacle, Scene
from .errors import ValidationError

_FRONTEND_KEYS = {"role", "position_m", "boresight", "half_power_semi_angle_deg",
                  "fov_half_angle_deg", "active_area_m2", "tx_power_dbm",
                  "conversion_gain_db"}
_OBSTACLE_KEYS = {"blocks", "frames"}


def _vector(text: str, name: str, fe_id: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValidationError(f"front-end '{fe_id}': {name} must be a 3-vector, got '{text}'")
    return np.array([float(p) for p in parts])


def _frontend_from_section(fe_id: str, sec) -> FrontEnd:
    unknown = set(sec) - _FRONTEND_KEYS
    if unknown:
        raise ValidationError(f"front-end '{fe_id}': unknown key(s) {sorted(unknown)}")
    for key in ("role", "position_m", "boresight"):
        if key not in sec:
            raise ValidationError(f"front-end '{fe_id}': missing required key '{key}'")
    boresight = _vector(sec["boresight"], "boresight", fe_id)
    norm = np.linalg.norm(boresight)
    if not 0.0 < norm < math.inf:
        raise ValidationError(f"front-end '{fe_id}': boresight must be nonzero and finite, got '{sec['boresight']}'")

    def opt(key):
        return float(sec[key]) if key in sec else None

    return FrontEnd(
        id=fe_id,
        role=sec["role"],
        position=_vector(sec["position_m"], "position_m", fe_id),
        boresight=boresight / norm,
        half_power_semi_angle=opt("half_power_semi_angle_deg"),
        fov_half_angle=opt("fov_half_angle_deg"),
        active_area=opt("active_area_m2"),
        tx_electrical_power_dbm=opt("tx_power_dbm"),
        conversion_gain_db=float(sec.get("conversion_gain_db", 0.0)))


def _obstacle_from_section(name: str, sec) -> Obstacle:
    unknown = set(sec) - _OBSTACLE_KEYS
    if unknown:
        raise ValidationError(f"obstacle '{name}': unknown key(s) {sorted(unknown)}")
    for key in _OBSTACLE_KEYS:
        if key not in sec:
            raise ValidationError(f"obstacle '{name}': missing required key '{key}'")
    pairs = set()
    for chunk in sec["blocks"].split(","):
        chunk = chunk.strip()
        if "->" not in chunk:
            raise ValidationError(f"obstacle '{name}': blocks entries must look like tx_id->rx_id, got '{chunk}'")
        tx_id, rx_id = (p.strip() for p in chunk.split("->", 1))
        pairs.add((tx_id, rx_id))
    frames = sec["frames"].split()
    if len(frames) != 2:
        raise ValidationError(f"obstacle '{name}': frames must be 'start end', got '{sec['frames']}'")
    return Obstacle(blocked_pairs=frozenset(pairs),
                    active_frames=(int(frames[0]), int(frames[1])))


def _read_sections(text: str):
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"scene file: not parseable as sectioned key-value: {exc}") from exc
    return parser


# Appended to the unknown-section error that `parse_scene` raises; the
# one-line diagnostics of `read_scene_file` leave it out.
_SECTION_HINT = " (expected scene, frontend <id>, obstacle <name>)"


def _build_scene(text: str) -> tuple[Scene | None, list[ValueError]]:
    """The scene, or the errors of every offending object and no scene.

    Collects one error per offending section instead of stopping at the
    first, so a config review sees everything at once.
    """
    try:
        parser = _read_sections(text)
    except ValidationError as exc:
        return None, [exc]
    noise_floor = DEFAULT_NOISE_FLOOR_DBM
    front_ends, obstacles, errors = [], [], []
    for section in parser.sections():
        sec = parser[section]
        try:
            if section == "scene":
                noise_floor = float(sec.get("noise_floor_dbm", DEFAULT_NOISE_FLOOR_DBM))
            elif section.startswith("frontend "):
                front_ends.append(_frontend_from_section(section.split(None, 1)[1], sec))
            elif section.startswith("obstacle "):
                obstacles.append(_obstacle_from_section(section.split(None, 1)[1], sec))
            else:
                raise ValidationError(f"scene file: unknown section '[{section}]'{_SECTION_HINT}")
        except ValueError as exc:
            errors.append(exc)
    if errors:
        # The scene-wide checks would only echo a section's failure: a rejected
        # front-end leaves the scene short of a TX or RX, or an obstacle
        # pointing at an unknown id.
        return None, errors
    try:
        return Scene(front_ends=tuple(front_ends), obstacles=tuple(obstacles),
                     noise_floor_dbm=noise_floor), []
    except ValidationError as exc:
        return None, [exc]


def parse_scene(text: str) -> Scene:
    """Parse scene text; raises the error of the first offending field."""
    scene, errors = _build_scene(text)
    if errors:
        raise errors[0]
    return scene


def read_scene_file(path) -> tuple[Scene | None, list[str]]:
    """Read a scene file once: (scene, []) if every invariant holds, else
    (None, one diagnostic per offending object)."""
    with open(path) as f:
        scene, errors = _build_scene(f.read())
    return scene, [str(exc).removesuffix(_SECTION_HINT) for exc in errors]


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def scene_to_text(scene: Scene) -> str:
    """Serialize a Scene back to the text format (round-trips with parse_scene)."""
    lines = ["[scene]", f"noise_floor_dbm = {scene.noise_floor_dbm!r}", ""]
    for fe in scene.front_ends:
        lines += [f"[frontend {fe.id}]", f"role = {fe.role}",
                  f"position_m = {_fmt_vec(fe.position)}",
                  f"boresight = {_fmt_vec(fe.boresight)}"]
        if fe.role == "tx":
            lines += [f"half_power_semi_angle_deg = {fe.half_power_semi_angle!r}",
                      f"tx_power_dbm = {fe.tx_electrical_power_dbm!r}"]
        else:
            lines += [f"fov_half_angle_deg = {fe.fov_half_angle!r}",
                      f"active_area_m2 = {fe.active_area!r}",
                      f"conversion_gain_db = {fe.conversion_gain_db!r}"]
        lines.append("")
    for n, obs in enumerate(scene.obstacles):
        pairs = ", ".join(f"{t}->{r}" for t, r in sorted(obs.blocked_pairs))
        lines += [f"[obstacle obstacle_{n}]", f"blocks = {pairs}",
                  f"frames = {obs.active_frames[0]} {obs.active_frames[1]}", ""]
    return "\n".join(lines)
