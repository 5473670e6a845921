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

The file is UTF-8, at most `_MAX_FILE_BYTES` long. Vectors and `frames` are
separated by whitespace or commas; boresights are normalized while parsing. The
sections are `[scene]`, `[frontend ID]` and `[obstacle ID]`, where an ID is one
token with no whitespace, `,` or `->`. Every key must be one its section knows,
and a front-end's one its role knows; each role key but `conversion_gain_db` is
required. `frames` is the half-open active interval [start, end); `blocks` is a
comma-separated list of tx->rx pairs, each naming a TX and then an RX.
"""

import configparser
import dataclasses
import math
import os

import numpy as np

from .channel import DEFAULT_NOISE_FLOOR_DBM, Obstacle, Receiver, Scene, Transmitter, ValidationError, \
    _check_counts

_MAX_FILE_BYTES = 1 << 18  # a scene at every count bound takes about 113 KB
_SCENE_KEYS = {"noise_floor_dbm"}
# Every front-end's keys, then each role's type and its keys in file order, with the field each sets.
# A key of the other role is refused; one of its own is required unless its field has a default.
_COMMON_KEYS = ("role", "position_m", "boresight")
_ROLES = {"tx": (Transmitter, {"half_power_semi_angle_deg": "half_power_semi_angle",
                               "tx_power_dbm": "tx_electrical_power_dbm"}),
          "rx": (Receiver, {"fov_half_angle_deg": "fov_half_angle", "active_area_m2": "active_area",
                            "conversion_gain_db": "conversion_gain_db"})}
_FRONTEND_KEYS = {*_COMMON_KEYS, *(key for _, fields in _ROLES.values() for key in fields)}
_OBSTACLE_KEYS = {"blocks", "frames"}


def _check_keys(where: str, sec, allowed: set, required=()) -> None:
    unknown = set(sec) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key in required:
        if key not in sec:
            raise ValidationError(f"{where}: missing required key '{key}'")


def _numbers(where: str, sec, key: str, count: int, kind=float) -> list:
    """The `count` numbers of `sec[key]`; an error names the section and key."""
    parts = sec[key].replace(",", " ").split()
    if len(parts) != count:
        raise ValidationError(f"{where}: {key} must be {count} number(s), got '{sec[key]}'")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"{where}: {key}: {exc}") from None


def _frontend_from_section(fe_id: str, sec) -> Transmitter | Receiver:
    where = f"front-end '{fe_id}'"
    role = sec.get("role", "").lower()
    # An unknown role's fields are not read: the role itself is refused.
    cls, fields = _ROLES.get(role, (None, {}))
    if fields:
        _check_keys(f"{where}, role {role}", sec, {*_COMMON_KEYS, *fields})
    required = [k for k, f in fields.items() if cls.__dataclass_fields__[f].default is dataclasses.MISSING]
    _check_keys(where, sec, _FRONTEND_KEYS, (*_COMMON_KEYS, *required))
    boresight = np.array(_numbers(where, sec, "boresight", 3))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(boresight)
    if not (0.0 < norm < math.inf and abs(np.linalg.norm(boresight / norm) - 1.0) <= 1e-9):
        # A huge or tiny direction over- or underflows its norm, or loses its
        # precision in subnormal squares; scaled by its largest magnitude
        # first, any finite nonzero one normalizes.
        scale = np.max(np.abs(boresight))
        if not 0.0 < scale < math.inf:
            raise ValidationError(f"{where}: boresight must be nonzero and finite, got '{sec['boresight']}'")
        boresight = boresight / scale
        norm = np.linalg.norm(boresight)
    position = np.array(_numbers(where, sec, "position_m", 3))
    if cls is None:
        raise ValidationError(f"{where}: role must be 'tx' or 'rx', got '{role}'")
    return cls(id=fe_id, position=position, boresight=boresight / norm,
               **{field: _numbers(where, sec, key, 1)[0]
                  for key, field in fields.items() if key in sec})


def _obstacle_from_section(name: str, sec) -> Obstacle:
    where = f"obstacle '{name}'"
    _check_keys(where, sec, _OBSTACLE_KEYS, ("blocks", "frames"))
    pairs = set()
    for chunk in sec["blocks"].split(","):
        chunk = chunk.strip()
        if "->" not in chunk:
            raise ValidationError(f"{where}: blocks entries must look like tx_id->rx_id, got '{chunk}'")
        tx_id, rx_id = (p.strip() for p in chunk.split("->", 1))
        pairs.add((tx_id, rx_id))
    frames = tuple(_numbers(where, sec, "frames", 2, int))
    try:
        return Obstacle(blocked_pairs=frozenset(pairs), active_frames=frames)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_scene(text: str) -> Scene:
    """The scene of `text`, else a ValidationError with one argument per fault.

    Every section is checked, not just up to the first that fails, so a config
    review sees all of its faults at once.
    """
    # No header names "", so a `[DEFAULT]` section is unknown, not merged into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"scene file: not parseable as sectioned key-value: {exc}") from exc
    # The bounds are checked before any section is built: a front-end counts by
    # its role, and an obstacle as None, which no role is.
    kinds = [None if s.startswith("obstacle ") else parser[s].get("role", "").lower()
             for s in parser.sections() if s.startswith(("frontend ", "obstacle "))]
    _check_counts(kinds.count("tx"), kinds.count("rx"), kinds.count(None))
    noise_floor = DEFAULT_NOISE_FLOOR_DBM
    by_type = {Transmitter: [], Receiver: []}
    obstacles, diagnostics = [], []
    for section in parser.sections():
        sec = parser[section]
        words = section.split()
        try:
            if section == "scene":
                _check_keys("scene", sec, _SCENE_KEYS)
                if "noise_floor_dbm" in sec:
                    noise_floor = _numbers("scene", sec, "noise_floor_dbm", 1)[0]
            elif not section.startswith(("frontend ", "obstacle ")):
                raise ValidationError(f"scene file: unknown section '[{section}]'")
            # An id is one token with no `,` or `->`, so that `blocks` can name any front-end.
            elif len(words) != 2 or "," in words[1] or "->" in words[1]:
                fault = "has no id" if len(words) == 1 else "needs one id with no whitespace, ',' or '->'"
                raise ValidationError(f"scene file: section '[{section}]' {fault}")
            elif words[0] == "frontend":
                fe = _frontend_from_section(words[1], sec)
                by_type[type(fe)].append(fe)
            else:
                obstacles.append(_obstacle_from_section(words[1], sec))
        except ValueError as exc:
            diagnostics.append(str(exc))
    if diagnostics:
        # The scene-wide checks would only echo a section's failure: a rejected
        # front-end leaves the scene short of a TX or RX, or an obstacle
        # pointing at an unknown id.
        raise ValidationError(*diagnostics)
    return Scene(by_type[Transmitter], by_type[Receiver], obstacles, noise_floor_dbm=noise_floor)


def read_scene_file(path) -> Scene:
    """Read a scene file once, as UTF-8 whatever the locale, and parse it as `parse_scene` does."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        data = f.read(min(size, _MAX_FILE_BYTES) + 1)  # a read allocates all it asks for
        if len(data) > size:  # a pipe (its size reads 0) or a file that grew: on to one byte past the bound
            data += f.read(_MAX_FILE_BYTES + 1 - len(data))
        if len(data) > _MAX_FILE_BYTES:  # a pipe's size: the bytes read
            raise ValidationError(f"scene file: {max(size, len(data))} bytes exceed the bound of {_MAX_FILE_BYTES}")
    # Line ends as text mode reads them: '\r\n' and '\r' end a line too.
    return parse_scene(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def scene_to_text(scene: Scene) -> str:
    """Serialize a Scene back to the text format (round-trips with parse_scene)."""
    lines = ["[scene]", f"noise_floor_dbm = {scene.noise_floor_dbm!r}", ""]
    # `_ROLES` lists tx before rx, so every TX section comes before every RX section.
    for (role, (_, fields)), fes in zip(_ROLES.items(), (scene.transmitters, scene.receivers)):
        for fe in fes:
            lines += [f"[frontend {fe.id}]", f"role = {role}",
                      f"position_m = {_fmt_vec(fe.position)}",
                      f"boresight = {_fmt_vec(fe.boresight)}"]
            lines += [f"{key} = {getattr(fe, field)!r}" for key, field in fields.items()]
            lines.append("")
    for n, obs in enumerate(scene.obstacles):
        pairs = ", ".join(f"{t}->{r}" for t, r in sorted(obs.blocked_pairs))
        lines += [f"[obstacle obstacle_{n}]", f"blocks = {pairs}",
                  f"frames = {obs.active_frames[0]} {obs.active_frames[1]}", ""]
    return "\n".join(lines)
