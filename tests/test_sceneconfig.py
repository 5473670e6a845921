"""Scene text format: parsing, validation diagnostics, and round-tripping."""

import dataclasses
import pathlib
import warnings

import numpy as np
import pytest

from vlcsim import presets
from vlcsim.channel import MAX_FRONT_ENDS, MAX_OBSTACLES, Scene, Transmitter, ValidationError
from vlcsim.sceneconfig import _MAX_FILE_BYTES, _ROLES, parse_scene, read_scene_file, scene_to_text

PRESETS = {
    "siso": presets.siso_scene,
    "simo-blockage": presets.simo_blockage_scene,
    "handover": presets.handover_scene,
    "csi-miso": presets.csi_miso_scene,
}

GOOD = """
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
position_m = 2 0.3 0
boresight = -1 0 0
fov_half_angle_deg = 45
active_area_m2 = 1e-4

[frontend rx_b]
role = rx
position_m = 2 -0.3 0
boresight = -1 0 0
fov_half_angle_deg = 45
active_area_m2 = 1e-4
conversion_gain_db = 3

[obstacle cover_b]
blocks = tx_a->rx_b
frames = 100 181
"""


# A section of GOOD that holds every key of its role.
ROLE_SECTIONS = {"tx": "tx_a", "rx": "rx_b"}


def without_key(fe_id, key):
    """GOOD with `key` removed from the section of front-end `fe_id`."""
    head, rest = GOOD.split(f"[frontend {fe_id}]\n", 1)
    body, sep, tail = rest.partition("\n\n")
    body = "\n".join(line for line in body.split("\n") if not line.startswith(f"{key} ="))
    return f"{head}[frontend {fe_id}]\n{body}{sep}{tail}"


class TestParse:
    def test_good_scene(self):
        scene = parse_scene(GOOD)
        assert [tx.id for tx in scene.transmitters] == ["tx_a"]
        assert [rx.id for rx in scene.receivers] == ["rx_a", "rx_b"]
        assert scene.noise_floor_dbm == -60.0
        assert scene.receivers[1].conversion_gain_db == 3.0
        obs = scene.obstacles[0]
        assert obs.blocked_pairs == frozenset({("tx_a", "rx_b")})
        assert obs.active_frames == (100, 181)

    def test_boresight_normalized(self):
        text = GOOD.replace("boresight = 1 0 0", "boresight = 2 0 0", 1)
        scene = parse_scene(text)
        assert np.linalg.norm(scene.transmitters[0].boresight) == pytest.approx(1.0)

    @pytest.mark.parametrize("text,direction", [
        ("1e300 0 0", (1, 0, 0)), ("5e-324 0 0", (1, 0, 0)), ("1e308 1e308 0", (1, 1, 0)),
        ("1e-160 0 0", (1, 0, 0))])
    def test_huge_or_tiny_boresight_normalized_without_warning(self, text, direction):
        # Its norm over- or underflows, or is imprecise from subnormal squares;
        # the direction is still a valid one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = parse_scene(GOOD.replace("boresight = 1 0 0", f"boresight = {text}", 1))
        np.testing.assert_allclose(scene.transmitters[0].boresight,
                                   np.array(direction) / np.linalg.norm(direction),
                                   rtol=0, atol=1e-15)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scene(GOOD.replace("tx_power_dbm = 0", "tx_power_dbm = 0\nwavelength = 5"))

    @pytest.mark.parametrize("after,key,where", [
        ("active_area_m2 = 1e-4\n", "tx_power_dbm = 50", "front-end 'rx_a', role rx"),
        ("active_area_m2 = 1e-4\n", "half_power_semi_angle_deg = 5",
         "front-end 'rx_a', role rx"),
        ("tx_power_dbm = 0\n", "fov_half_angle_deg = 45", "front-end 'tx_a', role tx"),
        ("tx_power_dbm = 0\n", "active_area_m2 = 1e-4", "front-end 'tx_a', role tx"),
        ("tx_power_dbm = 0\n", "conversion_gain_db = 3", "front-end 'tx_a', role tx"),
        ("role = tx\n", "wavelength = 5", "front-end 'tx_a', role tx"),
    ], ids=["rx-tx_power", "rx-semi_angle", "tx-fov", "tx-area", "tx-conversion_gain",
            "tx-unknown"])
    def test_key_of_the_other_role_rejected(self, after, key, where):
        with pytest.raises(ValidationError) as exc:
            parse_scene(GOOD.replace(after, f"{after}{key}\n", 1))
        assert str(exc.value) == f"{where}: unknown key(s) ['{key.split()[0]}']"

    @pytest.mark.parametrize("fe_id,key", [
        ("tx_a", "half_power_semi_angle_deg"), ("tx_a", "tx_power_dbm"),
        ("rx_b", "fov_half_angle_deg"), ("rx_b", "active_area_m2")])
    def test_missing_role_key_is_named(self, fe_id, key):
        with pytest.raises(ValidationError) as exc:
            parse_scene(without_key(fe_id, key))
        assert exc.value.args == (f"front-end '{fe_id}': missing required key '{key}'",)

    @pytest.mark.parametrize("role", sorted(_ROLES))
    def test_role_table_matches_its_type(self, role, tmp_path):
        # A field with no key would be dropped by scene_to_text; a key is
        # required exactly when its field has no default.
        cls, keys = _ROLES[role]
        fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
        assert set(keys.values()) == set(fields) - {"id", "position", "boresight"}
        fe_id = ROLE_SECTIONS[role]
        required = {key for key in keys if scene_diagnostics(tmp_path, without_key(fe_id, key))
                    == [f"front-end '{fe_id}': missing required key '{key}'"]}
        assert required == {key for key, field in keys.items()
                            if fields[field].default is dataclasses.MISSING}

    def test_role_is_matched_without_case(self):
        text = GOOD.replace("role = tx", "role = TX").replace(
            "tx_power_dbm = 0\n", "tx_power_dbm = 0\nactive_area_m2 = 1e-4\n")
        with pytest.raises(ValidationError, match=r"^front-end 'tx_a', role tx: unknown key"):
            parse_scene(text)

    def test_unknown_role_is_named_not_its_keys(self):
        # The fields of an unknown role are not read, so a bad one goes unreported.
        text = GOOD.replace("role = tx", "role = led").replace("tx_power_dbm = 0",
                                                               "tx_power_dbm = loud")
        with pytest.raises(ValidationError) as exc:
            parse_scene(text)
        assert exc.value.args == ("front-end 'tx_a': role must be 'tx' or 'rx', got 'led'",)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_scene(GOOD + "\n[mystery]\nfoo = 1\n")

    def test_unknown_section_error_names_the_expected_sections(self):
        with pytest.raises(ValidationError) as exc:
            parse_scene(GOOD + "\n[mystery]\nfoo = 1\n")
        assert exc.value.args == ("scene file: unknown section '[mystery]'",)

    @pytest.mark.parametrize("header", ["frontend ", "obstacle ", "obstacle \t"])
    def test_section_without_an_id_is_named(self, header):
        with pytest.raises(ValidationError) as exc:
            parse_scene(GOOD + f"\n[{header}]\nrole = tx\n")
        assert exc.value.args == (f"scene file: section '[{header}]' has no id",)

    def test_whitespace_around_an_id_is_not_part_of_it(self):
        scene = parse_scene(GOOD.replace("[frontend rx_b]", "[frontend  rx_b \t]"))
        assert [rx.id for rx in scene.receivers] == ["rx_a", "rx_b"]
        assert scene.obstacles[0].blocked_pairs == {("tx_a", "rx_b")}

    # Each header would declare a valid receiver or obstacle but for its id.
    @pytest.mark.parametrize("header", ["frontend rx,b", "frontend rx->b", "frontend rx b",
                                        "obstacle a,b", "obstacle a->b", "obstacle a b"])
    def test_id_is_one_token_without_comma_or_arrow(self, header):
        body = ("blocks = tx_a->rx_a\nframes = 1 2" if header.startswith("obstacle") else
                "role = rx\nposition_m = 2 0 0\nboresight = -1 0 0\nfov_half_angle_deg = 45\n"
                "active_area_m2 = 1e-4")
        with pytest.raises(ValidationError) as exc:
            parse_scene(GOOD + f"\n[{header}]\n{body}\n")
        assert exc.value.args == (
            f"scene file: section '[{header}]' needs one id with no whitespace, ',' or '->'",)

    @pytest.mark.parametrize("default", ["[DEFAULT]\n", "[DEFAULT]\nconversion_gain_db = 3\n"],
                             ids=["empty", "with-a-key"])
    def test_default_section_is_an_unknown_section(self, default):
        with pytest.raises(ValidationError) as exc:
            parse_scene(default + GOOD)
        assert exc.value.args == ("scene file: unknown section '[DEFAULT]'",)

    # Sections past a bound are refused by their count alone, though each
    # would give its own diagnostic if it were built.
    @pytest.mark.parametrize("kind,bound,section", [
        ("transmitters", MAX_FRONT_ENDS, "[frontend tx_{k}]\nrole = TX\n"),
        ("receivers", MAX_FRONT_ENDS, "[frontend rx_{k}]\nrole = rx\n"),
        ("obstacles", MAX_OBSTACLES, "[obstacle o_{k}]\nframes = x\n")],
        ids=["transmitters", "receivers", "obstacles"])
    def test_section_counts_are_checked_before_any_section_is_built(self, kind, bound, section):
        with pytest.raises(ValidationError) as exc:
            parse_scene("\n".join([GOOD] + [section.format(k=k) for k in range(bound)]))
        have = len(getattr(parse_scene(GOOD), kind))
        assert exc.value.args == (f"scene: {bound + have} {kind} exceed the bound of {bound}",)

    def test_unknown_scene_key_rejected(self):
        with pytest.raises(ValidationError, match=r"^scene: unknown key\(s\) \['noise_floor_db'\]$"):
            parse_scene(GOOD.replace("noise_floor_dbm = -60", "noise_floor_db = -70"))

    def test_first_error_is_raised_as_is(self):
        # One error carries every offending section's diagnostic in file order;
        # the first keeps float()'s message.
        text = GOOD.replace("noise_floor_dbm = -60", "noise_floor_dbm = loud") + "\n[mystery]\n"
        with pytest.raises(ValidationError) as exc:
            parse_scene(text)
        assert exc.value.args == (
            "scene: noise_floor_dbm: could not convert string to float: 'loud'",
            "scene file: unknown section '[mystery]'")

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError, match="sectioned key-value"):
            parse_scene("not an ini file at all {]")


def scene_diagnostics(tmp_path, text):
    """The arguments of the ValidationError that reading `text` raises; none
    if it reads as a scene."""
    path = tmp_path / "scene.cfg"
    path.write_text(text)
    try:
        read_scene_file(path)
    except ValidationError as exc:
        return list(exc.args)
    return []


class TestValidate:
    def test_good_scene_is_clean(self, tmp_path):
        assert scene_diagnostics(tmp_path, GOOD) == []

    def test_presets_serialize_clean(self, tmp_path):
        for name, factory in PRESETS.items():
            assert scene_diagnostics(tmp_path, scene_to_text(factory())) == [], name

    def test_fov_bound_diagnostic(self, tmp_path):
        text = GOOD.replace("fov_half_angle_deg = 45", "fov_half_angle_deg = 120", 1)
        diags = scene_diagnostics(tmp_path, text)
        assert len(diags) == 1
        assert "fov_half_angle" in diags[0] and "(0, 90]" in diags[0]

    def test_missing_obstacle_reference(self, tmp_path):
        text = GOOD.replace("blocks = tx_a->rx_b", "blocks = tx_a->rx_zz")
        diags = scene_diagnostics(tmp_path, text)
        assert any("tx_a->rx_zz" in d and "'rx_zz'" in d for d in diags)

    @pytest.mark.parametrize("frames,error", [
        ("300 281", "active_frames must be 0 <= start < end < 2**63, got (300, 281)"),
        ("100 1.5e2", "frames: invalid literal for int() with base 10: '1.5e2'"),
        ("100", "frames must be 2 number(s), got '100'"),
    ])
    def test_only_the_bad_obstacle_is_named(self, tmp_path, frames, error):
        text = GOOD + "\n[obstacle cover_a]\nblocks = tx_a->rx_a\nframes = " + frames + "\n"
        assert scene_diagnostics(tmp_path, text) == [f"obstacle 'cover_a': {error}"]

    def test_multiple_diagnostics_collected(self, tmp_path):
        text = GOOD.replace("fov_half_angle_deg = 45", "fov_half_angle_deg = 120", 1) \
                   .replace("half_power_semi_angle_deg = 30",
                            "half_power_semi_angle_deg = 95")
        diags = scene_diagnostics(tmp_path, text)
        assert any("half_power_semi_angle" in d for d in diags)
        assert any("fov_half_angle" in d for d in diags)

    def test_missing_required_key(self, tmp_path):
        text = GOOD.replace("active_area_m2 = 1e-4\nconversion_gain_db = 3", "")
        diags = scene_diagnostics(tmp_path, text)
        assert any("active_area" in d for d in diags)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trips(self, name):
        original = PRESETS[name]()
        recovered = parse_scene(scene_to_text(original))
        assert len(recovered.transmitters) == len(original.transmitters)
        assert len(recovered.receivers) == len(original.receivers)
        for a, b in zip((*original.transmitters, *original.receivers),
                        (*recovered.transmitters, *recovered.receivers)):
            assert a.id == b.id and type(a) is type(b)
            np.testing.assert_allclose(b.position, a.position, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.boresight, a.boresight, rtol=0, atol=1e-12)
            if isinstance(a, Transmitter):
                assert b.half_power_semi_angle == a.half_power_semi_angle
                assert b.tx_electrical_power_dbm == a.tx_electrical_power_dbm
            else:
                assert b.fov_half_angle == a.fov_half_angle
                assert b.active_area == a.active_area
                assert b.conversion_gain_db == a.conversion_gain_db
        assert len(recovered.obstacles) == len(original.obstacles)
        for a, b in zip(original.obstacles, recovered.obstacles):
            assert a.blocked_pairs == b.blocked_pairs
            assert a.active_frames == b.active_frames

    def test_read_scene_file_returns_the_scene_or_the_diagnostics(self, tmp_path):
        # The scene, or one ValidationError whose arguments are the diagnostics.
        path = tmp_path / "scene.cfg"
        path.write_text(GOOD)
        assert scene_to_text(read_scene_file(path)) == scene_to_text(parse_scene(GOOD))
        path.write_text(GOOD.replace("fov_half_angle_deg = 45", "fov_half_angle_deg = 120", 1)
                        + "\n[mystery]\nfoo = 1\n")
        with pytest.raises(ValidationError) as exc:
            read_scene_file(path)
        assert exc.value.args[-1] == "scene file: unknown section '[mystery]'"
        assert len(exc.value.args) == 2

    def test_a_file_past_the_byte_bound_is_refused_with_its_size(self, tmp_path):
        path = tmp_path / "scene.cfg"
        padding = "# " + "x" * (_MAX_FILE_BYTES - len(GOOD) - 3) + "\n"
        path.write_text(GOOD + padding)
        assert path.stat().st_size == _MAX_FILE_BYTES
        assert scene_to_text(read_scene_file(path)) == scene_to_text(parse_scene(GOOD))
        path.write_text(GOOD + "#" + padding)
        with pytest.raises(ValidationError) as exc:
            read_scene_file(path)
        assert exc.value.args == (
            f"scene file: {_MAX_FILE_BYTES + 1} bytes exceed the bound of {_MAX_FILE_BYTES}",)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_are_read_as_in_text_mode(self, tmp_path, newline):
        path = tmp_path / "scene.cfg"
        path.write_bytes(GOOD.replace("\n", newline).encode())
        assert scene_to_text(read_scene_file(path)) == scene_to_text(parse_scene(GOOD))


def test_shipped_example_scenes_are_valid():
    scene_dir = pathlib.Path(__file__).resolve().parent.parent / "scenes"
    files = sorted(scene_dir.glob("*.cfg"))
    assert files, "expected example scene files in scenes/"
    for f in files:
        assert isinstance(read_scene_file(f), Scene), f.name


@pytest.mark.parametrize("file_name,preset", [
    ("siso.cfg", "siso"), ("simo_blockage.cfg", "simo-blockage"),
    ("handover.cfg", "handover"), ("csi_miso.cfg", "csi-miso")])
def test_shipped_scene_is_its_preset_written_out(file_name, preset):
    path = pathlib.Path(__file__).resolve().parent.parent / "scenes" / file_name
    assert path.read_bytes() == scene_to_text(PRESETS[preset]()).encode()
