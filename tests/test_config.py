import pytest
from hypothesis import given, strategies as st

from vxsim.config import default_config, parse_config, serialize_config
from vxsim.errors import ConfigError


def test_defaults():
    cfg = default_config()
    assert cfg.grid.nx == 128
    assert cfg.p1.l == 1
    assert cfg.p2.l == -1
    assert cfg.c1.peak == 10.0
    assert cfg.run.mode == "compare"
    assert cfg.physics.traps == "engineered"
    assert cfg.outcouple.v0 == 0.1


def test_parse_comments_whitespace_and_partial():
    cfg = parse_config(
        """
        # a comment
        grid.nx = 64   # trailing comment
        run.mode=outcouple
        physics.u = 0.02
        """
    )
    assert cfg.grid.nx == 64
    assert cfg.run.mode == "outcouple"
    assert cfg.physics.u == 0.02
    assert cfg.grid.ny == 128  # untouched defaults survive


@pytest.mark.parametrize("text,fragment,line", [
    ("grid.nz = 4", "unknown key", 1),
    ("grid.nx = 64\ngrid.nx = 32", "duplicate", 2),
    ("run.dt = fast", "expects float", 1),
    ("grid.nx =", "empty value", 1),
    ("just words", "key = value", 1),
    ("grid.nx = 100", "power of two", 1),
    ("run.mode = warp", "unknown mode", 1),
    ("beam.c1.l = 2", "orbital", 1),
    ("outcouple.v0 = 2.0", "slower than light", 1),
    ("run.dt = -0.1", "positive", 1),
    # NaN slips past every "<= 0" check, so each float is checked for finiteness
    ("grid.nx = 64\nrun.dt = nan", "run.dt = nan: must be finite", 2),
    ("grid.nx = 64\nphysics.u = nan", "physics.u = nan: must be finite", 2),
    ("grid.nx = 64\nphysics.tf_radius = nan", "physics.tf_radius = nan: must be finite", 2),
    ("grid.nx = 64\nphysics.rho0 = nan", "physics.rho0 = nan: must be finite", 2),
    ("grid.nx = 64\nphysics.rim = nan", "physics.rim = nan: must be finite", 2),
    ("grid.nx = 64\nrun.ramp_time = nan", "run.ramp_time = nan: must be finite", 2),
    ("grid.nx = 64\nbeams.eps12 = nan", "beams.eps12 = nan: must be finite", 2),
    ("grid.nx = 64\nbeam.p1.kx = nan", "beam.p1.kx = nan: must be finite", 2),
    ("grid.nx = 64\nphysics.u = inf", "physics.u = inf: must be finite", 2),
    ("grid.nx = 64\nbeam.p2.ky = -inf", "beam.p2.ky = -inf: must be finite", 2),
])
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert fragment in str(info.value)
    assert info.value.line == line


# every key but beam.c1.l / beam.c2.l (controls must keep l = 0), each set to
# a distinct valid non-default value, with where it must land
KEY_TABLE = [
    ("grid.nx", 64, lambda c: c.grid.nx),
    ("grid.ny", 32, lambda c: c.grid.ny),
    ("grid.lx", 12.5, lambda c: c.grid.lx),
    ("grid.ly", 13.5, lambda c: c.grid.ly),
    ("beam.p1.peak", 0.11, lambda c: c.p1.peak),
    ("beam.p1.waist", 2.1, lambda c: c.p1.waist),
    ("beam.p1.l", 2, lambda c: c.p1.l),
    ("beam.p1.kx", 0.01, lambda c: c.p1.kx),
    ("beam.p1.ky", 0.02, lambda c: c.p1.ky),
    ("beam.p2.peak", 0.12, lambda c: c.p2.peak),
    ("beam.p2.waist", 2.2, lambda c: c.p2.waist),
    ("beam.p2.l", -3, lambda c: c.p2.l),
    ("beam.p2.kx", 0.03, lambda c: c.p2.kx),
    ("beam.p2.ky", 0.04, lambda c: c.p2.ky),
    ("beam.c1.peak", 10.1, lambda c: c.c1.peak),
    ("beam.c1.waist", 6.1, lambda c: c.c1.waist),
    ("beam.c1.kx", 0.05, lambda c: c.c1.kx),
    ("beam.c1.ky", 0.06, lambda c: c.c1.ky),
    ("beam.c2.peak", 10.2, lambda c: c.c2.peak),
    ("beam.c2.waist", 6.2, lambda c: c.c2.waist),
    ("beam.c2.kx", 0.07, lambda c: c.c2.kx),
    ("beam.c2.ky", 0.08, lambda c: c.c2.ky),
    ("beams.eps12", 0.13, lambda c: c.eps12),
    ("beams.eps13", 0.14, lambda c: c.eps13),
    ("beams.eps14", 0.15, lambda c: c.eps14),
    ("beams.eps15", 0.16, lambda c: c.eps15),
    ("physics.u", 0.41, lambda c: c.physics.u),
    ("physics.rho0", 1.1, lambda c: c.physics.rho0),
    ("physics.tf_radius", 5.1, lambda c: c.physics.tf_radius),
    ("physics.rim", 0.051, lambda c: c.physics.rim),
    ("physics.traps", "none", lambda c: c.physics.traps),
    ("run.mode", "effective", lambda c: c.run.mode),
    ("run.dt", 0.0041, lambda c: c.run.dt),
    ("run.n_steps", 17, lambda c: c.run.n_steps),
    ("run.ramp_time", 6.3, lambda c: c.run.ramp_time),
    ("run.snapshot_every", 5, lambda c: c.run.snapshot_every),
    ("run.out_dir", "elsewhere", lambda c: c.run.out_dir),
    ("run.seed", 7, lambda c: c.run.seed),
    ("outcouple.g1", 1.21, lambda c: c.outcouple.g1),
    ("outcouple.g2", 1.22, lambda c: c.outcouple.g2),
    ("outcouple.omega0_1", 10.3, lambda c: c.outcouple.omega0_1),
    ("outcouple.omega0_2", 10.4, lambda c: c.outcouple.omega0_2),
    ("outcouple.n", 1.3, lambda c: c.outcouple.n),
    ("outcouple.v0", 0.2, lambda c: c.outcouple.v0),
    ("outcouple.c", 1.4, lambda c: c.outcouple.c),
    ("outcouple.length", 1.5, lambda c: c.outcouple.length),
]


def test_every_key_lands_on_its_attribute():
    defaults = default_config()
    schema_keys = [line.split(" = ")[0] for line in serialize_config(defaults).splitlines()]
    keys = [key for key, _, _ in KEY_TABLE]
    assert sorted(keys + ["beam.c1.l", "beam.c2.l"]) == sorted(schema_keys)
    values = [value for _, value, _ in KEY_TABLE]
    assert len({(type(v), v) for v in values}) == len(values)
    cfg = parse_config("".join(f"{key} = {value}\n" for key, value, _ in KEY_TABLE))
    for key, value, get in KEY_TABLE:
        assert get(defaults) != value, key
        assert get(cfg) == value, key
    assert parse_config(serialize_config(cfg)) == cfg


def test_validation_applies_to_defaults_too():
    # invariants involving two keys report the explicit one
    with pytest.raises(ConfigError, match="slower than light"):
        parse_config("outcouple.c = 0.05")


def test_serialize_round_trip_defaults():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_round_trip_modified():
    cfg = parse_config("run.dt = 0.0030000000000000005\nphysics.u = 0.1\nbeam.p1.l = 3")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert again.run.dt == 0.0030000000000000005


@given(
    dt=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False),
    u=st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    l=st.integers(min_value=-8, max_value=8),
)
def test_serialize_round_trip_property(dt, u, l):
    cfg = parse_config(f"run.dt = {dt!r}\nphysics.u = {u!r}\nbeam.p2.l = {l}")
    assert parse_config(serialize_config(cfg)) == cfg
