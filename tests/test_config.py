import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emr import config
from emr.config import _SCHEMA, MINIMAL_TEMPLATE, PipelineConfig, parse_config
from emr.errors import ConfigError, InvalidValue, MissingKey, UnknownKey
from emr.fusion import ViewSource
from emr.qoeqos import Policy


def make_workspace(root, frames="frames", background="scene.ppm"):
    (root / frames).mkdir()
    (root / background).write_bytes(b"P6 1 1 255\n\x00\x00\x00")
    return root


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def parse(text, base):
    return parse_config(text, base_dir=base)


class TestParsing:
    def test_minimal_template_applies_defaults(self, workspace):
        cfg = parse(MINIMAL_TEMPLATE, workspace)
        assert cfg.encoding.policy is Policy.BALANCE
        assert cfg.gmm.k == 3 and cfg.gmm.alpha_lr == 0.02
        assert [l.id for l in cfg.encoding.levels] == ["high", "med", "low"]
        assert cfg.channel.capacity == 1e7
        assert cfg.store.theta == 0.35 and cfg.store.directory is None
        assert cfg.seed == 0
        assert cfg.warnings == ()
        # a section the file leaves out is its type's defaults
        for section in ("encoding", "channel", "gmm", "matting", "store", "fusion"):
            value = getattr(cfg, section)
            assert value == type(value)()

    @pytest.mark.parametrize("full", [("store", "dir"), ("store", "enroll_user")])
    def test_empty_optional_value_is_unset(self, workspace, full):
        section, key = full
        in_file = parse(MINIMAL_TEMPLATE + f"[{section}]\n{key} =\n", workspace)
        overridden = parse_config(MINIMAL_TEMPLATE, workspace, overrides={full: ""})
        for cfg in (in_file, overridden):
            assert cfg.store.directory is None and cfg.store.enroll_user is None

    def test_comments_and_blanks_ignored(self, workspace):
        text = MINIMAL_TEMPLATE + "\n# full comment\n[run]\nseed = 9  # inline comment\n"
        assert parse(text, workspace).seed == 9

    def test_duplicate_key_last_wins_with_warning(self, workspace):
        text = MINIMAL_TEMPLATE + "[run]\nseed = 1\nseed = 2\n"
        cfg = parse(text, workspace)
        assert cfg.seed == 2
        assert any("duplicate" in w for w in cfg.warnings)

    def test_unknown_key_rejected(self, workspace):
        # fusion.depth changed no run's output, store.shards no query's answer,
        # and the tunnel's group and rate are protocol constants: none is a key
        for snippet in (
            "[run]\nspeed = 3\n", "[tunnel]\nr = 3.99\n", "[fusion]\ndepth = 1\n",
            "[store]\nshards = 4\n",
        ):
            with pytest.raises(UnknownKey):
                parse(MINIMAL_TEMPLATE + snippet, workspace)

    def test_unknown_section_rejected(self, workspace):
        with pytest.raises(UnknownKey):
            parse(MINIMAL_TEMPLATE + "[turbo]\nx = 1\n", workspace)

    def test_missing_required_key_rejected(self, workspace):
        with pytest.raises(MissingKey):
            parse("[io]\nbackground = scene.ppm\n", workspace)

    def test_entry_before_section_rejected(self, workspace):
        with pytest.raises(InvalidValue):
            parse("seed = 1\n", workspace)

    def test_line_without_equals_rejected(self, workspace):
        with pytest.raises(InvalidValue):
            parse(MINIMAL_TEMPLATE + "[run]\nnot a pair\n", workspace)


class TestValidation:
    @pytest.mark.parametrize(
        "snippet",
        [
            "[gmm]\nalpha_lr = 1.5\n",
            "[gmm]\nt = 0\n",
            "[gmm]\nvar_init = 1\nvar_min = 4\n",
            "[encoding]\nw = -0.1\n",
            "[encoding]\nb0 = 0\n",
            "[encoding]\nbmax = 1e5\n",  # below the default b0
            "[encoding]\npolicy = fastest\n",
            "[encoding]\nlevels = solo:0:1\n",
            "[encoding]\nlevels = a:1:1,a:2:2\n",
            "[channel]\nloss_prob = 1.5\n",
            "[matting]\nr_fg = 5\nr_bg = 2\n",
            "[store]\ntheta = 2.0\n",
            "[fusion]\nview_angle = 400\n",
            "[run]\nseed = ten\n",
            "[run]\nseed = -1\n",  # Random(-s) draws Random(s)'s stream
            "[fusion]\nscale = inf\n",
            "[encoding]\nmos_min = nan\n",
            "[encoding]\nfps = inf\n",
            "[channel]\ncapacity = 0\n",
            "[gmm]\nlambda = 0\n",
            "[encoding]\nl_min = 0.6\n",  # not below the default l_max
        ],
    )
    def test_bad_values_rejected(self, workspace, snippet):
        with pytest.raises(InvalidValue):
            parse(MINIMAL_TEMPLATE + snippet, workspace)

    @pytest.mark.parametrize(
        "snippet, key",
        [
            ("[gmm]\nlambda = 0\n", "gmm.lambda"),
            ("[gmm]\nt = 0\n", "gmm.t"),
            ("[store]\ntheta = 2.0\n", "store.theta"),
            ("[store]\nenroll_user = a,b\n", "store.enroll_user"),
            ("[matting]\nwindow = 0\n", "matting.window"),
            ("[channel]\ncapacity = 0\n", "channel.capacity"),
            ("[encoding]\nbmax = 1e5\n", "encoding.bmax"),
            ("[encoding]\nl_min = 0.6\n", "encoding.l_max"),
            ("[encoding]\nfps = 0\n", "encoding.fps"),
            ("[encoding]\nw = 1.5\n", "encoding.w"),
            ("[fusion]\nscale = 0\n", "fusion.scale"),
            ("[fusion]\nviews = ,\n", "fusion.views"),
            ("[encoding]\nlevels = a:1:1,a:2:2\n", "encoding.levels"),
            # a level or user named as a metrics placeholder
            ("[encoding]\nlevels = -:1:1\n", "encoding.levels"),
            ("[encoding]\nlevels = :1:1\n", "encoding.levels"),
            ("[store]\nenroll_user = UNKNOWN\n", "store.enroll_user"),
            ("[store]\nenroll_user = -\n", "store.enroll_user"),
            ("[io]\nmetrics = frames\n", "io.metrics"),  # a directory
            ("[run]\nseed = -1\n", "run.seed"),
        ],
    )
    def test_error_names_the_config_key(self, workspace, snippet, key):
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + snippet, workspace)
        assert info.value.key == key
        assert str(info.value).startswith(f"invalid value for {key}:")

    @pytest.mark.parametrize("key", ["tx", "ty"])
    def test_offset_beyond_the_int64_range_rejected(self, workspace, key):
        # a huge scale with a huge offset once passed and then overflowed int64
        # in fusion._resample at the first frame
        snippet = f"[fusion]\nscale = 1e300\n{key} = -1000000000000000000000000000000\n"
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + snippet, workspace)
        assert info.value.key == f"fusion.{key}"

    def test_cross_field_error_names_one_of_its_keys(self, workspace):
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + "[matting]\nr_fg = 5\nr_bg = 2\n", workspace)
        assert info.value.key in ("matting.r_fg", "matting.r_bg")

    def test_missing_paths_rejected_when_required(self, tmp_path):
        with pytest.raises(InvalidValue):
            parse(MINIMAL_TEMPLATE, tmp_path)

    def test_paths_optional_for_syntax_checks(self, tmp_path):
        # an unknown key is reported as such, not as the missing paths
        with pytest.raises(UnknownKey):
            parse(MINIMAL_TEMPLATE + "[run]\nspeed = 3\n", tmp_path)

    def test_store_dir_naming_a_file_rejected(self, workspace):
        store = "[store]\ndir = {}\n"
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + store.format("scene.ppm"), workspace)
        assert info.value.key == "store.dir"
        assert parse(MINIMAL_TEMPLATE + store.format("frames"), workspace).store.directory.is_dir()
        assert parse(MINIMAL_TEMPLATE + store.format("new"), workspace).store.directory.name == "new"

    @pytest.mark.parametrize(
        "key", ["io.frames_dir", "io.background", "io.out_dir", "io.metrics", "store.dir"]
    )
    def test_path_with_nul_byte_rejected(self, workspace, key):
        # no file name holds a NUL byte; resolving one raises ValueError
        section, name = key.split(".")
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + f"[{section}]\n{name} = a\0b\n", workspace)
        assert info.value.key == key

    @pytest.mark.parametrize("background", ["out/out_000000.ppm", "out/out_000001.ppm", "link.ppm"])
    def test_background_named_as_a_composite_rejected(self, workspace, background):
        # a run clears the composites of io.out_dir before its first frame
        (workspace / "out").mkdir()
        (workspace / "out" / "out_000000.ppm").write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        (workspace / "out" / "out_000001.ppm").symlink_to(workspace / "scene.ppm")
        (workspace / "link.ppm").symlink_to(workspace / "out" / "out_000000.ppm")
        text = MINIMAL_TEMPLATE.replace("scene.ppm", background)
        with pytest.raises(InvalidValue) as info:
            parse(text, workspace)
        assert info.value.key == "io.background"
        assert parse(text + "out_dir = elsewhere\n", workspace).background.name == Path(background).name

    def test_level_with_a_bits_field_rejected(self, workspace):
        # a level's bits follow from the frame geometry; a config cannot set them
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + "[encoding]\nlevels = a:1:1:12345,b:2:8\n", workspace)
        assert info.value.key == "encoding.levels"
        cfg = parse(MINIMAL_TEMPLATE + "[encoding]\nlevels = a:1:1,b:2:8\n", workspace)
        assert [(l.id, l.scale_factor, l.quant_step) for l in cfg.encoding.levels] == [
            ("a", 1, 1), ("b", 2, 8),
        ]

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        make_workspace(tmp_path, "data", "data/scene.ppm")
        assert parse(example, tmp_path).seed == 17

    def test_views_parsed(self, workspace):
        cfg = parse(
            MINIMAL_TEMPLATE + "[fusion]\nviews = cam0:12.5,cam1:270\nview_angle = 300\n",
            workspace,
        )
        assert cfg.fusion.views == (ViewSource("cam0", 12.5), ViewSource("cam1", 270.0))
        assert cfg.fusion.view_angle == 300.0


class TestOverrides:
    # a text that sets every key an emr run flag can set
    TEXT = MINIMAL_TEMPLATE + "out_dir = o0\nmetrics = m0.csv\n[encoding]\npolicy = qoe\n[run]\nseed = 3\n"

    @pytest.mark.parametrize(
        "full, old, new",
        [(("run", "seed"), "3", "77"), (("encoding", "policy"), "qoe", "qos"),
         (("io", "out_dir"), "o0", "elsewhere/out"), (("io", "metrics"), "m0.csv", "frames/m.csv")],
        ids=["seed", "policy", "out_dir", "metrics"],
    )
    def test_override_equals_the_file_entry(self, workspace, full, old, new):
        # the override replaces the file's entry: same config, no duplicate warning
        entry = f"{full[1]} = {{}}\n"
        in_file = parse(self.TEXT.replace(entry.format(old), entry.format(new)), workspace)
        cfg = parse_config(self.TEXT, workspace, overrides={full: new})
        assert cfg == in_file
        assert cfg != parse(self.TEXT, workspace)
        assert cfg.warnings == ()

    def test_override_is_checked_like_the_file(self, workspace):
        for seed in ("x", "-1"):
            with pytest.raises(InvalidValue) as info:
                parse_config(MINIMAL_TEMPLATE, workspace, overrides={("run", "seed"): seed})
            assert info.value.key == "run.seed"
        with pytest.raises(UnknownKey):
            parse_config(MINIMAL_TEMPLATE, workspace, overrides={("run", "speed"): "3"})
        with pytest.raises(InvalidValue) as info:
            parse_config(MINIMAL_TEMPLATE, workspace,
                         overrides={("io", "metrics"): "scene.ppm"})
        assert info.value.key == "io.metrics"

    def test_config_is_frozen(self, workspace):
        cfg = parse(MINIMAL_TEMPLATE, workspace)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 1
        with pytest.raises(FrozenInstanceError):
            cfg.out_dir = workspace / "elsewhere"

    def test_source_is_an_input(self, workspace):
        source = workspace / "pipeline.cfg"
        source.write_text(MINIMAL_TEMPLATE)
        with pytest.raises(InvalidValue) as info:
            parse_config(MINIMAL_TEMPLATE + "[io]\nmetrics = pipeline.cfg\n", workspace,
                         source=source)
        assert info.value.key == "io.metrics"


def test_docstring_lists_the_schema_keys():
    block = config.__doc__.split("Sections and keys (defaults in parentheses):", 1)[1]
    parts = re.split(r"^    \[(\w+)\]", block, flags=re.M)[1:]
    listed = set()
    for section, body in zip(parts[::2], parts[1::2]):
        # drop the parenthesised defaults and the "-- ... --" asides
        body = re.sub(r"--.*?(--|$)", "", re.sub(r"\([^()]*\)", "", body), flags=re.S)
        listed |= {(section, key) for key in re.findall(r"\w+", body)}
    assert listed == set(_SCHEMA)


def documented_defaults():
    """(section, key) -> the default text the config docstring gives it in parentheses."""
    block = config.__doc__.split("Sections and keys (defaults in parentheses):", 1)[1]
    parts = re.split(r"^    \[(\w+)\]", block, flags=re.M)[1:]
    found = {}
    for section, body in zip(parts[::2], parts[1::2]):
        body = re.sub(r"--.*?(--|$)", "", body, flags=re.S)
        found.update({(section, key): text for key, text in re.findall(r"(\w+) \(([^()]*)\)", body)})
    return found


DOCUMENTED = documented_defaults()


def test_docstring_gives_every_key_a_default():
    assert set(DOCUMENTED) == set(_SCHEMA)


@pytest.mark.parametrize("full", sorted(DOCUMENTED), ids=".".join)
def test_documented_default_is_the_parsed_default(workspace, full):
    section, key = full
    text = DOCUMENTED[full]
    if text == "required":
        lines = MINIMAL_TEMPLATE.splitlines(keepends=True)
        without = "".join(line for line in lines if not line.startswith(f"{key} ="))
        assert without != MINIMAL_TEMPLATE
        with pytest.raises(MissingKey, match=f"{section}.{key}"):
            parse(without, workspace)
        return
    if "|" in text:  # the choices, the default first
        assert set(text.split("|")) == {policy.value for policy in Policy}
    literal = {"unset": "", "1/255": repr(1 / 255)}.get(text, text.split("|")[0])
    given = parse(MINIMAL_TEMPLATE + f"[{section}]\n{key} = {literal}\n", workspace)
    assert given == parse(MINIMAL_TEMPLATE, workspace)


# small numbers land on both sides of most bounds
VALUES = st.one_of(
    st.integers(-2, 8).map(str),
    st.floats(-2.0, 8.0).map(repr),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=20),
    st.sampled_from(["1e400", "qoe", "a:1:1", "a:2:8:0", "v:359.9", "v:400"]),
)
KEYS = st.one_of(
    st.sampled_from(sorted(_SCHEMA)), st.tuples(st.text(max_size=8), st.text(max_size=8))
)
ENTRIES = st.lists(st.tuples(KEYS, VALUES), max_size=6)


@pytest.fixture(scope="module")
def shared_workspace(tmp_path_factory):
    # the paths MINIMAL_TEMPLATE names exist, so parsing reaches every _build
    return make_workspace(tmp_path_factory.mktemp("config"))


class TestRobustness:
    @given(st.booleans(), ENTRIES)
    @settings(max_examples=300, deadline=None)
    def test_only_config_errors_escape(self, shared_workspace, minimal, entries):
        text = MINIMAL_TEMPLATE if minimal else ""
        text += "".join(f"[{section}]\n{key} = {value}\n" for (section, key), value in entries)
        try:
            cfg = parse(text, shared_workspace)
        except ConfigError:
            return
        assert isinstance(cfg, PipelineConfig)
