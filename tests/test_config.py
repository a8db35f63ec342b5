import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emr.config import _SCHEMA, MINIMAL_TEMPLATE, PipelineConfig, parse_config
from emr.errors import ConfigError, InvalidValue, MissingKey, UnknownKey
from emr.fusion import ViewSource
from emr.qoeqos import Policy


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "frames").mkdir()
    (tmp_path / "scene.ppm").write_bytes(b"P6 1 1 255\n\x00\x00\x00")
    return tmp_path


def parse(text, base, **kw):
    return parse_config(text, base_dir=base, **kw)


class TestParsing:
    def test_minimal_template_applies_defaults(self, workspace):
        cfg = parse(MINIMAL_TEMPLATE, workspace)
        assert cfg.policy is Policy.BALANCE
        assert cfg.gmm.k == 3 and cfg.gmm.alpha_lr == 0.02
        assert [l.id for l in cfg.levels] == ["high", "med", "low"]
        assert cfg.channel.capacity == 1e7
        assert cfg.store.shards == 4
        assert cfg.seed == 0
        assert cfg.warnings == []

    def test_comments_and_blanks_ignored(self, workspace):
        text = MINIMAL_TEMPLATE + "\n# full comment\n[run]\nseed = 9  # inline comment\n"
        assert parse(text, workspace).seed == 9

    def test_duplicate_key_last_wins_with_warning(self, workspace):
        text = MINIMAL_TEMPLATE + "[run]\nseed = 1\nseed = 2\n"
        cfg = parse(text, workspace)
        assert cfg.seed == 2
        assert any("duplicate" in w for w in cfg.warnings)

    def test_unknown_key_rejected(self, workspace):
        with pytest.raises(UnknownKey):
            parse(MINIMAL_TEMPLATE + "[run]\nspeed = 3\n", workspace)

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
            "[tunnel]\ng = 1\n",
            "[fusion]\nview_angle = 400\n",
            "[run]\nseed = ten\n",
            "[fusion]\nscale = inf\n",
            "[encoding]\nmos_min = nan\n",
            "[encoding]\nfps = inf\n",
            "[tunnel]\np = 3\ng = 2\n",
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
            ("[tunnel]\np = 3\ng = 2\n", "tunnel.p"),
        ],
    )
    def test_error_names_the_config_key(self, workspace, snippet, key):
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + snippet, workspace)
        assert info.value.key == key
        assert str(info.value).startswith(f"invalid value for {key}:")

    def test_cross_field_error_names_one_of_its_keys(self, workspace):
        with pytest.raises(InvalidValue) as info:
            parse(MINIMAL_TEMPLATE + "[matting]\nr_fg = 5\nr_bg = 2\n", workspace)
        assert info.value.key in ("matting.r_fg", "matting.r_bg")

    def test_missing_paths_rejected_when_required(self, tmp_path):
        with pytest.raises(InvalidValue):
            parse(MINIMAL_TEMPLATE, tmp_path)

    def test_paths_optional_for_syntax_checks(self, tmp_path):
        cfg = parse(MINIMAL_TEMPLATE, tmp_path, require_paths=False)
        assert cfg.frames_dir.name == "frames"

    def test_levels_with_explicit_bits(self, workspace):
        cfg = parse(
            MINIMAL_TEMPLATE + "[encoding]\nlevels = a:1:1:12345,b:2:8\n", workspace
        )
        assert cfg.levels[0].bits_per_frame == 12345
        assert cfg.levels[1].bits_per_frame is None

    def test_views_parsed(self, workspace):
        cfg = parse(
            MINIMAL_TEMPLATE + "[fusion]\nviews = cam0:12.5,cam1:270\nview_angle = 300\n",
            workspace,
        )
        assert cfg.fusion.views == (ViewSource("cam0", 12.5), ViewSource("cam1", 270.0))
        assert cfg.fusion.view_angle == 300.0


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


class TestRobustness:
    @given(st.booleans(), ENTRIES, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_only_config_errors_escape(self, minimal, entries, require_paths):
        text = MINIMAL_TEMPLATE if minimal else ""
        text += "".join(f"[{section}]\n{key} = {value}\n" for (section, key), value in entries)
        try:
            cfg = parse_config(text, base_dir=".", require_paths=require_paths)
        except ConfigError:
            return
        assert isinstance(cfg, PipelineConfig)
