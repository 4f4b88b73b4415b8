import pytest

from coreg.config import PipelineConfig, load_config


def _load(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    cfg = _load(tmp_path, "# the protocol\n\n  top_k = 50  \n   \n# seed = 3\n"
                          "models = poly1, poly3\n")
    assert cfg.top_k == 50
    assert cfg.seed == PipelineConfig().seed
    assert cfg.models == "poly1, poly3"


@pytest.mark.parametrize("text,want", [("yes", True), ("off", False),
                                       ("1", True), ("0", False)])
def test_booleans(tmp_path, text, want):
    cfg = _load(tmp_path, f"subpixel = {text}\n")
    assert cfg.subpixel is want


def test_bad_boolean_rejected(tmp_path):
    with pytest.raises(ValueError, match="boolean"):
        _load(tmp_path, "subpixel = maybe\n")


@pytest.mark.parametrize("line, named", [
    ("top_k = abc", "bad top_k= value: invalid literal for int() with base 10: "
                    "'abc'"),
    ("inlier_tol = 1,5", "bad inlier_tol= value: could not convert string to "
                         "float: '1,5'"),
])
def test_bad_value_names_the_key_and_the_file(tmp_path, line, named):
    with pytest.raises(ValueError) as info:
        _load(tmp_path, f"seed = 1\n{line}\n")
    assert str(info.value) == f"{tmp_path / 'pipeline.cfg'}: {named}"


_BOUNDS = [
    ("template_size = 0", "template_size must be > 0, got 0"),
    ("search_size = 100", "search_size (100) must exceed template_size (100)"),
    ("template_size = 51", "template_size and search_size must be even"),
    ("descriptor = sift", "unknown descriptor mode 'sift'"),
    ("n_blocks = 0", "n_blocks must be >= 1, got 0"),
    ("k_per_block = 0", "k_per_block must be >= 1, got 0"),
    ("fast_threshold = -1", "fast_threshold must be >= 0, got -1.0"),
    ("fast_threshold = nan", "fast_threshold must be >= 0, got nan"),
    ("inlier_tol = 0", "inlier_tol must be > 0, got 0.0"),
    ("inlier_tol = nan", "inlier_tol must be > 0, got nan"),
    ("seed = -1", "seed must be >= 0, got -1"),
    ("top_k = 0", "top_k must be >= 1, got 0"),
    ("n_checkpoints = 0", "n_checkpoints must be >= 1, got 0"),
    ("threads = 0", "threads must be >= 1, got 0"),
    ("models = poly1, bogus", "unknown model name 'bogus'"),
]


@pytest.mark.parametrize("line, message", _BOUNDS,
                         ids=[line for line, _ in _BOUNDS])
def test_out_of_bound_value_rejected_with_its_message(tmp_path, line,
                                                      message):
    with pytest.raises(ValueError) as info:
        _load(tmp_path, line + "\n")
    assert str(info.value) == message


def test_fast_threshold_auto_and_number(tmp_path):
    assert _load(tmp_path, "fast_threshold = auto\n").fast_threshold is None
    assert _load(tmp_path, "fast_threshold = 0.25\n").fast_threshold == 0.25


def test_numbers_and_strings_take_their_field_types(tmp_path):
    cfg = _load(tmp_path, "n_blocks = 8\ninlier_tol = 35\ndescriptor = raw\n")
    assert cfg.n_blocks == 8 and type(cfg.n_blocks) is int
    assert cfg.inlier_tol == 35.0 and type(cfg.inlier_tol) is float
    assert cfg.descriptor == "raw"


def test_cp_counts(tmp_path):
    assert _load(tmp_path, "cp_counts = 10, 20,30,\n").cp_counts == (10, 20, 30)


def test_unknown_key_rejected_naming_the_file(tmp_path):
    with pytest.raises(ValueError, match=r"pipeline\.cfg.*'inlier_tolerance'"):
        _load(tmp_path, "inlier_tolerance = 3\n")


@pytest.mark.parametrize("key", [
    "margin", "ransac_model", "ransac_max_iters", "ransac_confidence",
    "m_orientations", "sigma_spatial", "normalize_descriptor"])
def test_retired_key_is_unknown(tmp_path, key):
    # settings the pipeline no longer has fail like a typo, not silently
    with pytest.raises(ValueError, match=r"pipeline\.cfg: unknown "
                                         f"key '{key}'"):
        _load(tmp_path, f"{key} = 1\n")


def test_malformed_line_rejected_naming_the_file(tmp_path):
    with pytest.raises(ValueError, match=r"pipeline\.cfg.*'top_k 50'"):
        _load(tmp_path, "seed = 1\ntop_k 50\n")
