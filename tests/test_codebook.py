import hashlib
import itertools
import json

import pytest

from naive_oracle import naive_logical_count
from stabgauge.codebook import (
    code_from_dict,
    code_to_dict,
    codebook_names,
    dumps_code,
    generalized_toric,
    get_code,
    loads_code,
)
from stabgauge.gauging import gauge, symmetry_model_from_code
from stabgauge.pauli import CodeSpec, GeneratorMap, canonical_column_set, verify_stabilizer
from stabgauge.poly import LaurentPoly
from stabgauge.torus import count_logical, shape_of

ALL_NAMES = ["toric2d", "cubic", "ising2d", "fractal_ising", "cluster_toric", "cluster_cubic"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_codebook_entries_commute(name):
    assert verify_stabilizer(get_code(name)).passed


@pytest.mark.parametrize("name", ALL_NAMES)
def test_json_round_trip_bit_exact(name):
    code = get_code(name)
    text = dumps_code(code)
    # no sector count where the reader's guess cannot go wrong
    assert "n_x_types" not in json.loads(text)
    again = loads_code(text)
    assert again.full_sigma() == code.full_sigma()
    assert (again.name, again.dim, again.q_per_site, again.css) == (
        code.name, code.dim, code.q_per_site, code.css,
    )
    assert dumps_code(again) == text


def _gauged_with_zero_x_generator():
    """Gauged from Z constraints 1 + x and 1 + y on the first of two matter
    types: the free second type gives an all-zero X generator."""
    data = {"css": True, "dim": 2, "name": "half-free", "q_per_site": 2, "generators": [
        {"x_block": [[], []], "z_block": [[[0, 0], [1, 0]], []]},
        {"x_block": [[], []], "z_block": [[[0, 0], [0, 1]], []]},
    ]}
    code, _ = gauge(symmetry_model_from_code(code_from_dict(data)))
    assert (code.n_x_types, code.n_z_types) == (2, 1)
    assert not any(code.sigma_x.column(1))
    return code


@pytest.mark.parametrize("code", [
    pytest.param(_gauged_with_zero_x_generator(), id="zero-x-generator"),
    *(pytest.param(get_code(n), id=n) for n in ALL_NAMES + [
        "generalized_toric(2,1)", "generalized_toric(3,1)", "generalized_toric(3,2)"]),
])
def test_loads_inverts_dumps(code):
    assert loads_code(dumps_code(code)) == code


def test_css_file_without_generators_round_trips():
    data = {"css": True, "dim": 2, "generators": [], "name": "empty", "notes": "", "q_per_site": 2}
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    code = loads_code(text)
    assert (code.dim, code.q_per_site, code.n_x_types, code.n_z_types) == (2, 2, 0, 0)
    assert dumps_code(code) == text


def _toric2d_with_zero_z_generator():
    """toric2d with an all-zero Z generator written before its Z plaquette,
    where the reader's sector guess would take the zero generator for X."""
    toric = get_code("toric2d")
    zero = (LaurentPoly.zero(2),) * toric.q_per_site
    sigma_z = GeneratorMap.from_columns(2, toric.q_per_site, [zero, toric.sigma_z.column(0)])
    return CodeSpec("zero-z", True, sigma_x=toric.sigma_x, sigma_z=sigma_z)


def test_all_zero_generator_keeps_its_sector():
    code = _toric2d_with_zero_z_generator()
    text = dumps_code(code)
    assert json.loads(text)["n_x_types"] == 1
    again = loads_code(text)
    assert (again.n_x_types, again.n_z_types) == (1, 2)
    assert again == code


def test_sector_count_is_rejected_in_a_mixed_code():
    data = code_to_dict(get_code("cluster_toric"))
    data["n_x_types"] = 0
    with pytest.raises(ValueError, match="n_x_types is only valid for a CSS code"):
        code_from_dict(data)


def test_css_generator_with_empty_blocks_is_a_z_generator():
    data = {"css": True, "dim": 1, "q_per_site": 1,
            "generators": [{"x_block": [[]], "z_block": [[]]}]}
    code = code_from_dict(data)
    assert (code.n_x_types, code.n_z_types) == (0, 1)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        get_code("nope")


@pytest.mark.parametrize("d,k", [(2, 0), (2, 2), (3, 3), (1, 1), (4, 1)])
def test_generalized_toric_invalid_parameters(d, k):
    with pytest.raises(ValueError):
        generalized_toric(d, k)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_generalized_toric_commutes(d, k):
    assert verify_stabilizer(generalized_toric(d, k)).passed


def test_generalized_toric_21_equals_toric2d():
    gt = generalized_toric(2, 1)
    toric = get_code("toric2d")
    assert gt.q_per_site == 2
    # equality up to translation, column order and qubit-type relabeling
    def canon(code, perm):
        def permute(m):
            rows = tuple(m.entries[p] for p in perm)
            return type(m)(m.dim, rows)
        return (
            canonical_column_set(permute(code.sigma_x)),
            canonical_column_set(permute(code.sigma_z)),
        )

    target = canon(toric, (0, 1))
    assert any(canon(gt, perm) == target for perm in itertools.permutations(range(2)))


@pytest.mark.parametrize("L", [2, 3])
def test_generalized_toric_31_has_three_logical_qubits(L):
    code = generalized_toric(3, 1)
    lengths = (L, L, L)
    assert naive_logical_count(code, lengths) == 3
    assert count_logical(code, shape_of(lengths)).k_encoded == 3


def test_generalized_toric_32_counts_match_oracle():
    code = generalized_toric(3, 2)
    assert count_logical(code, shape_of((2, 2, 2))).k_encoded == naive_logical_count(
        code, (2, 2, 2)
    )


def test_codebook_names_lists_everything():
    names = codebook_names()
    for name in ALL_NAMES:
        assert name in names


def test_cluster_entries_are_mixed_sector():
    code = get_code("cluster_toric")
    data = code_to_dict(code)
    assert data["css"] is False
    gen = data["generators"][0]
    assert any(p for p in gen["x_block"]) and any(p for p in gen["z_block"])


def test_exponent_vector_length_checked():
    code = get_code("toric2d")
    data = code_to_dict(code)
    data["generators"][0]["x_block"][0] = [[1, 2, 3]]
    with pytest.raises(ValueError):
        code_from_dict(data)


# no golden CLI case runs `codebook dump`, so the dumped text is pinned here
DUMP_SHA256 = {
    "toric2d": "88b1127099abf4768d606846ab4c8577dbbc16ca5907bf8e0d51ab22791a51cb",
    "cubic": "ad02465e582a6ba2651f5726952adcf5240575a6e9d52a99410532079390c52d",
    "ising2d": "ea1efe99d42f5e522dc649b4cf666c8148243f7ae101b37946880b6e0f4198be",
    "fractal_ising": "1e78663ec24d5884376e39011f1279cbb5fbd33244d181519cb9ec1f5117b093",
    "cluster_toric": "650784d060cb3ef1dccdf24cd86fced5d3c9b96109ea42ac2bebb5777da3ddee",
    "cluster_cubic": "d2690b4060886c4efb1bbcfa84a4df3012aa3ac5a117cd9aa08d7bddab3c5dfe",
    "generalized_toric(2,1)": "0014376a2cea114f46e1c1062081511d51448804d1b8ddbc4133e0e57a383d6e",
    "generalized_toric(3,1)": "8e319279483ba607b69b59bf27e5987d530172cc97347a001fe5f3630e0d79ee",
    "generalized_toric(3,2)": "d6f1dd86d5ce695628c38c204e6760e061ec69dcb2938e3f42e09892d6e00a69",
}


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_dump_text_is_pinned(name):
    text = dumps_code(get_code(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[name]


def test_dump_is_valid_json():
    parsed = json.loads(dumps_code(get_code("cubic")))
    assert parsed["dim"] == 3 and parsed["q_per_site"] == 2
