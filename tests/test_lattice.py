"""Lattice generators: counts, edge closure, degrees, landmarks."""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalwalk.cli import walk
from fractalwalk.errors import BoundsError, StructuralError
from fractalwalk.evolution import preset_grid
from fractalwalk.lattice import (
    DIST_TOL,
    LatticeKind,
    canonical_input,
    connectivity_histogram,
    generate,
    landmark_sites,
    mirror_permutation,
    resolve_input,
)
from fractalwalk.geometry import FractalMeta, fractal_meta, sites_and_edges, void_map
from fractalwalk.serialize import write_lattice
from fractalwalk.textio import lattice_bytes

SQRT3_2 = math.sqrt(3.0) / 2.0


# --- site-count laws ------------------------------------------------------

@pytest.mark.parametrize("generation", [1, 2, 3, 4, 5])
def test_gasket_count_law(generation):
    lat = generate("sg", generation)
    assert lat.n_sites == 3 * (3 ** generation + 1) // 2


@pytest.mark.parametrize("generation,expected", [(1, 16), (2, 96), (3, 688)])
def test_carpet_counts(generation, expected):
    # inclusion-exclusion oracle values, frozen
    assert generate("sc", generation).n_sites == expected


@pytest.mark.parametrize("generation", [1, 2, 3])
def test_dual_carpet_count_law(generation):
    assert generate("dsc", generation).n_sites == 8 ** generation


@pytest.mark.parametrize("rows,expected", [(1, 3), (4, 15), (16, 153)])
def test_triangle_counts(rows, expected):
    assert generate("triangle", rows).n_sites == expected


@pytest.mark.parametrize("side,expected", [(1, 4), (3, 16), (8, 81)])
def test_square_counts(side, expected):
    assert generate("square", side).n_sites == expected


# --- exact site order, coordinates and edges -----------------------------

# SHA-256 of the serialized lattice document, frozen from the per-kind
# generators that the geometry table replaced
LATTICE_DIGESTS = {
    ("sg", 1): "9b12d0eb648e02af9f3d52b0d80f1805a7b217c65a7575b0e65d94f78ebd9cb2",
    ("sg", 2): "c78fe773984f6f742f3aa36c52c057d139e4b84f87854a5c72597afbd51a0196",
    ("sg", 3): "d15b66dd786b6cd48b4c366cc033cee2596bb5617f40612e1e1a5f30a3156a3c",
    ("sg", 4): "3755c39b49789a4b0070b6323ef7edc17bd0f107debaa153d2f82c90bf53e98a",
    ("sg", 5): "883f434a960aa3821a8f8cb7db4205dc3533bf0203e41da3b5543652729f056c",
    ("sg", 6): "7ba8ffec7f9c28e0a4a5aa6cdfc9154699f0643652d394bafc5db050e380a094",
    ("sg", 7): "d5c8ea9f041c2b9bd1de64ba6ff6f387db235ea3467de3b53072fa644646af1b",
    ("sc", 1): "456a7cea46eb977dd70c0847cf8bfb15811ced6e6394939cf7a03a0e52466c83",
    ("sc", 2): "ca6a2f261e3eea5e6e21523ac26763f387aee3ee6501aa44b1783e9e9a600494",
    ("sc", 3): "7b3adbbb80505b8579d6635c293535e62929e002484bc2588890fe2c1c70ff12",
    ("sc", 4): "8ce9614a4da956168134ef89f13d700854a7d791040a12ea04abe3d5eb42c94a",
    ("dsc", 1): "f27a3c65082b75d663af3ab51f8cb88d741b8c8751a46cc03e8a20884610d439",
    ("dsc", 2): "0856490b0946879d2a4de4969ee3a30817f392706bce6ccc3c57cc78b1b26f5a",
    ("dsc", 3): "36b98f2dac986c7ac72cc5c21e3024df68f4aa9668d37087aa61964c97c5f5bf",
    ("dsc", 4): "6e160027f7f48e6af569161a253ea0da1b6ffdf415406397506e7f1ff2bc63a8",
    ("triangle", 1): "b75ee1fca2754eb5cb5caade1c49bd6459cc5344a71b36fbae01929dfaa781fd",
    ("triangle", 4): "b8a240dc4fe63fc9195b423a68dd8b7e6ca42029812f6a500e717c7a582b1efd",
    ("triangle", 16): "26a3c2c3d1da141c21e0748eb37ffe7e5d99922450b0189a5c01006b7a7c20f5",
    ("square", 1): "5a24a3cab937abeb1ec612fe3dc2d1e528d30d6f452a59bfdfd7a004f6d7df76",
    ("square", 4): "d4effcf76e49821d076a98aed44485983335d60686be7ce562ad81cd9444f9e1",
    ("square", 8): "95e8b6b61d13cde39031843938ee2bad59f03af577c706f8412f8db9ae45eb61",
}


@pytest.mark.parametrize("kind,generation", sorted(LATTICE_DIGESTS))
def test_lattice_document_digest(kind, generation, tmp_path):
    # the lattice command's lists, and generate's arrays as serialize
    # writes them, give the same file
    text = lattice_bytes(kind, generation, *sites_and_edges(kind, generation))
    write_lattice(generate(kind, generation), str(tmp_path / "lattice.json"))
    assert (tmp_path / "lattice.json").read_bytes() == text
    assert text.endswith(b"}\n")
    digest = hashlib.sha256(text[:-1]).hexdigest()
    assert digest == LATTICE_DIGESTS[(kind, generation)]


# --- edge sets ------------------------------------------------------------

# gasket edge/degree data, frozen from exhaustive unit-distance scans
GASKET_EDGE_DATA = {
    1: (9, {2: 3, 4: 3}),
    2: (30, {2: 3, 4: 9, 6: 3}),
    4: (282, {2: 3, 4: 69, 5: 24, 6: 27}),
}


@pytest.mark.parametrize("generation", sorted(GASKET_EDGE_DATA))
def test_gasket_edges_and_degrees(generation):
    edges, hist = GASKET_EDGE_DATA[generation]
    lat = generate("sg", generation)
    assert lat.n_edges == edges
    assert connectivity_histogram(lat) == hist


CLOSURE_CASES = [
    ("sg", 1), ("sg", 2), ("sg", 3), ("sg", 4),
    ("sc", 1), ("sc", 2), ("sc", 3),
    ("dsc", 1), ("dsc", 2),
    ("triangle", 7), ("square", 5),
]


@pytest.mark.parametrize("kind,generation", CLOSURE_CASES)
def test_edges_are_exactly_the_unit_distance_pairs(kind, generation):
    lat = generate(kind, generation)
    diff = lat.coords[:, None, :] - lat.coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    iu, ju = np.triu_indices(lat.n_sites, 1)
    close = np.abs(dist[iu, ju] - 1.0) < 1e-6
    recomputed = sorted(zip(iu[close].tolist(), ju[close].tolist()))
    stored = sorted(map(tuple, lat.edges.tolist()))
    assert recomputed == stored


@pytest.mark.parametrize("kind,generation", CLOSURE_CASES)
def test_edge_lengths_within_tolerance(kind, generation):
    lat = generate(kind, generation)
    d = np.linalg.norm(lat.coords[lat.edges[:, 0]] - lat.coords[lat.edges[:, 1]], axis=1)
    assert np.all(np.abs(d - 1.0) < 1e-6)


@pytest.mark.parametrize("kind,generation", CLOSURE_CASES)
def test_no_duplicate_coordinates(kind, generation):
    lat = generate(kind, generation)
    diff = lat.coords[:, None, :] - lat.coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, 1.0)
    assert dist.min() > 1e-9


@pytest.mark.parametrize("kind,generation", CLOSURE_CASES)
def test_connected_from_site_zero(kind, generation):
    lat = generate(kind, generation)
    adjacency = [[] for _ in range(lat.n_sites)]
    for a, b in lat.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = np.zeros(lat.n_sites, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    assert seen.all()


def test_edge_rows_sorted_and_oriented():
    lat = generate("sg", 3)
    assert np.all(lat.edges[:, 0] < lat.edges[:, 1])
    as_tuples = list(map(tuple, lat.edges.tolist()))
    assert as_tuples == sorted(as_tuples)


# --- degree alphabets -----------------------------------------------------

def test_carpet_degree_alphabet():
    for g in (1, 2, 3):
        assert set(connectivity_histogram(generate("sc", g))) <= {2, 3, 4}


def test_dual_carpet_generation_one_is_a_ring():
    assert connectivity_histogram(generate("dsc", 1)) == {2: 8}


def test_dual_carpet_degree_alphabet():
    assert set(connectivity_histogram(generate("dsc", 2))) <= {2, 3, 4}


def test_square_side_three_histogram():
    # hand count on the 4x4 grid
    assert connectivity_histogram(generate("square", 3)) == {2: 4, 3: 8, 4: 4}


def test_triangle_interior_degree_is_six():
    hist = connectivity_histogram(generate("triangle", 16))
    assert hist == {2: 3, 4: 45, 6: 105}


def test_gasket_has_exactly_three_corner_sites():
    for g in (1, 2, 3, 4):
        assert connectivity_histogram(generate("sg", g))[2] == 3


# --- geometry relations ---------------------------------------------------

def test_gasket_sites_are_a_subset_of_the_filled_triangle():
    sg = generate("sg", 4)
    tri = generate("triangle", 16)
    tri_points = {tuple(p) for p in tri.coords}
    assert all(tuple(p) in tri_points for p in sg.coords)


def test_gasket_and_triangle_share_the_frame():
    sg = generate("sg", 3)
    tri = generate("triangle", 8)
    assert np.allclose(sg.coords.min(axis=0), tri.coords.min(axis=0))
    assert np.allclose(sg.coords.max(axis=0), tri.coords.max(axis=0))


def test_canonical_input_is_topmost_site_with_id_zero():
    for kind, gen in (("sg", 4), ("sc", 3), ("dsc", 2), ("triangle", 8), ("square", 5)):
        lat = generate(kind, gen)
        site = canonical_input(lat)
        assert site == 0
        y = lat.coords[:, 1]
        top = np.flatnonzero(y >= y.max() - 1e-12)
        assert lat.coords[site, 0] == min(lat.coords[top, 0])


def test_gasket_apex_coordinates():
    lat = generate("sg", 4)
    apex = lat.coords[canonical_input(lat)]
    assert np.allclose(apex, [8.0, 16.0 * SQRT3_2])


# --- mirror permutation ---------------------------------------------------

MIRROR_CASES = [
    ("sg", 3), ("sg", 5), ("sc", 2), ("sc", 3), ("dsc", 2), ("dsc", 3),
    ("triangle", 4), ("triangle", 9), ("square", 4), ("square", 8),
]


def _edge_set(edges):
    return {tuple(sorted(pair)) for pair in edges.tolist()}


@pytest.mark.parametrize("kind,generation", MIRROR_CASES)
def test_mirror_permutation_is_an_edge_preserving_involution(kind, generation):
    lat = generate(kind, generation)
    sigma = mirror_permutation(lat)
    sites = np.arange(lat.n_sites)
    assert not np.array_equal(sigma, sites)
    assert np.array_equal(sigma[sigma], sites)
    assert _edge_set(sigma[lat.edges]) == _edge_set(lat.edges)
    # the vertical axis through the apex, or the anti-diagonal through the
    # top-left site
    d = lat.coords - lat.coords[canonical_input(lat)]
    if kind in ("sg", "triangle"):
        image = np.column_stack((-d[:, 0], d[:, 1]))
    else:
        image = np.column_stack((-d[:, 1], -d[:, 0]))
    assert np.abs(d[sigma] - image).max() < 1e-9


# SHA-256 of the int64 bytes of mirror_permutation(generate(kind, g)),
# frozen from the page-frame search that the axis-frame one replaced
MIRROR_DIGESTS = {
    ("sg", 1): "85255732686c9aeec69f80abe8a2d5ac1d4f6c52293b6d316b2fea47c25aa2db",
    ("sg", 2): "2a5040b45664079b45e863cbf3d8788057a0839e62515d8a96dc6a429028e507",
    ("sg", 3): "41da5e12a19b702b7b7980a0d629362a85e170266419cf9e3ba06c72e4d4d7b9",
    ("sg", 4): "7ddf92f151c41a373ca06e5bfb9853b86d36ad1810e245f04d85accb39611afc",
    ("sg", 5): "e66916e13b5ce364affdc800b712f5ea474f1cdd4cb9c477ac4a2599ad512e40",
    ("sg", 6): "26702e9a2342b527ec1f3c58e731a3c35a44fd2987ceb3505b0f0e540ccc78d9",
    ("sg", 7): "a932d55a17fbd9afca895b6f22ead7e0e6a474bd0ba6df321f8f8021f2b0109e",
    ("sc", 1): "32e0c3056a803bf9d6259df05c74c206101d40cf520ee7da24cc95fca38a7919",
    ("sc", 2): "5b30cd077829f08a6ad3fb054949eb45956f0df31d27a2cda70bd886753e9e1a",
    ("sc", 3): "a541e55d836781fa806c468f9bc2843582dcc9c05b3ca45082e53ec4ad50416a",
    ("sc", 4): "6d5a73af1e9b9d8132b57d904b5970024c6b91c44d07d5ed30c76938ce3c961c",
    ("dsc", 1): "b6bcdbe36db5fd225002d21b1cb2cc053f572f20ac0110e2d23b0ce105a88500",
    ("dsc", 2): "e38b6664c603fdca3f0eb8e62c3162db3a33c0582b92f409c7c8a22f69e5f7a6",
    ("dsc", 3): "868e9377cfb64a29baae04b373e72f008f04c44875c2a49ea88887b77ada2e27",
    ("dsc", 4): "5fddda76c819110c52ae043303cdf0dbbb0bd797956368d5869f713780edeac4",
    ("triangle", 1): "0f004f117335020e1d19c25b8767278bf1edb2fa6ff3fac943d843b6003d0eb5",
    ("triangle", 2): "85255732686c9aeec69f80abe8a2d5ac1d4f6c52293b6d316b2fea47c25aa2db",
    ("triangle", 3): "402ff71bd9a749e7a775168d0f92232e6215bacc48a7e3e191c4d21be4437256",
    ("triangle", 5): "2618e984b9a96715ffeb2fcd71aa4e13a1d376deddb318af2a30b01124c79818",
    ("triangle", 8): "693a3642d7ca4871df5059119783374a476a601c0e98103fa327d315f3e41c7a",
    ("triangle", 16): "0d6012a9389858e1fe05fde0c561ec751aa8d6853653df8e4b445b2b023b32f7",
    ("triangle", 32): "d4196047fea2c3b4c650a3ee9c159aefb4aeb6d56fed4784acb58c6b139cdbd6",
    ("triangle", 64): "d5b7bb40bde424b6cd44f62bef41b1a1c0789be97265418a1f20553fd3a00ede",
    ("square", 1): "270880408f621afcdac5746cf5533e2b8401ea562fd868ffc805571b7b64765f",
    ("square", 2): "37fcb2c479ef6533fbc3617b323ef3f4cf52858d92012691c149fcb353509b1f",
    ("square", 3): "32e0c3056a803bf9d6259df05c74c206101d40cf520ee7da24cc95fca38a7919",
    ("square", 5): "39c750b06eaeee22ba697ed06b89b30a23989393acd1b592a298c1685a393d71",
    ("square", 8): "59284cab5aaad46b8069bc2d180a02b577fd442d2ff0eb18335977c81c8ca291",
    ("square", 16): "f821a01288862e83437d75f93299679c254e5410f54fbb424fc157eb283d37fd",
    ("square", 32): "0830dec909dabb55a5bdb2b68cb41920e17f25cd99ef6112a616e25152be9068",
    ("square", 64): "3715db4728ef396acac7c2523f725e7d2f21efcb6a4211926f4726b4a69609ac",
}


@pytest.mark.parametrize("kind,generation", sorted(MIRROR_DIGESTS))
def test_mirror_digest(kind, generation):
    sigma = mirror_permutation(generate(kind, generation))
    digest = hashlib.sha256(sigma.astype("<i8").tobytes()).hexdigest()
    assert digest == MIRROR_DIGESTS[(kind, generation)]


def _drop_a_mirrored_edge(lat, sigma):
    k = next(k for k, (i, j) in enumerate(lat.edges.tolist())
             if {sigma[i], sigma[j]} != {i, j})
    return dataclasses.replace(lat, edges=np.delete(lat.edges, k, axis=0))


@pytest.mark.parametrize("edit", [_drop_a_mirrored_edge], ids=["edge_removed"])
def test_mirror_permutation_is_the_identity_once_the_symmetry_breaks(edit):
    lat = generate("sg", 4)
    broken = edit(lat, mirror_permutation(lat))
    assert np.array_equal(mirror_permutation(broken), np.arange(lat.n_sites))


@functools.lru_cache(maxsize=None)
def _mirrored(kind, generation):
    lat = generate(kind, generation)
    return lat, mirror_permutation(lat)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(MIRROR_CASES), data=st.data())
def test_moving_one_off_axis_site_breaks_the_mirror(case, data):
    lat, sigma = _mirrored(*case)
    off_axis = np.flatnonzero(sigma != np.arange(lat.n_sites)).tolist()
    site = data.draw(st.sampled_from(off_axis), label="site")
    # any direction, and farther than the DIST_TOL a mirror image may miss by
    radius = data.draw(st.floats(2 * DIST_TOL, 1.0), label="radius")
    angle = data.draw(st.floats(0.0, 2 * math.pi), label="angle")
    coords = lat.coords.copy()
    coords[site] += radius * np.array([math.cos(angle), math.sin(angle)])
    moved = dataclasses.replace(lat, coords=coords)
    # a site raised above the top row becomes the input, and the reflection
    # through it may be another symmetry: the top middle site of the dual
    # carpet and of an odd square lies on their vertical axis
    assume(canonical_input(moved) == canonical_input(lat))
    assert np.array_equal(mirror_permutation(moved), np.arange(lat.n_sites))


# --- rigid motions ---------------------------------------------------------

RIGID_CASES = [("sg", 3), ("sg", 4), ("sc", 2), ("sc", 3), ("dsc", 2), ("dsc", 3),
               ("triangle", 16), ("square", 8)]


@functools.lru_cache(maxsize=None)
def _walk_from(kind, generation, site, classical):
    """The unmoved walk from one site on the preset grid: (spectrum, series)."""
    lat = generate(kind, generation)
    return walk(lat, site, preset_grid(lat.kind), classical)[1:]


@pytest.mark.parametrize("degrees", [17.3, 30.0, 45.0, 90.0])
@pytest.mark.parametrize("kind,generation", RIGID_CASES)
def test_a_rigid_motion_keeps_the_mirror_and_the_walk(kind, generation, degrees):
    # the mirror is sought in the frame of its axis, so a turned and shifted
    # file keeps it; its canonical input may be another corner, and the walk
    # from there equals the unmoved walk from the same site id
    lat = generate(kind, generation)
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    coords = lat.coords @ np.array([[c, s], [-s, c]]) + [-41.3, 17.9]
    moved = dataclasses.replace(lat, coords=coords)
    sigma = mirror_permutation(moved)
    sites = np.arange(lat.n_sites)
    assert not np.array_equal(sigma, sites)
    assert np.array_equal(sigma[sigma], sites)
    assert _edge_set(sigma[lat.edges]) == _edge_set(lat.edges)
    for classical in (False, True):
        site, spectrum, series = walk(moved, "auto", preset_grid(lat.kind), classical)
        still_spectrum, still_series = _walk_from(kind, generation, site, classical)
        assert spectrum.sectors == still_spectrum.sectors
        assert np.abs(series.probabilities - still_series.probabilities).max() < 1e-12


def test_resolve_input_accepts_names_ids_and_digit_strings():
    lat = generate("sg", 2)
    assert resolve_input(lat, "auto") == canonical_input(lat)
    assert resolve_input(lat, "apex") == canonical_input(lat)
    assert resolve_input(lat, "top-left") == canonical_input(lat)
    assert resolve_input(lat, 7) == 7
    assert resolve_input(lat, "7") == 7


def test_resolve_input_rejects_bad_selectors():
    lat = generate("sg", 2)
    with pytest.raises(BoundsError):
        resolve_input(lat, lat.n_sites)
    with pytest.raises(BoundsError):
        resolve_input(lat, -1)
    with pytest.raises(BoundsError):
        resolve_input(lat, "centre")


# --- landmarks ------------------------------------------------------------

def test_gasket_landmarks_from_apex():
    lat = generate("sg", 4)
    lm = landmark_sites(lat, canonical_input(lat))
    # nearest deleted position sits sqrt(19) spacings from the apex; the
    # farthest sites are the two bottom corners at the full side length
    assert lm.probe_length_a == pytest.approx(math.sqrt(19.0), abs=1e-9)
    assert len(lm.farthest_set) == 2
    assert lm.farthest_distance == pytest.approx(16.0, abs=1e-9)
    bottom = lat.coords[list(lm.farthest_set)]
    assert np.allclose(sorted(bottom[:, 0]), [0.0, 16.0])
    assert np.allclose(bottom[:, 1], 0.0)
    assert len(lm.first_void_boundary) > 0


def test_carpet_first_void_skips_the_unit_holes():
    # 1x1 removed squares delete no vertices; the first effective void is
    # the nearest 3x3 hole, 4 spacings diagonally from the corner
    lat = generate("sc", 3)
    lm = landmark_sites(lat, canonical_input(lat))
    assert lm.probe_length_a == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)
    assert len(lm.first_void_positions) == 4


def test_dual_carpet_probe_length():
    for g in (1, 2):
        lat = generate("dsc", g)
        lm = landmark_sites(lat, canonical_input(lat))
        assert lm.probe_length_a == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_landmarks_are_deterministic(sg4_run):
    a = landmark_sites(sg4_run.lattice, sg4_run.input_site)
    b = landmark_sites(sg4_run.lattice, sg4_run.input_site)
    assert a == b


def test_landmarks_reject_regular_lattices():
    with pytest.raises(StructuralError):
        landmark_sites(generate("triangle", 4), 0)


def test_landmarks_reject_coordinates_that_disagree_with_the_label():
    lat = generate("sg", 4)
    relabelled = dataclasses.replace(lat, generation=3)
    moved = dataclasses.replace(lat, coords=lat.coords + [0.0, 1e-3])
    for bad in (relabelled, moved):
        with pytest.raises(StructuralError):
            landmark_sites(bad, canonical_input(bad))
    # rounding of the size a file round trip makes stays well inside DIST_TOL
    rounded = landmark_sites(dataclasses.replace(lat, coords=lat.coords.round(11)), 0)
    exact = landmark_sites(lat, 0)
    assert rounded.first_void_boundary == exact.first_void_boundary
    assert rounded.farthest_set == exact.farthest_set


# SHA-256 of repr(Landmarks) for every input site of the smaller instances
# and for sites 0, N // 2 and N - 1 of the larger ones, frozen from the
# set-based void map the array one replaced.  sc:3 has 56 inputs whose
# nearest voids tie on (distance, size), so the position tie-break is pinned.
LANDMARK_DIGESTS = {
    ("sg", 3): "c424bb03ba0a66abdf2311d155b7b9864bdfe7b6a527fa0d2e435fd9b025b021",
    ("sg", 4): "71cd5d2629bc499e3c584c55b1852fee5b6ed3ace2c8bcbe1663ef879d89d3d8",
    ("sg", 5): "5f211f4b6a2957bea2a1d7a02f34640d5287107d6a07f5fbfbb8c6cb98f7280c",
    ("sg", 6): "b04670ef389c86f441b3d3142b557046ba39480e2991c4313438e5add9275e19",
    ("sg", 7): "6bef0d46b14e842fbbaa8d20bd7e8b690a15c9c9700ba9fb7cb43e539c0f122e",
    ("sc", 2): "d992be68d32ea2e22eb4d9754c0b24bf90b449e77a690c2fe6156965d94a35a7",
    ("sc", 3): "7dec2a11bcf4dac1f4c05d87289a0265554bd800e9f3fb7678bf28e3170b7bde",
    ("sc", 4): "f06906a54f38052ab188db0c0ff72696769835f2c9dacbf26dfdd352b682ca23",
    ("dsc", 1): "b8af9f8918eb78d47d803ee548081974e189e0a662e44fe170937f1a5c932a54",
    ("dsc", 2): "ab3068d57e9885816dd3675ea72b296a4d8a1611b09a14a2a123e4feb64ae028",
    ("dsc", 3): "59531f532f44d3e04af40aeb65740e9b082efa9408f20b79812f0f040d240dba",
    ("dsc", 4): "ce79a6842b5f6c41360098f10dd0f45c4d92fc309efc333c78061d1cbeace658",
}
SPOT_CHECKED = {("sg", 6), ("sg", 7), ("sc", 4), ("dsc", 4)}


@pytest.mark.parametrize("kind,generation", sorted(LANDMARK_DIGESTS))
def test_landmark_digest(kind, generation):
    lat = generate(kind, generation)
    n = lat.n_sites
    sites = (0, n // 2, n - 1) if (kind, generation) in SPOT_CHECKED else range(n)
    digest = hashlib.sha256()
    for site in sites:
        digest.update(repr(landmark_sites(lat, site)).encode("utf-8"))
    assert digest.hexdigest() == LANDMARK_DIGESTS[(kind, generation)]


# SHA-256 of the void map's xy (float64 bytes) followed by its labels (int64
# bytes), frozen from the array void map that the dict one replaced
VOID_DIGESTS = {
    ("sg", 3): "f9a0be72377cfa9e79f1ab3df72ca83914eb1bae0314302069df29ef65fe0d9d",
    ("sg", 4): "ef4d8af06699af098eae4fb99967885f7b4ec5f66955ed950537989b5d9efe5b",
    ("sg", 5): "6b678041dc6f14560c60f81a99a9539ab15169be7b833ec836f7c9a530cd4781",
    ("sg", 6): "75fa50a31f979831922a476f130257e61d74df02ac3214c925eca052a48fc564",
    ("sg", 7): "f36ce43db542ff386351b5e022b06875d6db7830ebdce17ab0d5458d717b3f6b",
    ("sc", 2): "47b58316ed818933444c6a219a635cd684e36b78e1945d097e5e9785979d7553",
    ("sc", 3): "85eed2415b87b6e4e66a98561c1d4077906815587a0add83a2863fc1b6aee942",
    ("sc", 4): "263c540b9af898a367958b9495c3b63755a70131b24aac2596b0df975a1ab6b3",
    ("dsc", 1): "2b716636a585f12d4aee0b4acafd4fe91e6bb3351b01c138b8b9b9fbd49fd6fa",
    ("dsc", 2): "daaae8eb2671e20d2f82a93daf37ee99ca967e95a30711b18777750c2677ff1a",
    ("dsc", 3): "879e456922a58deda72dc4ba7afd22c4e3f94d56b3ef5548d4751464dd78954f",
    ("dsc", 4): "07b8c4a81ecc024c3e2570c88fe4d869e64e969de22c983b85868716484c8a7c",
}


@pytest.mark.parametrize("kind,generation", sorted(VOID_DIGESTS))
def test_void_map_digest(kind, generation):
    xy, label = void_map(kind, generation)
    data = np.array(xy, dtype="<f8").tobytes() + np.array(label, dtype="<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == VOID_DIGESTS[(kind, generation)]


@pytest.mark.parametrize("kind,generation", [("sg", 1), ("sg", 2), ("sc", 1)])
def test_landmarks_reject_instances_without_a_void(kind, generation):
    with pytest.raises(StructuralError):
        landmark_sites(generate(kind, generation), 0)


def test_landmarks_reject_bad_site():
    lat = generate("sg", 2)
    with pytest.raises(BoundsError):
        landmark_sites(lat, lat.n_sites)


# --- parameter validation -------------------------------------------------

@pytest.mark.parametrize("kind,bad", [
    ("sg", 0), ("sg", 8), ("sc", 5), ("dsc", 0), ("triangle", 65), ("square", 0),
])
def test_generation_bounds(kind, bad):
    with pytest.raises(BoundsError):
        generate(kind, bad)


def test_generation_must_be_an_integer():
    # a numpy integer counts; a float or a string never does, even of an integer
    assert generate("sg", np.int64(3)).n_sites == generate("sg", 3).n_sites
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(BoundsError):
            generate("sg", bad)


def test_unknown_kind_is_rejected():
    with pytest.raises(BoundsError):
        generate("hexagon", 2)


def test_kind_parse_is_case_insensitive():
    assert LatticeKind.parse("SG") is LatticeKind.SG


def test_fractal_meta_dimensions():
    assert fractal_meta("sg").fractal_dimension == pytest.approx(math.log(3) / math.log(2))
    assert fractal_meta("sc").fractal_dimension == pytest.approx(math.log(8) / math.log(3))
    assert fractal_meta("triangle").fractal_dimension == 2.0


# each kind's row of the kind table: generation range, d_f, d_s, preset grid
KIND_ROWS = {
    "sg": ((1, 7), 1.5849625007211563, 1.3652123889719707, (25.0, 501)),
    "sc": ((1, 4), 1.892789260714372, 1.805, (12.0, 241)),
    "dsc": ((1, 4), 1.892789260714372, 1.805, (25.0, 501)),
    "triangle": ((1, 64), 2.0, 2.0, (25.0, 501)),
    "square": ((1, 64), 2.0, 2.0, (25.0, 501)),
}


@pytest.mark.parametrize("kind", KIND_ROWS)
def test_each_kind_row(kind):
    (lo, hi), d_f, d_s, (tau_max, steps) = KIND_ROWS[kind]
    assert generate(kind, lo).generation == lo and generate(kind, hi).generation == hi
    for generation in (lo - 1, hi + 1):
        with pytest.raises(BoundsError):
            generate(kind, generation)
    assert fractal_meta(kind) == FractalMeta(d_f, d_s)
    grid = preset_grid(kind)
    assert (grid[-1], grid.size) == (tau_max, steps)


def test_lattice_arrays_are_frozen():
    lat = generate("sg", 1)
    with pytest.raises(ValueError):
        lat.coords[0, 0] = 99.0
    with pytest.raises(ValueError):
        lat.edges[0, 0] = 99
