import math
import re

import numpy as np
import pytest

from sweepslide.core import Triangle, dot, norm, sub
from sweepslide.mesh import MeshParseError, builtin_mesh, load_obj_mesh, load_obj_vertices


# --- OBJ loading ---

def test_load_simple_quad_mesh(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "# a unit quad\n"
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 1 1 0\n"
        "v 0 1 0\n"
        "f 1 2 3\n"
        "f 1 3 4\n"
    )
    triangles = load_obj_mesh(str(path))
    assert len(triangles) == 2
    assert triangles[0].a == (0.0, 0.0, 0.0)
    assert triangles[0].b == (1.0, 0.0, 0.0)
    assert triangles[1].c == (0.0, 1.0, 0.0)


def test_fan_triangulation_of_polygon_faces(tmp_path):
    path = tmp_path / "quadface.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f 1 2 3 4\n"
    )
    triangles = load_obj_mesh(str(path))
    assert len(triangles) == 2
    # fan rule: (1,2,3) and (1,3,4)
    assert triangles[0].vertices() == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0))
    assert triangles[1].vertices() == ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))


def test_degenerate_face_skipped(tmp_path):
    path = tmp_path / "degen.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1\nf 1 2 3\n")
    kept = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert load_obj_mesh(str(path)) == [kept]


def test_negative_indices_resolve_from_end(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    triangles = load_obj_mesh(str(path))
    assert len(triangles) == 1
    assert triangles[0].a == (0.0, 0.0, 0.0)


def test_slash_face_entries_use_vertex_index(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\n")
    assert len(load_obj_mesh(str(path))) == 1


def test_unknown_records_ignored(tmp_path):
    path = tmp_path / "extra.obj"
    path.write_text(
        "mtllib x.mtl\no thing\ng grp\ns off\nusemtl m\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    )
    assert len(load_obj_mesh(str(path))) == 1


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 zzz\n")
    with pytest.raises(MeshParseError, match=":4"):
        load_obj_mesh(str(path))


def test_out_of_range_index_rejected(tmp_path):
    path = tmp_path / "oob.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    with pytest.raises(MeshParseError, match="out of range"):
        load_obj_mesh(str(path))


@pytest.mark.parametrize("coordinate", ["inf", "-inf", "nan"])
def test_non_finite_vertex_rejected_with_line(tmp_path, coordinate):
    path = tmp_path / "nonfinite.obj"
    path.write_text(f"v 0 1 0\nv {coordinate} 0 0\nv 1 0 0\nf 1 2 3\n")
    with pytest.raises(MeshParseError, match=r"nonfinite\.obj:2: non-finite vertex"):
        load_obj_mesh(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_obj_mesh(str(tmp_path / "nope.obj"))


# The reader's error contract: which error a bad face raises, and on which line.
THREE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize("body, line, message", [
    (THREE + "f 0 1 2\n", 4, "face index 0 is invalid (indices are 1-based)"),
    # Negative indices count back from the vertices read so far, not the file's.
    (THREE + "f -4 -2 -1\nv 0 0 1\n", 4, "face index -4 out of range (have 3 vertices)"),
    # A face may not name a vertex defined on a later line.
    ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", 3, "face index 3 out of range (have 2 vertices)"),
    # Every token is parsed before any index is checked: the bad token wins.
    (THREE + "f 9 1 zz\n", 4, "bad face index: invalid literal for int() with base 10: 'zz'"),
    (THREE + "f 9/1 1/1 zz/1\n", 4,
     "bad face index: invalid literal for int() with base 10: 'zz'"),
    # Indices are checked in order: the first bad one is named.
    (THREE + "f 1 9 0\n", 4, "face index 9 out of range (have 3 vertices)"),
    (THREE + "f 1 0 9\n", 4, "face index 0 is invalid (indices are 1-based)"),
    (THREE + "f 1 -7 2 0\n", 4, "face index -7 out of range (have 3 vertices)"),
    (THREE + "f 1 2\n", 4, "face needs at least 3 vertices"),
])
def test_face_error_names_the_file_line_and_index(tmp_path, body, line, message):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(MeshParseError, match=f"^{re.escape(f'{path}:{line}: {message}')}$"):
        load_obj_mesh(str(path))


def test_negative_slash_tokens_resolve_from_end(tmp_path):
    path = tmp_path / "negslash.obj"
    path.write_text(THREE + "v 5 5 5\nvt 0 0\nvn 0 0 1\nf -4/-1/-1 -3/-1/-1 -2/-1/-1\n")
    assert load_obj_mesh(str(path)) == [Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                                 (0.0, 1.0, 0.0))]


def test_fan_drops_only_its_collinear_triangle(tmp_path):
    # The fan of 1 2 3 4 5 is (1,2,3), (1,3,4), (1,4,5); vertex 4 lies on
    # the line through 1 and 3, so the middle triangle alone is dropped.
    path = tmp_path / "fan.obj"
    path.write_text("v 0 0 0\nv 2 0 0\nv 1 1 0\nv 2 2 0\nv 0 2 0\nf 1 2 3 4 5\n")
    assert load_obj_mesh(str(path)) == [
        Triangle((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
        Triangle((0.0, 0.0, 0.0), (2.0, 2.0, 0.0), (0.0, 2.0, 0.0)),
    ]


def test_byte_order_mark_is_not_part_of_the_first_record(tmp_path):
    path = tmp_path / "bom.obj"
    path.write_bytes(b"\xef\xbb\xbf" + (THREE + "v 0 0 1\nv 5 5 5\nf 1 2 3\n").encode())
    assert load_obj_mesh(str(path)) == [Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                                 (0.0, 1.0, 0.0))]


def test_large_heightfield_loads_the_triangles_it_describes(heightfield_obj):
    # 100 x 100 quads: 20,000 triangles, the size of the benchmark's terrain.
    path, corners = heightfield_obj(100)
    got = load_obj_mesh(str(path))
    want = [Triangle(*c) for c in corners]
    assert len(got) == 20_000
    assert [(t.a, t.b, t.c, t.normal) for t in got] == [(t.a, t.b, t.c, t.normal) for t in want]



def _loaded(path):
    """The loaded triangles with their normals, or the error's message."""
    try:
        return [(t.a, t.b, t.c, t.normal) for t in load_obj_mesh(str(path))]
    except MeshParseError as exc:
        return str(exc).replace(str(path), "<path>")


@pytest.mark.parametrize("body", [
    THREE + "v 0 0 1\n# a comment\n\nf 1 2 3\nf 1 2 4 3\n",
    THREE + "v 0 0 1\n\nf 1 2 4\nf 1 2 zz\n",
    THREE + "\nv 0 0 nan\n",
], ids=["triangles", "bad-face", "non-finite"])
def test_crlf_line_endings_read_the_same(tmp_path, body):
    lf, crlf = tmp_path / "lf.obj", tmp_path / "crlf.obj"
    lf.write_bytes(body.encode())
    crlf.write_bytes(body.replace("\n", "\r\n").encode())
    assert _loaded(crlf) == _loaded(lf)
    assert _loaded(lf) != []


def test_tabs_and_a_fourth_vertex_coordinate_are_accepted(tmp_path):
    path = tmp_path / "tabs.obj"
    path.write_text("v\t0\t0\t0\nv 1 0 0 1.0\n  v\t0 1 0\t0.5\nf\t1 2\t3\n")
    assert load_obj_mesh(str(path)) == [Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                                 (0.0, 1.0, 0.0))]


@pytest.mark.parametrize("body, message", [
    # The first malformed line in file order wins, whatever its kind.
    ("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 zz\n", ":2: non-finite vertex (nan, 0.0, 0.0)"),
    ("v 0 0 0\nf 1 2 zz\nv 0 1 0\nv nan 0 0\n",
     ":2: bad face index: invalid literal for int() with base 10: 'zz'"),
    ("v 0 0 0\nv 1 0\nf 1 2 3\n", ":2: vertex needs 3 coordinates"),
    ("v 0 0 0\nv 1 0 zz\n", ":2: bad vertex coordinate: could not convert string to float: 'zz'"),
    (THREE + "f 1 2 99999999999999999999\n",
     ":4: face index 99999999999999999999 out of range (have 3 vertices)"),
    (THREE + "f 1 2 3\nf 1 2 3 4\n", ":5: face index 4 out of range (have 3 vertices)"),
])
def test_the_first_malformed_line_names_the_error(tmp_path, body, message):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(MeshParseError, match=f"^{re.escape(f'{path}{message}')}$"):
        load_obj_mesh(str(path))


def test_triangles_are_the_rows_of_the_vertex_block(tmp_path):
    # Polygons fanned, a collinear fan triangle dropped, negative and
    # slashed indices, faces between vertices.
    path = tmp_path / "mixed.obj"
    path.write_text("v 0 0 0\nv 2 0 0\nv 1 1 0\nv 2 2 0\nv 0 2 0\nf 1 2 3 4 5\n"
                    "v 0 0 3\nf -1/1 1/2/3 2//1\nvt 0 0\nf 6 -6 -4\n")
    block = load_obj_vertices(str(path))
    assert block.dtype == np.float64 and block.shape == (4, 3, 3)
    want = [Triangle(*map(tuple, row)) for row in block.tolist()]
    got = load_obj_mesh(str(path))
    assert [(t.a, t.b, t.c, t.normal) for t in got] == [(t.a, t.b, t.c, t.normal) for t in want]
    assert got[2].vertices() == ((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), (2.0, 0.0, 0.0))


def test_an_empty_file_has_no_triangles(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing\n")
    assert load_obj_vertices(str(path)).shape == (0, 3, 3)
    assert load_obj_mesh(str(path)) == []

# --- builtin meshes ---

def test_floor_is_two_coplanar_triangles():
    tris = builtin_mesh("floor")
    assert len(tris) == 2
    for tri in tris:
        assert tri.a[2] == tri.b[2] == tri.c[2] == 0.0


def test_crease_meets_at_right_angle():
    tris = builtin_mesh("crease", angle=90.0)
    assert len(tris) == 2
    n1, n2 = tris[0].normal, tris[1].normal
    assert abs(dot(n1, n2)) <= 1e-12  # faces at 90 degrees
    # both triangles share the y-axis edge
    shared = {(0.0, -120.0, 0.0), (0.0, 120.0, 0.0)}
    assert shared <= set(tris[0].vertices())
    assert shared <= set(tris[1].vertices())


def test_corner_dihedral_angle_matches_request():
    for angle in (5.0, 60.0, 120.0, 135.0, 179.0):
        tris = builtin_mesh("crease", angle=angle)
        n1, n2 = tris[0].normal, tris[1].normal
        got = math.degrees(math.acos(max(-1.0, min(1.0, dot(n1, n2)))))
        # normals of faces meeting at dihedral angle a are a apart (mod orientation)
        assert min(abs(got - angle), abs(180.0 - got - angle)) <= 1e-6


def test_corner_angle_validation():
    with pytest.raises(ValueError):
        builtin_mesh("crease", angle=0.0)
    with pytest.raises(ValueError):
        builtin_mesh("crease", angle=180.0)


def test_box_room_faces_point_inward():
    tris = builtin_mesh("box_room", size=10.0)
    assert len(tris) == 12
    for tri in tris:
        centroid = tuple((tri.a[i] + tri.b[i] + tri.c[i]) / 3.0 for i in range(3))
        # normal must point from the face back toward the room center
        assert dot(tri.normal, sub((0.0, 0.0, 0.0), centroid)) > 0.0


def test_random_soup_is_deterministic():
    a = builtin_mesh("random_soup", n=50, seed=7)
    b = builtin_mesh("random_soup", n=50, seed=7)
    assert [t.vertices() for t in a] == [t.vertices() for t in b]
    c = builtin_mesh("random_soup", n=50, seed=8)
    assert [t.vertices() for t in a] != [t.vertices() for t in c]


def test_random_soup_stays_in_extent():
    extent = 10.0
    for tri in builtin_mesh("random_soup", n=40, seed=1, extent=extent):
        for v in tri.vertices():
            for comp in v:
                assert abs(comp) <= extent + extent / 4.0 + 1e-9


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_mesh("donut")


# Each kind with a parameter that another kind has and it lacks.
@pytest.mark.parametrize("kind, param", [
    ("floor", "angle"), ("obtuse_corner", "size"), ("acute_corner", "seed"),
    ("crease", "n"), ("box_room", "extent"), ("random_soup", "angle"),
])
def test_unknown_params_rejected(kind, param):
    with pytest.raises(ValueError, match=f"unknown parameters for '{kind}'"):
        builtin_mesh(kind, **{param: 5.0})


def test_corner_presets_take_overrides():
    # A preset's angle is only a default: obtuse_corner at 100 degrees is
    # the crease at 100 degrees, and acute_corner keeps its 5 degrees when
    # only the extent changes.
    assert builtin_mesh("obtuse_corner", angle=100.0) == builtin_mesh("crease", angle=100.0)
    assert builtin_mesh("acute_corner", extent=50.0) == builtin_mesh("crease", angle=5.0,
                                                                      extent=50.0)
    for tri in builtin_mesh("acute_corner", extent=50.0):
        assert max(abs(c) for v in tri.vertices() for c in v) <= 50.0


@pytest.mark.parametrize("extent", [1e100, math.inf, math.nan])
def test_random_soup_rejects_an_extent_without_triangles(extent):
    # Squares of 1e100 overflow, so every draw is degenerate; non-finite
    # extents are refused before any draw.
    with pytest.raises(ValueError, match="extent"):
        builtin_mesh("random_soup", n=5, extent=extent)
