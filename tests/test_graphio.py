import numpy as np
import pytest

from ktsbm import (
    Graph,
    GraphFormatError,
    LabelVector,
    SbmParams,
    read_graph_file,
    read_labels_file,
    sample_sbm,
    write_graph_file,
    write_labels_file,
)


def test_graph_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g = Graph(9, rng.random(36) < 0.5)
    path = tmp_path / "g.txt"
    write_graph_file(path, g)
    assert read_graph_file(path) == g


def test_empty_graph_header(tmp_path):
    params = SbmParams(k=1, pi=[1.0], P=[[0.0]])
    _, g = sample_sbm(params, 4, 0)
    path = tmp_path / "g.txt"
    write_graph_file(path, g)
    assert path.read_text().splitlines()[0] == "4 0"


def test_lf_endings_and_determinism(tmp_path):
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    _, g = sample_sbm(params, 20, 3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_graph_file(p1, g)
    write_graph_file(p2, g)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert b"\r" not in data


@pytest.mark.parametrize(
    "body,msg",
    [
        ("3 1\n3 3\n", "line 2"),          # self loop
        ("3 2\n1 2\n1 2\n", "line 3"),     # duplicate
        ("3 1\n2 1\n", "line 2"),          # i >= j
        ("3 1\n1 4\n", "line 2"),          # out of range
        ("3 2\n1 2\n", "header"),          # wrong edge count
        ("3 1\n1 x\n", "line 2"),          # non-integer
        ("3 2\n1 2\n\n2 3\n", "line 3"),   # blank line inside the edge list
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, body, msg):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(GraphFormatError) as err:
        read_graph_file(path)
    assert msg in str(err.value)


def test_labels_round_trip(tmp_path):
    z = LabelVector([1, 2, 2, 1, 3], 3)
    path = tmp_path / "z.txt"
    write_labels_file(path, z)
    back = read_labels_file(path, k=3)
    assert back == z
    assert path.read_text() == "1\n2\n2\n1\n3\n"


def test_labels_errors_name_the_physical_line(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1\n\n2\nx\n")
    with pytest.raises(GraphFormatError, match="line 4") as err:
        read_labels_file(path)
    assert err.value.line == 4


def test_labels_validation(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1\n0\n")
    with pytest.raises(GraphFormatError):
        read_labels_file(path)
