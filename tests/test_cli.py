import json

import pctree as pt
from pctree.cli import main
from pctree.serialize import read_circuit, write_circuit


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_hard_then_stats(tmp_path, capsys):
    path = str(tmp_path / "hard.json")
    assert main(["gen-hard", "--k", "1", "--out", path]) == 0
    code, out, _ = run(capsys, "stats", "--in", path)
    assert code == 0
    assert "nodes=11" in out and "depth=2" in out


def test_stats_csv(tmp_path, capsys):
    path = str(tmp_path / "hard.json")
    main(["gen-hard", "--k", "1", "--out", path])
    code, out, _ = run(capsys, "stats", "--in", path, "--csv")
    assert code == 0
    assert out == "stage,nodes,edges,depth\ncircuit,11,10,2\n"


def test_gen_random_treeify_equiv_roundtrip(tmp_path, capsys):
    src = str(tmp_path / "in.json")
    dst = str(tmp_path / "tree.json")
    assert main(["gen-random", "--n", "8", "--seed", "7", "--reuse", "0.5",
                 "--out", src]) == 0
    code, out, _ = run(capsys, "transform", "--pass", "treeify", "--in", src,
                       "--out", dst)
    assert code == 0
    assert "reduce_depth.depth=" in out
    code, out, _ = run(capsys, "equiv", "--a", src, "--b", dst, "--exact")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run(capsys, "equiv", "--a", src, "--b", dst,
                       "--trials", "32", "--seed", "5")
    assert code == 0 and out == "EQUAL\n"


def test_equiv_detects_difference(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["gen-random", "--n", "4", "--seed", "3", "--out", a])
    c = read_circuit(a)
    nodes = list(c.nodes)
    v = next(i for i, node in enumerate(nodes) if isinstance(node, pt.Sum))
    nodes[v] = pt.Sum(nodes[v].children,
                      (nodes[v].weights[0] * 1.2,) + nodes[v].weights[1:])
    write_circuit(pt.build_circuit(c.num_vars, nodes, c.root), b)
    code, out, _ = run(capsys, "equiv", "--a", a, "--b", b, "--trials", "16", "--seed", "0")
    assert code == 1 and out == "UNEQUAL\n"
    code, out, _ = run(capsys, "equiv", "--a", a, "--b", b, "--exact")
    assert code == 1 and out == "UNEQUAL\n"


def test_equiv_modes_agree_on_corpus_pairs(tmp_path, capsys):
    from pctree.transforms import treeify

    for seed in (0, 1, 2):
        c = pt.random_valid_pc(pt.GenParams(n=6, seed=seed, reuse_prob=0.4))
        tree, _ = treeify(c)
        nodes = list(c.nodes)
        v = next(i for i, node in enumerate(nodes) if isinstance(node, pt.Sum))
        nodes[v] = pt.Sum(nodes[v].children,
                          (nodes[v].weights[0] + 0.2,) + nodes[v].weights[1:])
        mutated = pt.build_circuit(c.num_vars, nodes, c.root)
        base = tmp_path / f"c{seed}.json"
        write_circuit(c, base)
        for name, other in (("tree", tree), ("mut", mutated)):
            path = tmp_path / f"{name}{seed}.json"
            write_circuit(other, path)
            exact_code, exact_out, _ = run(capsys, "equiv", "--a", str(base),
                                           "--b", str(path), "--exact")
            trial_code, trial_out, _ = run(capsys, "equiv", "--a", str(base),
                                           "--b", str(path), "--trials", "64",
                                           "--seed", "1")
            assert exact_code == trial_code
            assert exact_out == trial_out


def test_check_exit_codes(tmp_path, capsys):
    good = str(tmp_path / "good.json")
    main(["gen-random", "--n", "4", "--seed", "0", "--out", good])
    code, out, _ = run(capsys, "check", "--in", good)
    assert code == 0
    assert "decomposable=true" in out and "smooth=true" in out

    bad = str(tmp_path / "bad.json")
    doc = {"version": 1, "num_vars": 1, "root": 2, "nodes": [
        {"id": 0, "kind": "leaf", "var": 0},
        {"id": 1, "kind": "leaf", "var": 0},
        {"id": 2, "kind": "product", "children": [0, 1]},
    ]}
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run(capsys, "check", "--in", bad)
    assert code == 1
    assert "decomposable=false" in out
    assert "witness.decomposable=node 2" in out


def test_transform_single_passes(tmp_path, capsys):
    src = str(tmp_path / "in.json")
    main(["gen-hard", "--k", "1", "--out", src])
    out_path = str(tmp_path / "norm.json")
    code, out, _ = run(capsys, "transform", "--pass", "normalize", "--in", src,
                       "--out", out_path)
    assert code == 0
    assert "root_constant=2.0" in out
    assert read_circuit(out_path).validity().normalized

    bin_path = str(tmp_path / "bin.json")
    code, out, _ = run(capsys, "transform", "--pass", "binarize", "--in", src,
                       "--out", bin_path)
    assert code == 0
    assert read_circuit(bin_path).is_binary()

    reduced = str(tmp_path / "red.json")
    code, _, _ = run(capsys, "transform", "--pass", "reduce-depth", "--in", bin_path,
                     "--out", reduced)
    assert code == 0
    dup = str(tmp_path / "dup.json")
    code, _, _ = run(capsys, "transform", "--pass", "duplicate", "--in", reduced,
                     "--out", dup)
    assert code == 0
    assert read_circuit(dup).stats().is_tree


def test_transform_treeify_normalized(tmp_path, capsys):
    src = str(tmp_path / "in.json")
    dst = str(tmp_path / "tree.json")
    main(["gen-random", "--n", "6", "--seed", "2", "--reuse", "0.4", "--out", src])
    code, out, _ = run(capsys, "transform", "--pass", "treeify", "--in", src,
                       "--out", dst, "--normalize-output")
    assert code == 0
    assert "normalize.nodes=" in out and "root_constant=" in out
    assert read_circuit(dst).validity().normalized


def test_gen_hard_strip_negations(tmp_path, capsys):
    path = str(tmp_path / "stripped.json")
    assert main(["gen-hard", "--k", "2", "--strip-negations", "--out", path]) == 0
    c = read_circuit(path)
    assert len(c.nodes) == 63 - 32
    assert pt.poly_equal(pt.extract_polynomial(c), pt.pairing_polynomial(2), 0.0)


def test_export_dot(tmp_path):
    src = str(tmp_path / "in.json")
    dot = str(tmp_path / "out.dot")
    main(["gen-hard", "--k", "1", "--out", src])
    assert main(["export-dot", "--in", src, "--out", dot]) == 0
    with open(dot, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("digraph circuit {")
    assert text.count("->") == 10


def test_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        main(["gen-random", "--n", "6", "--seed", "9", "--reuse", "0.3",
              "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()
    ta, tb = tmp_path / "ta.json", tmp_path / "tb.json"
    outputs = []
    for src, dst in ((a, ta), (b, tb)):
        main(["transform", "--pass", "treeify", "--in", str(src), "--out", str(dst)])
        outputs.append(capsys.readouterr().out)
    assert ta.read_bytes() == tb.read_bytes()
    assert outputs[0] == outputs[1]


def test_usage_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["gen-random", "--out", "x.json"]) == 2  # missing --n
    src = str(tmp_path / "in.json")
    main(["gen-hard", "--k", "1", "--out", src])
    code = main(["transform", "--pass", "binarize", "--in", src,
                 "--out", str(tmp_path / "o.json"), "--normalize-output"])
    assert code == 2
    capsys.readouterr()


def test_module_errors_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--in", str(tmp_path / "missing.json"))
    assert code == 1 and err.startswith("error:")
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, _, err = run(capsys, "check", "--in", str(broken))
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "gen-hard", "--k", "0", "--out", str(tmp_path / "h.json"))
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "gen-random", "--n", "4", "--reuse", "1.5",
                       "--out", str(tmp_path / "r.json"))
    assert code == 1 and err.startswith("error:")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["gen-random", "--n", "4", "--seed", "1", "--out", a])
    main(["gen-random", "--n", "4", "--seed", "2", "--out", b])
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--trials", trials)
        assert code == 1 and out == "" and err.startswith("error:")
    overflow = str(tmp_path / "overflow.json")
    write_circuit(pt.build_circuit(1, [pt.Leaf(0), pt.Leaf(0, True),
                                       pt.Sum((0, 1), (1e308, 1e308))], 2), overflow)
    code, _, err = run(capsys, "transform", "--pass", "normalize", "--in", overflow,
                       "--out", str(tmp_path / "n.json"))
    assert code == 1 and err.startswith("error:")


def test_term_budget_env(tmp_path, capsys, monkeypatch):
    a = str(tmp_path / "a.json")
    main(["gen-hard", "--k", "2", "--out", a])
    monkeypatch.setenv("PC_TERM_BUDGET", "4")
    code, _, err = run(capsys, "equiv", "--a", a, "--b", a, "--exact")
    assert code == 1 and "error:" in err
    monkeypatch.delenv("PC_TERM_BUDGET")
    code, out, _ = run(capsys, "equiv", "--a", a, "--b", a, "--exact")
    assert code == 0 and out == "EQUAL\n"