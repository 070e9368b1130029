import ast
import importlib
from pathlib import Path

import markovsim as ms

# the steps inside each scheme are imported from their own modules
SCHEME_STEPS = {
    "vertical": ("FnDescMode", "describe_functions", "functions_from_bits",
                 "offline_simulate", "run_vertical_exchange"),
    "scheme_random": ("Partition", "find_partition", "encode_partition",
                      "decode_partition", "split_parts"),
    "scheme_regular": ("predictor_exchange", "ParityBranch", "parity_bob",
                       "predict_last", "summarize_block_alice", "summarize_block_bob"),
}


def test_every_export_resolves_and_star_import_works():
    assert len(set(ms.__all__)) == len(ms.__all__)
    for name in ms.__all__:
        getattr(ms, name)
    namespace = {}
    exec("from markovsim import *", namespace)
    assert set(ms.__all__) <= set(namespace)
    # the payload pair is the one encoder and decoder
    assert not {"encode", "decode"} & set(ms.__all__)
    for module, names in SCHEME_STEPS.items():
        for name in names:
            assert name not in ms.__all__ and not hasattr(ms, name)
            getattr(importlib.import_module(f"markovsim.{module}"), name)


def test_vertical_send_is_the_one_send_path():
    # every coded message of every scheme crosses the channel in vertical.send
    calls, send = [], None
    for path in sorted(Path(ms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "transmit":
                calls.append((path.stem, node.lineno))
            if path.stem == "vertical" and getattr(node, "name", None) == "send":
                send = node
    assert len(calls) == 1
    module, line = calls[0]
    assert module == "vertical" and send.lineno <= line <= send.end_lineno


def test_vertical_exchange_has_one_path():
    # every code folds: one send per direction and no column loop; send has
    # no fork for random linear codes
    tree = ast.parse((Path(ms.__file__).parent / "vertical.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    exchange = list(ast.walk(funcs["run_vertical_exchange"]))
    sends = [node for node in exchange
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "send"]
    assert len(sends) == 2
    assert not any(isinstance(node, ast.For) for node in exchange)
    names = {getattr(node, "id", None) for node in ast.walk(funcs["send"])}
    assert "RandomLinear" not in names


def test_scheme1_layout_has_one_home():
    # scheme1's Part A / Part B layout is built in one place, the Part A
    # mask: split_parts reads its index arrays off it and run_scheme1 moves
    # every bit through it, with no index arrays of its own
    tree = ast.parse((Path(ms.__file__).parent / "scheme_random.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def calls(name):
        return {node.func.id for node in ast.walk(funcs[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    assert "_runs" not in funcs
    assert "_part_a_mask" in calls("split_parts")
    assert "_part_a_mask" in calls("run_scheme1") and "split_parts" not in calls("run_scheme1")


def test_find_partition_searches_the_stuck_positions():
    # the greedy partition hops by binary search over the flat stuck
    # positions, a fixed number of times: no dense next-stuck table built by
    # an accumulate, and no loop that runs until every row has ended
    tree = ast.parse((Path(ms.__file__).parent / "scheme_random.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "find_partition")
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(func)}
    assert "accumulate" not in names and "searchsorted" in names
    assert not any(isinstance(node, ast.While) for node in ast.walk(func))


def test_predictor_reads_one_suffix_parity_per_side():
    # each side's closing parity is one flat reduceat from its j: no table of
    # suffix XORs built by an accumulate and read back by gathers
    tree = ast.parse((Path(ms.__file__).parent / "scheme_regular.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {"_suffix_xor", "_at"} & set(funcs)
    names = {getattr(node, "attr", getattr(node, "id", None))
             for node in ast.walk(funcs["predictor_exchange"])}
    assert not {"accumulate", "take_along_axis"} & names


def test_decode_kernels_take_one_input_shape():
    # the kernels take per-trial (T, ...) tables only; a shared code is
    # viewed per trial by their caller, so no kernel broadcasts or reads ndim
    path = Path(ms.__file__).parent / "_kernels.py"
    tree = ast.parse(path.read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"broadcast_to", "ndim"}


def test_one_decode_path_and_one_booking_path():
    # every random-linear message takes the certified pass, so only the
    # search reads its chunk size; one routine books every message
    root = Path(ms.__file__).parent
    coding = ast.parse((root / "coding.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(coding)}
    assert "_CHUNK_ENTRIES" not in names
    tree = ast.parse((root / "vertical.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_book_columns" not in funcs
    # the functions that ask whether a ledger is a lone one
    readers = [name for name, func in funcs.items()
               if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ndim"
                      and "ledger" in ast.unparse(node) for node in ast.walk(func))]
    assert readers == ["_book"]


def test_decode_events_have_no_global_cache():
    # a miss is booked once per message or column, so no module-level cache
    # of DecodeEvents and no table of directions stands behind the log
    tree = ast.parse((Path(ms.__file__).parent / "vertical.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
             for node in ast.walk(tree)}
    assert not names & {"functools", "lru_cache", "cache", "_event", "_DIRECTIONS"}


def test_search_takes_its_sub_blocks_as_one_flat_list():
    # the decoder hands the search its sub-blocks as one list, each with its
    # trial: no zero-padded per-trial copy built by a helper, and no counts
    root = Path(ms.__file__).parent
    tree = ast.parse((root / "coding.py").read_text())
    assert "_search" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    tree = ast.parse((root / "_kernels.py").read_text())
    (search,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "ml_decode_index"]
    assert [arg.arg for arg in search.args.args] == ["codebook", "trial", "received"]


def test_every_integer_argument_goes_through_one_rule():
    # _seeds.integers decides what an integer argument is: no module tests a
    # type by hand, and no constructor loops over its seeds to check them
    root = Path(ms.__file__).parent
    for path in root.glob("*.py"):
        assert "np.issubdtype(type(" not in path.read_text()
    for module, owner, name in (("channel", "ChannelPair", "__init__"),
                                ("protocol", None, "gen_uniform_protocol"),
                                ("coding", "RandomLinear", "__post_init__")):
        tree = ast.parse((root / f"{module}.py").read_text())
        if owner is not None:
            (tree,) = [node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == owner]
        (func,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
        loops = [node.iter for node in ast.walk(func)
                 if isinstance(node, (ast.For, ast.comprehension))]
        assert not [loop for loop in loops if "seed" in ast.unparse(loop)]
        assert "integers" in ast.unparse(func)


def test_channel_noise_is_one_array_pass():
    # every row's noise is hashed at once: no Philox, no raw draws and no
    # pieces, and _noise's one loop runs over a use's 8 hash words, not over
    # rows; entropy_words takes the ints its callers checked
    root = Path(ms.__file__).parent
    tree = ast.parse((root / "channel.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"Philox", "random_raw", "_PIECE"}
    (noise,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_noise"]
    loops = [ast.unparse(node.iter) for node in ast.walk(noise)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert len(loops) == 1 and "planes" in loops[0]
    tree = ast.parse((root / "_seeds.py").read_text())
    (words,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "entropy_words"]
    assert not [node for node in ast.walk(words)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "integers"]
