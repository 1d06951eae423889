"""The same seed gives the same inputs."""

from bench import inputs


def test_pair_inputs_repeat_per_seed():
    assert inputs.short_pairs(7) == inputs.short_pairs(7)
    assert inputs.long_pairs(7) == inputs.long_pairs(7)
    assert inputs.short_pairs(7) != inputs.short_pairs(8)
    assert len(inputs.short_pairs(7)) == inputs.SHORT_BATCH


def test_serve_schedule_repeats_per_seed():
    phases = [(8.0, 3.0), (60.0, 1.0)]
    first = inputs.serve_schedule(7, phases)
    assert first == inputs.serve_schedule(7, phases)
    assert first != inputs.serve_schedule(8, phases)
    light, overload = first
    assert len(light) == 24 and len(overload) == 60
    sizes = {len(request.pairs) for request in light + overload}
    assert sizes == {1, inputs.SERVE_BATCH_PAIRS}
    pairs = [pair for request in light + overload for pair in request.pairs]
    assert len(set(pairs)) < len(pairs)  # some pairs repeat


def test_serve_schedule_prefix_is_length_independent():
    short, = inputs.serve_schedule(7, [(8.0, 2.0)])
    long, = inputs.serve_schedule(7, [(8.0, 5.0)])
    assert long[:len(short)] == short


def test_stream_input_repeats_per_seed(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = inputs.stream_input(7, tmp_path / "a")
    b = inputs.stream_input(7, tmp_path / "b")
    assert (a.reference, a.query, a.locus) == (b.reference, b.query, b.locus)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert inputs.stream_input(8, tmp_path / "c").reference != a.reference
    assert a.locus + len(a.query) > len(a.reference) - 2 * inputs.STREAM_TAIL


def test_stream_fasta_holds_the_reference(tmp_path):
    from repro.workloads.seqio import iter_fasta_blocks

    made = inputs.stream_input(5, tmp_path)
    assert "".join(iter_fasta_blocks(made.path, record=made.record)) == (
        made.reference)

