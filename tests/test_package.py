"""The package namespace exports exactly the public names it imports, and
its sources integrate histories along one path and take norm tracks from
stacked segment reads."""

import ast
import inspect
from pathlib import Path

import delaystab


def test_all_lists_every_public_import():
    public = {name for name, value in vars(delaystab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(delaystab.__all__) == public | {"__version__"}
    assert len(delaystab.__all__) == len(set(delaystab.__all__))


def _calls():
    """(module, top-level function, called name, call node) for every
    call in the package sources, by bare name or as an attribute."""
    for path in sorted(Path(delaystab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield (path.stem, where, getattr(node.func, "id", None)
                           or getattr(node.func, "attr", None), node)


def _callers(name: str) -> set:
    """(module, top-level function) pairs whose code calls `name` in the
    package sources, by bare name or as an attribute."""
    return {(module, where) for module, where, called, _ in _calls()
            if called == name}


def test_every_integration_goes_through_one_path():
    """Ensembles integrate only in checkers._ensemble_blocks, the ls
    probes and Dini ladders included; the serial simulate is left to the
    single run of the CLI.  The one solution record, whole or in pieces,
    is built only where the integrator hands its rows on."""
    assert _callers("simulate_many") == {("checkers", "_ensemble_blocks"),
                                         ("dde", "simulate")}
    assert _callers("_ensemble_blocks") >= {
        ("checkers", "check_ls"), ("lyapunov", "dini_derivative"),
        ("lyapunov", "check_pointwise_dissipation")}
    assert _callers("simulate") == {("cli", "cmd_simulate")}
    assert _callers("Trajectory") == {("dde", "simulate_many")}


def test_simulate_many_hands_on_through_one_block_path():
    """take receives every piece as one _Block: simulate_many builds it
    at one call site, for all the running members or for an escaping
    member alone, and a whole trajectory is read as its block of one."""
    sites = [(module, where) for module, where, called, _ in _calls()
             if called == "_Block"]
    assert sorted(sites) == [("dde", "_block_of"), ("dde", "simulate_many")]
    assert _callers("hand_on") == {("dde", "simulate_many")}
    assert _callers("take") == {("dde", "simulate_many")}
    assert _callers("_block_of") == {("checkers", "_track"),
                                     ("dde", "_segment_nodes")}


def _referrers(name: str) -> set:
    """(module, top-level function) pairs whose code names `name` as a
    value, called or passed on."""
    found = set()
    for path in sorted(Path(delaystab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            if any(isinstance(node, ast.Name) and node.id == name
                   for node in ast.walk(top)):
                found.add((path.stem, where))
    return found


def test_norm_tracks_read_stacked_segments():
    """Norm and functional tracks, pair distances and Dini ladders read
    the segments x_t of many times of a block member as one stack
    (dde._block_nodes) through the one track primitive, and tracks and
    pair distances take their norms across it (segment._norms), as the
    sampler norms its stacks of candidates and the norms command its
    stack of samples; the per-segment segment_at and space_norm are left
    to single segments, of which they are the batches of one."""
    assert _callers("_block_nodes") == {("dde", "_segment_nodes"),
                                        ("checkers", "_segment_stacks")}
    assert _callers("_segment_nodes") == {("dde", "segment_at")}
    # every track that is no window max reads chunks of stacked segments:
    # the reads of an ensemble, block piece by block piece, and whole
    # trajectories as blocks of one
    assert _callers("_segment_stacks") == {("checkers", "_block_track")}
    assert _callers("_block_track") == {("checkers", "_Reader"),
                                        ("checkers", "_track")}
    assert _callers("_track") == {("checkers", "_Read")}
    # space_norm is the batch of one of _norms, and a segment keeps no
    # read of its own for a second path to norm
    # the pair distances norm their stacks in _segment_chunk pieces
    assert _callers("_norms") == {("checkers", "_stack_norms"),
                                  ("cli", "cmd_norms"),
                                  ("sampler", "sample_many"),
                                  ("segment", "space_norm")}
    assert not hasattr(delaystab.segment, "_read_norms")
    # norm reads and space-norm functionals hand _norms to the track
    assert _referrers("_norms") - _callers("_norms") == {
        ("checkers", "_norm_read"), ("lyapunov", "_stacked")}
    # no track reads its segments one time at a time
    assert _callers("segment_at") == {("cli", "cmd_simulate")}
    assert _callers("space_norm") == {
        ("checkers", "_pair_report"),  # the initial distance only
        ("cli", "cmd_simulate"),
        ("lyapunov", "functional_lipschitz_probe"),
        ("segment", "sup_norm")}
    # samples are drawn in stacks, inside the package in the bounded
    # stacks of dde._sample_stacks; sample_one is the stack of one, left
    # to the one history of the simulate command
    assert _callers("sample_many") == {("dde", "_sample_stacks"),
                                       ("sampler", "sample_one")}
    assert _callers("sample_one") == {("cli", "_history_segment")}


def test_one_hoelder_kernel():
    """The Hoelder seminorm has one kernel, the pruned lag sweep, which
    the stacked norms and the per-segment seminorm share; the full lag
    profile it replaced is gone."""
    assert _callers("_hoelder_norms") == {("segment", "_norms"),
                                          ("segment", "hoelder_seminorm")}
    assert _callers("_lag_profiles") == set()
    assert not hasattr(delaystab.segment, "_lag_profiles")


def test_one_locate_rule_and_one_cell_read():
    """A time is placed in a history cell by segment._locate alone, for
    segments, uniform refined reads, the integrator's history reads and
    segment_at; the scalar fast path _point_read follows its rule and is
    tested bitwise against it.  One cell read, segment._cell_reads,
    gathers the node rows of every array read, history and forward, and
    the Hermite formulas are called nowhere else."""
    assert not hasattr(delaystab.segment, "_points_read")
    assert not hasattr(delaystab.segment, "_cells")
    readers = {("segment", "Segment"), ("dde", "_SolutionView"),
               ("dde", "_block_nodes")}
    assert _callers("_locate") == readers | {("segment", "_uniform_grid")}
    assert _callers("_cell_reads") == readers | {("segment",
                                                  "_uniform_reads")}
    assert _callers("_hermite") == {("segment", "_cell_reads"),
                                    ("segment", "_point_read")}
    assert _callers("_hermite_slope") == {("segment", "_cell_reads")}
    assert _callers("_point_read") == {("segment", "Segment")}


def test_stages_are_scheduled_in_one_place():
    """The block view plans by stage number: dde._stages is the one stage
    schedule, which only _SolutionView calls, the view always has a mesh
    and set_stage takes a stage number, and no package code keeps a
    stage or settled time of its own."""
    view = delaystab.dde._SolutionView
    assert _callers("_stages") == {("dde", "_SolutionView")}
    mesh = inspect.signature(view).parameters["mesh"]
    assert mesh.default is inspect.Parameter.empty
    assert list(inspect.signature(view.set_stage).parameters) \
        == ["self", "q", "stage_value"]
    names = set()
    for path in Path(delaystab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names.add(getattr(node, "id", None) or getattr(node, "attr", None)
                      or getattr(node, "arg", None))
    assert not names & {"stage_time", "settled_time", "t_k"}
    assert "settled" not in view.__slots__


def _passing(name: str, keyword: str, position: int) -> set:
    """(module, top-level function) pairs whose code calls `name`, or
    binds it with functools.partial, passing the parameter `keyword` by
    name or at 0-based `position`."""
    found = set()
    for module, where, called, node in _calls():
        args = node.args
        if called == "partial" and args:
            called, args = getattr(args[0], "id", None), args[1:]
        if called == name and (len(args) > position or any(
                kw.arg == keyword for kw in node.keywords)):
            found.add((module, where))
    return found


def test_only_uga_reads_norms_at_a_level():
    """A value read at a level is exact only against that level, so only
    check_uga, which judges nothing else of the times it reads so, may
    ask for one.  The exact consumers of norm reads (the shell pass of
    the envelope fits and lift, rfc, lags, ls, ga, the pair bounds and
    the sampler) pass none, and the level reaches the Hoelder sweep only
    as its cap."""
    assert _passing("_norm_read", "level", 3) == {("checkers", "check_uga")}
    assert _passing("_norms", "level", 6) == {("checkers", "_norm_read")}
    assert _passing("_hoelder_norms", "cap", 4) == {("segment", "_norms")}
    exact = {("checkers", name) for name in (
        "_shell_pass", "check_rfc", "check_lags", "check_ls", "check_ga")}
    assert exact < _callers("_norm_read")
    assert ("checkers", "_stack_norms") in _callers("_norms")
    assert ("sampler", "sample_many") in _callers("_norms")


def test_composite_integrates_through_no_other_checker():
    """check_gas_vs_ugas runs the ls bisection through check_ls and judges
    ga, rfc and the envelope on its own single pass, so it calls none of
    the checkers that would integrate those balls again."""
    composite = ("checkers", "check_gas_vs_ugas")
    assert composite in _callers("check_ls")
    for name in ("check_ga", "check_rfc", "fit_kl_envelope", "check_lags",
                 "check_uga", "check_envelope_lift"):
        assert composite not in _callers(name), name


def test_falsified_reports_come_from_one_helper_a_format():
    """Every witness is built by checkers._falsified, the falsified
    report of the checkers (an escape by default), and the certificate
    checks' reports by lyapunov._failed on top of it (also an escape by
    default); the per-check report builder it replaced is gone."""
    assert _callers("_witness") == {("checkers", "_falsified")}
    assert _callers("_falsified") == {
        ("checkers", name) for name in (
            "_rfc_report", "_peak", "check_ls", "_ga_report",
            "_pair_report", "_lift_report")} | {("lyapunov", "_failed")}
    assert not hasattr(delaystab.lyapunov, "_falsifier")


def test_a_sample_stack_keys_one_generator(monkeypatch):
    """sample_many builds one Philox bit generator a call, whatever the
    stack, and re-keys it for each index."""
    made = []
    real = delaystab.sampler.Philox

    def counting(*args, **kwargs):
        made.append(args or kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(delaystab.sampler, "Philox", counting)
    cfg = delaystab.SamplerConfig(
        family="piecewise_linear", order=2,
        target_space=delaystab.SpaceSpec.sup(), target_norm=1.0,
        dimension=2, delay_r=1.0, seed=3, n_nodes=33)
    for indices in ([4], range(15), [9, 2**64 - 1, 9, 0]):
        made.clear()
        delaystab.sample_many(cfg, indices)
        assert len(made) == 1


def test_growth_prolongations_share_their_stack_read(monkeypatch):
    """On the growth config of the certificates benchmark workload (80
    samples in 6 stacks, U a weighted sup) U(x0) and the prolongation
    sups of a stack come from one refined read of it: 6 uniform reads,
    where reading the stack for each made 12."""
    from delaystab import dde, lyapunov, segment
    sys = delaystab.make_system("linear_scalar", 1.0, {"a": 0.0, "b": 1.0})
    cfg = delaystab.SamplerConfig(
        family="fourier", order=3, target_space=delaystab.SpaceSpec.sup(),
        target_norm=1.0, dimension=1, delay_r=1.0, seed=0, n_nodes=65)
    stacks = list(dde._sample_stacks(cfg, range(80)))
    assert len(stacks) == 6
    reads = []
    real = segment._uniform_reads

    def counting(*args, **kwargs):
        reads.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(segment, "_uniform_reads", counting)
    monkeypatch.setattr(lyapunov, "_uniform_reads", counting, raising=False)
    list(lyapunov._prolonged(sys, delaystab.weighted_sup(1.0), stacks,
                             lyapunov._dini_steps(1.0)))
    assert [shape[0] for shape in reads] == [len(xs) for xs in stacks]


JUDGES = ("_prolongation_report", "_growth_report", "_dini_report",
          "_dissipation_report", "_exponential_report")
# the checkers' judges that loop over an ensemble pass, and the ls probe
CHECKER_JUDGES = ("_rfc_report", "_peak", "_ga_report", "_pair_report",
                  "probe")


def test_certificate_judges_take_a_stack_at_a_time():
    """Each certificate judge loops once, over its sample stacks or its
    ensemble blocks, and judges the samples of one as arrays: it has no
    loop over single runs or samples.  So do the checkers' judges of rfc,
    lags and uga (_peak), ga and the pair bounds, and the ls probe."""
    judges = {}
    for module, names in ((delaystab.lyapunov, JUDGES),
                          (delaystab.checkers, CHECKER_JUDGES)):
        tree = ast.parse(inspect.getsource(module))
        judges.update({node.name: node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and node.name in names})
    assert sorted(judges) == sorted(JUDGES + CHECKER_JUDGES)
    for name, judge in judges.items():
        loops = [node for node in ast.walk(judge)
                 if isinstance(node, (ast.For, ast.While))]
        assert len(loops) == 1, name
        (loop,) = loops
        assert isinstance(loop.iter, ast.Name), name
        assert loop.iter.id in ("stacks", "blocks"), name
        if name != "probe":  # the probe's blocks are its own pass
            assert loop.iter.id == judge.args.args[-1].arg, name


def test_ensembles_yield_blocks_only():
    """An ensemble yields blocks and every judge reads their arrays: the
    run-at-a-time view, the re-stacking of its runs and the scalar path
    of grid functions are gone."""
    assert not hasattr(delaystab.checkers, "_Run")
    assert not hasattr(delaystab.checkers, "_ensemble")
    assert not hasattr(delaystab.lyapunov, "_stacked_runs")
    assert not hasattr(delaystab.MonotoneGridFn.linear(1.0), "_ends")
