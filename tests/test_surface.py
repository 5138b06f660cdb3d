"""The public surface: one array-in function per closed-form state family
and per eigensolve measure, plain-array states, the exported names, the
input errors of every argument that takes numbers, the empty results of
empty stacks, the rows of a sequence of parameter sets, and the modules
that may use the single-matrix object layer of ``spectra``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import strongcouple
from strongcouple import channels
from strongcouple.errors import InputError
from strongcouple.infomeasures import negativities, von_neumann_entropies
from strongcouple.spectra import partial_trace

# Every name strongcouple exports. A name added to or removed from
# __all__ must be added to or removed from this list too.
PUBLIC_NAMES = [
    "BlochSeries",
    "DensityOperator",
    "ExperimentConfig",
    "ExperimentResult",
    "GadcParams",
    "HermitianOperator",
    "InfoSeries",
    "InputError",
    "NumericalError",
    "SpectralDecomposition",
    "StrongcoupleError",
    "SweepSummary",
    "ThermoTrajectory",
    "TrackingError",
    "apply_channel",
    "bloch_entropies",
    "density_stack",
    "eig_hermitian",
    "environment_bloch",
    "environment_initial_state",
    "environment_kraus",
    "environment_states",
    "gadc_coupling_matrix",
    "gadc_unitary",
    "heat_asymmetry",
    "iterate_map_check",
    "joint_initial_state",
    "joint_negativities_closed_form",
    "joint_radii_closed_form",
    "joint_states",
    "joint_states_closed_form",
    "markov_convergence",
    "negativities",
    "partial_trace",
    "partial_transpose_stack",
    "qubit_thermo_trajectory",
    "run",
    "sweep",
    "system_bloch",
    "system_initial_state",
    "system_kraus",
    "system_state_from_dilation",
    "system_states",
    "thermo_trajectory",
    "von_neumann_entropies",
]

BUILDERS = [channels.system_states, channels.environment_states,
            channels.joint_states, channels.joint_states_closed_form]

MEASURES = [von_neumann_entropies, negativities]

# one bad two-qubit state per check a density operator must pass
BAD_STATES = {
    "non_hermitian": np.eye(4) / 4.0 + np.diag([0.1, 0.1, 0.1], k=1),
    "trace": np.eye(4) * 0.3,
    "negative_eigenvalue": np.diag([0.6, 0.3, 0.3, -0.2]),
}
BAD_MESSAGES = {"non_hermitian": "not Hermitian", "trace": "trace",
                "negative_eigenvalue": "eigenvalue"}


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert strongcouple.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(strongcouple, name)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
def test_scalar_time_is_the_array_row(builder):
    pr = channels.GadcParams(alpha=0.6, w0=0.8, gamma_rate=1.3)
    grid = np.linspace(0.0, 8.0, 17)
    stack = builder(pr, grid)
    n = stack.shape[-1]
    assert stack.shape == (17, n, n)
    assert np.array_equal(builder(pr, grid.reshape(1, 17)), stack[None])
    for t, row in zip(grid, stack):
        single = builder(pr, float(t))
        assert single.shape == (n, n)
        assert np.array_equal(single, row)
    with pytest.raises(InputError, match="time must be nonnegative, got nan"):
        builder(pr, math.nan)


@pytest.mark.parametrize("measure", MEASURES, ids=lambda f: f.__name__)
def test_single_state_is_the_stack_element(measure):
    pr = channels.GadcParams(alpha=0.6, w0=0.8)
    joints = channels.joint_states_closed_form(pr, np.linspace(0.0, 8.0, 17))
    values = measure(joints)
    assert values.shape == (17,)
    for joint, value in zip(joints, values):
        single = measure(joint)
        assert single.shape == ()
        assert float(single) == value


@pytest.mark.parametrize("bad", sorted(BAD_STATES))
@pytest.mark.parametrize("measure", MEASURES, ids=lambda f: f.__name__)
def test_measure_rejects_what_a_density_check_rejects(measure, bad):
    state = BAD_STATES[bad]
    with pytest.raises(InputError, match=BAD_MESSAGES[bad]):
        measure(state)
    with pytest.raises(InputError, match=BAD_MESSAGES[bad]):
        measure(np.stack([np.eye(4) / 4.0, state]))


PARAMS = channels.GadcParams(alpha=0.6, w0=0.8, gamma_rate=1.3)
GRID = np.linspace(0.0, 1.0, 9)
SERIES = [0.1, 0.2]

# every function that takes states, applied to one argument
STATE_INPUTS = {
    "density_stack": strongcouple.density_stack,
    "negativities": negativities,
    "von_neumann_entropies": von_neumann_entropies,
    "partial_trace": lambda states: partial_trace(states, keep=0),
    "apply_channel": lambda states: channels.apply_channel(
        channels.system_kraus(channels.GadcParams(alpha=0.6, w0=0.8), 0.3),
        states),
    "thermo_trajectory": lambda states: strongcouple.thermo_trajectory(
        states, np.linspace(0.0, 1.0, 3)),
    "partial_transpose_stack": strongcouple.partial_transpose_stack,
    "HermitianOperator": strongcouple.HermitianOperator,
    "DensityOperator": strongcouple.DensityOperator,
    "eig_hermitian": strongcouple.eig_hermitian,
}
# every function that takes the Bloch radii of qubit states
RADII_INPUTS = {"bloch_entropies": strongcouple.bloch_entropies}
CLOSED_FORMS = [
    channels.system_states, channels.environment_states,
    channels.joint_states, channels.joint_states_closed_form,
    channels.system_bloch, channels.environment_bloch,
    channels.joint_radii_closed_form, channels.joint_negativities_closed_form]
STEP_BUILDERS = [channels.system_kraus, channels.environment_kraus,
                 channels.system_state_from_dilation]
# every other argument that takes an array of numbers, applied to one
ARRAY_INPUTS = {
    **{f"{f.__name__}.times": lambda x, f=f: f(PARAMS, x)
       for f in CLOSED_FORMS},
    "gadc_unitary.p": channels.gadc_unitary,
    "gadc_coupling_matrix.p": channels.gadc_coupling_matrix,
    **{f"{f.__name__}.p": lambda x, f=f: f(PARAMS, x)
       for f in STEP_BUILDERS},
    "markov_convergence.t": lambda x: strongcouple.markov_convergence(
        PARAMS, t=x),
    "thermo_trajectory.times": lambda x: strongcouple.thermo_trajectory(
        channels.system_states(PARAMS, GRID), x),
    "heat_asymmetry.heat_system":
        lambda x: strongcouple.heat_asymmetry(x, SERIES),
    "heat_asymmetry.heat_environment":
        lambda x: strongcouple.heat_asymmetry(SERIES, x),
    "apply_channel.operators": lambda x: channels.apply_channel(
        x, np.eye(2) / 2.0),
}
# every argument and field that takes one number
SCALAR_INPUTS = {
    "iterate_map_check.t": lambda x: channels.iterate_map_check(
        PARAMS, x, 10),
    "iterate_map_check.n_steps": lambda x: channels.iterate_map_check(
        PARAMS, 1.0, x),
    "markov_convergence.step_counts": lambda x:
        strongcouple.markov_convergence(PARAMS, step_counts=(10, x)),
    "thermo_trajectory.closure_tolerance":
        lambda x: strongcouple.thermo_trajectory(
            channels.system_states(PARAMS, GRID), GRID, closure_tolerance=x),
    "GadcParams.from_inverse_temperature.beta":
        lambda x: channels.GadcParams.from_inverse_temperature(0.6, x),
    **{f"GadcParams.{name}": lambda x, name=name: channels.GadcParams(
        **{"alpha": 0.6, "w0": 0.8, name: x}) for name in (
            "alpha", "w0", "gamma_rate")},
    **{f"ExperimentConfig.{name}":
       lambda x, name=name: strongcouple.ExperimentConfig(**{name: x})
       for name in ("alpha", "beta", "gamma", "t_max", "n_samples")},
}
# Every public argument that takes numbers, with the phrase of the
# InputError it raises on input that is no number. A slot that takes
# states or Bloch radii is named by its function, any other by its
# function and argument.
SLOTS = {
    **{name: (call, "expected a numeric array") for name, call in {
        **STATE_INPUTS, **RADII_INPUTS, **ARRAY_INPUTS}.items()},
    **{name: (call, "must be a real number")
       for name, call in SCALAR_INPUTS.items()},
    "partial_trace.keep": (lambda x: partial_trace(
        channels.joint_states(PARAMS, GRID), keep=x), "keep must be"),
}
# numpy parses numeric text, which no slot may do
NOT_NUMERIC = {"text": "abc", "numeric_text": "0.5",
               "numeric_text_list": ["0.5", "0.5"],
               "object_text": np.array(["0.5"], dtype=object),
               "callable": lambda t: t, "ragged": [[1, 0], [0]],
               "huge": 10 ** 400, "bool": True,
               "bool_array": np.array([True, False]),
               "bool_list": [True, 0.5]}
MALFORMED = {**NOT_NUMERIC, "none": None, "pair": np.array([1.0, 2.0])}


@pytest.mark.parametrize("bad", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(SLOTS))
def test_state_input_must_be_numeric(name, bad):
    """A malformed argument is accepted or is bad input, whatever numpy
    or Python says; input that is no number is refused, naming the cause.
    """
    call, phrase = SLOTS[name]
    try:
        call(MALFORMED[bad])
    except InputError as exc:
        assert bad not in NOT_NUMERIC or phrase in str(exc)
    else:
        assert bad not in NOT_NUMERIC


# what run and sweep are given instead of configurations, with the
# message of the InputError each raises
NOT_CONFIGS = {
    "run_none": (lambda: strongcouple.run(None),
                 "run needs an ExperimentConfig, got NoneType"),
    "run_int": (lambda: strongcouple.run(1),
                "run needs an ExperimentConfig, got int"),
    "run_dict": (lambda: strongcouple.run({"alpha": 0.5}),
                 "run needs an ExperimentConfig, got dict"),
    "sweep_int_item": (lambda: strongcouple.sweep([1]),
                       "sweep item 0 needs an ExperimentConfig, got int"),
    "sweep_dict_item": (lambda: strongcouple.sweep(
        [strongcouple.ExperimentConfig(n_samples=11), {"alpha": 0.5}]),
        "sweep item 1 needs an ExperimentConfig, got dict"),
    "sweep_none": (lambda: strongcouple.sweep(None), "sweep needs a "
                   "sequence of ExperimentConfig, got NoneType"),
    "sweep_int": (lambda: strongcouple.sweep(5),
                  "sweep needs a sequence of ExperimentConfig, got int"),
}


@pytest.mark.parametrize("name", sorted(NOT_CONFIGS))
def test_run_and_sweep_take_only_configurations(name):
    call, message = NOT_CONFIGS[name]
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


# every function that maps a stack, given a stack of no states or no
# times, and the shape of its empty result
NO_STATES = np.zeros((0, 4, 4))
EMPTY_STACKS = {
    "density_stack": (lambda: strongcouple.density_stack(NO_STATES),
                      (0, 4, 4)),
    "negativities": (lambda: negativities(NO_STATES), (0,)),
    "von_neumann_entropies": (lambda: von_neumann_entropies(NO_STATES), (0,)),
    "partial_trace": (lambda: partial_trace(NO_STATES, keep=0), (0, 2, 2)),
    "partial_transpose_stack": (
        lambda: strongcouple.partial_transpose_stack(NO_STATES), (0, 4, 4)),
    "apply_channel": (lambda: channels.apply_channel(
        channels.system_kraus(PARAMS, 0.3), NO_STATES[:, :2, :2]), (0, 2, 2)),
    "bloch_entropies": (lambda: strongcouple.bloch_entropies([]), (0,)),
    "joint_negativities_closed_form": (
        lambda: channels.joint_negativities_closed_form(PARAMS, []), (0,)),
    **{f.__name__: (lambda f=f: f(PARAMS, []), (0, n, n)) for f, n in zip(
        BUILDERS, (2, 2, 4, 4))},
}


@pytest.mark.parametrize("name", sorted(EMPTY_STACKS))
def test_empty_stack_gives_an_empty_result(name):
    call, shape = EMPTY_STACKS[name]
    result = call()
    assert type(result) is np.ndarray
    assert result.shape == shape


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)])
@pytest.mark.parametrize("call", [
    strongcouple.density_stack, von_neumann_entropies,
    strongcouple.HermitianOperator, strongcouple.eig_hermitian],
    ids=lambda f: f.__name__)
def test_matrices_of_size_zero_refused(call, shape):
    with pytest.raises(InputError, match="nonempty square matrix"):
        call(np.zeros(shape))


# every library function that returns a state
STATE_FUNCTIONS = {
    "apply_channel": lambda: channels.apply_channel(
        channels.system_kraus(PARAMS, 0.3),
        channels.system_initial_state(PARAMS)),
    "system_initial_state": lambda: channels.system_initial_state(PARAMS),
    "environment_initial_state":
        lambda: channels.environment_initial_state(PARAMS),
    "joint_initial_state": lambda: channels.joint_initial_state(PARAMS),
    "iterate_map_check": lambda: channels.iterate_map_check(PARAMS, 1.0, 10),
    "system_state_from_dilation":
        lambda: channels.system_state_from_dilation(PARAMS, 0.3),
    "partial_trace": lambda: partial_trace(
        channels.joint_initial_state(PARAMS), keep=1),
}


@pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
def test_states_are_plain_arrays(name):
    state = STATE_FUNCTIONS[name]()
    assert type(state) is np.ndarray
    assert state.shape in ((2, 2), (4, 4))


# the functions that map a stack, and a stack to map: times for the
# state builders, decay probabilities for the dilation
STACK_CALLS = {
    "apply_channel": (
        lambda x: channels.apply_channel(
            channels.environment_kraus(PARAMS, 0.3), x),
        channels.system_states(PARAMS, GRID)),
    "partial_trace_keep_0": (
        lambda x: partial_trace(x, keep=0),
        channels.joint_states_closed_form(PARAMS, GRID)),
    "partial_trace_keep_1": (
        lambda x: partial_trace(x, keep=1),
        channels.joint_states_closed_form(PARAMS, GRID)),
    "system_state_from_dilation": (
        lambda x: channels.system_state_from_dilation(PARAMS, x), GRID),
}


@pytest.mark.parametrize("name", sorted(STACK_CALLS))
def test_stack_is_the_single_calls(name):
    call, inputs = STACK_CALLS[name]
    stack = call(inputs)
    assert type(stack) is np.ndarray
    assert stack.shape == (9, 2, 2)
    for x, row in zip(inputs, stack):
        assert np.array_equal(call(x), row)


# two parameter sets, as a sequence, and times to give them
SEQUENCE = [PARAMS, channels.GadcParams(alpha=0.3, w0=0.55, gamma_rate=0.7)]
SEQUENCE_TIMES = [0.0, 0.5, 1.0]
BLOCH_FIELDS = ("times", "keep", "step", "x2", "radius", "populations")


@pytest.mark.parametrize("form", CLOSED_FORMS, ids=lambda f: f.__name__)
def test_sequence_of_parameter_sets_gives_one_row_each(form):
    """Given a sequence of ``R`` parameter sets, a closed form returns
    ``(R, T)`` rows, and row ``i`` is the call on set ``i`` alone, bit
    for bit; a coefficient of a Bloch series is a column, or a float
    that all rows share."""
    together = form(SEQUENCE, SEQUENCE_TIMES)
    for i, params in enumerate(SEQUENCE):
        alone = form(params, SEQUENCE_TIMES)
        if isinstance(alone, channels.BlochSeries):
            pairs = [(getattr(together, f)[i], getattr(alone, f))
                     for f in BLOCH_FIELDS]
            pairs += [(np.ravel(c)[i % np.size(c)], a) for c, a in zip(
                together.coefficients, alone.coefficients)]
        else:
            pairs = [(together[i], alone)]
        for a, b in pairs:
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    rows = (together.keep if isinstance(together, channels.BlochSeries)
            else together)
    assert rows.shape[:2] == (2, 3)


# the builders that take no times, given one parameter set or a sequence
SET_BUILDERS = {
    "system_initial_state": channels.system_initial_state,
    "environment_initial_state": channels.environment_initial_state,
    "joint_initial_state": channels.joint_initial_state,
    "system_state_from_dilation":
        lambda params: channels.system_state_from_dilation(params, 0.3),
}


@pytest.mark.parametrize("name", sorted(SET_BUILDERS))
def test_sequence_of_parameter_sets_gives_one_state_each(name):
    """Given a sequence of ``R`` parameter sets, a builder returns the
    broadcast shape of their ``(R, 1)`` columns, and row ``i`` is the
    call on set ``i`` alone, bit for bit."""
    build = SET_BUILDERS[name]
    together = build(SEQUENCE)
    for i, params in enumerate(SEQUENCE):
        alone = build(params)
        assert together.shape == (len(SEQUENCE), 1) + alone.shape
        assert together[i, 0].tobytes() == alone.tobytes()


# what the parameter readers are given instead of parameter sets, with
# the message of the InputError each raises
NOT_PARAMS = {
    "int": (5, "parameters need a GadcParams or a sequence of GadcParams, "
               "got int"),
    "dict": ({"alpha": 0.5}, "parameters need a GadcParams or a sequence "
                             "of GadcParams, got dict"),
    "float_items": ([1.0, 2.0],
                    "parameter item 0 needs a GadcParams, got float"),
    "second_item": ([PARAMS, "p"],
                    "parameter item 1 needs a GadcParams, got str"),
    "empty": ([], "parameters need at least one GadcParams, got an empty "
                  "list"),
}


@pytest.mark.parametrize("bad", sorted(NOT_PARAMS))
def test_parameter_sets_are_refused_by_type(bad):
    # every function that reads its parameters through one reader: the
    # closed forms, the Kraus builders and the builders without times
    params, message = NOT_PARAMS[bad]
    calls = [*(lambda p, f=f: f(p, SEQUENCE_TIMES) for f in CLOSED_FORMS),
             *(lambda p, f=f: f(p, 0.3) for f in STEP_BUILDERS),
             *SET_BUILDERS.values()]
    for call in calls:
        with pytest.raises(InputError) as exc:
            call(params)
        assert str(exc.value) == message


# the routes that compose steps of one state, given a sequence of sets
ONE_SET_ROUTES = {
    "iterate_map_check":
        lambda: channels.iterate_map_check(SEQUENCE, 1.0, 3),
    "markov_convergence": lambda: strongcouple.markov_convergence(SEQUENCE),
}


@pytest.mark.parametrize("name", sorted(ONE_SET_ROUTES))
def test_composed_steps_take_one_parameter_set(name):
    with pytest.raises(InputError) as exc:
        ONE_SET_ROUTES[name]()
    assert str(exc.value) == "iterate_map_check needs a GadcParams, got list"


# the single-matrix object layer, which only spectra itself may use
OBJECT_LAYER = {"DensityOperator", "HermitianOperator",
                "SpectralDecomposition", "eig_hermitian"}
PACKAGE = Path(strongcouple.__file__).parent


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")
    if p.name not in ("spectra.py", "__init__.py")))
def test_modules_use_plain_arrays(module):
    tree = ast.parse((PACKAGE / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names & OBJECT_LAYER == set()
