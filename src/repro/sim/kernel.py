"""Two names kept only for perfbench; the simulator uses neither.

perfbench is the only reader: its environment stamp reads
:data:`HAVE_NUMPY` and its traced mode wraps :func:`plan_span`. Both
names go with the benchmark change that drops the ``sim.kernel.*`` rows.
"""

#: Always False: the simulator does not use numpy. perfbench's
#: environment stamp is the only reader; the name goes with the
#: benchmark change that drops the ``sim.kernel.*`` rows.
HAVE_NUMPY = False


def plan_span(*args, **kwargs):
    """Never called: the engine has no batch planner. perfbench's traced
    mode is the only reader (it wraps this name); it goes with the
    benchmark change that drops the ``sim.kernel.*`` rows."""
    raise NotImplementedError("the engine has no batch planner")
