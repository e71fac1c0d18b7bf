"""One expression evaluated as one actor's turn, for the tests.

The runtime evaluates only the root and handler bodies, each inside a
delivery; this helper runs its evaluator on a bare expression so a test
can look at one turn's value, sends, spawns and observed effect.
"""

from __future__ import annotations

from actorcap.runtime import Config, Trace, _Eval
from actorcap.syntax import Expr
from actorcap.values import Value


def local_eval(
    self_id: int,
    bindings: dict[str, Value],
    e: Expr,
    *,
    config: Config | None = None,
    monitor: bool = True,
    trace: Trace | None = None,
):
    """Evaluate one expression as actor `self_id`.

    Returns (value, out-queue, spawned actors, observed effect).  The
    observed effect is the shuffle of the self-capability annotations
    evaluated, in order.
    """
    config = config if config is not None else Config(next_id=self_id + 1)
    trace = trace if trace is not None else Trace()
    ev = _Eval(config, self_id, trace, monitor)
    value = ev.eval(dict(bindings), e)
    return value, ev.outq, ev.spawned, ev.observed
