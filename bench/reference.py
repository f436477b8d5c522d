"""Machine-speed reference probe: fixed work that uses no code of this repository.

The benchmark runs this script as a subprocess between timed CLI calls.
The CLI's own cost is importing numpy and scipy, small dense linear
algebra, and interpreted Python, so this probe does a fixed amount of each.
When other load on the machine slows the CLI, it slows this probe too. The
run's median probe time therefore measures the machine's speed during the
run, and run.py uses it to express every end-to-end time at one fixed speed.
"""

import numpy as np
import scipy.linalg

a = np.random.default_rng(0).normal(size=(200, 200))
a = a @ a.T + 200.0 * np.eye(200)
for _ in range(30):
    scipy.linalg.cho_factor(a, lower=True)

total = 0
for i in range(200_000):
    total += i * i
