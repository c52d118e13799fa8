"""Watch a self-organizing map pull its prototypes onto the data.

Each training step moves the best matching unit (and, damped by a Gaussian
neighborhood, its grid neighbors) toward one sample.  Learning rate and
neighborhood width decay linearly, so the map settles.  Quantization error,
the mean distance from samples to their nearest prototype, tracks progress.
"""

from dataclasses import replace

import numpy as np

from csomtex import (
    Dataset,
    TrainingSchedule,
    bmu,
    init_map,
    quantization_error,
    train,
)

rng = np.random.default_rng(1)
centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
X = np.vstack([rng.normal(c, 0.6, size=(30, 2)) for c in centers])
data = Dataset(X)

som = init_map(2, 2, dim=2, seed=5, data=data)
sched = TrainingSchedule(
    iterations=100 * data.n, alpha0=0.5, alpha_final=0.01,
    sigma0=1.0, sigma_final=0.3, seed=5,
)

print(f"{som.rows}x{som.cols} map on three point clouds, {sched.iterations} steps")
print(f"initial quantization error: {quantization_error(som, data):.3f}")

# Train in four quarters to expose the trajectory; chaining shortened
# schedules this way is only for display, one train() call is the norm.
done = 0
for part in range(4):
    chunk = sched.iterations // 4
    som = train(som, data, replace(sched, iterations=chunk, seed=sched.seed + part))
    done += chunk
    print(f"after {done:4d} steps: qe {quantization_error(som, data):.3f}")

print("\nfinal prototypes (grid position -> vector, samples won):")
wins = np.zeros(som.rows * som.cols, dtype=int)
for x in data.X:
    wins[bmu(som, x)[0]] += 1
for u in range(som.rows * som.cols):
    r, c = divmod(u, som.cols)
    w = som.weights[u]
    print(f"  ({r},{c}) -> ({w[0]:6.2f}, {w[1]:6.2f})   {wins[u]:2d} samples")
print("\nthree units sit on the three clouds; the spare unit idles between them")
