"""Scalar parameters of the Cantor construction and their derived quantities.

All set-level arithmetic downstream works with exact integers; parameters
are validated here so the rest of the package can assume consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Frequencies are manipulated as int64 indices into dense FFT arrays, so the
# largest period N^(j_max+1) must stay below 2^62.
MAX_FREQ_BITS = 62


class ParamError(ValueError):
    """Invalid or inconsistent construction parameters."""


@dataclass(frozen=True)
class ConstructionParams:
    N0: int
    t0: int
    n0: int
    N: int          # N0^(2 n0), branching base of the Cantor iteration
    t: int          # t0^(2 n0), digits kept per block
    alpha: float    # log t0 / log N0
    j_max: int
    seed: int
    c_eta: float = 192.0     # coefficient in the block-deviation threshold
    c_rot: float = 6144.0    # coefficient in the rotation-acceptance thresholds

    @property
    def sqrt_t(self) -> int:
        return self.t0**self.n0

    def period(self, j: int) -> int:
        return self.N**j

    def eta(self, j: int) -> float:
        """Block-deviation threshold for the level-(j+1) base block."""
        return math.sqrt(self.c_eta / self.t * math.log(8 * self.N ** (j + 2)))

    def lambda_rot_ell(self, j: int, ell: int) -> float:
        """Rotation-acceptance threshold at level j for the sum over the
        atoms of window ell (ell = 0: every atom)."""
        return (
            self.c_rot
            * self.t ** (-(j + 1) / 2 + ell / 4)
            * math.log(8 * self.N ** (j + 1))
        )


# The keys of a config file, of ``construct --set`` and of a manifest's
# params that set a construction, with their types; the rest is derived.
CONFIG_KEYS = {
    "N0": int, "t0": int, "n0": int, "j_max": int, "seed": int,
    "c_eta": float, "c_rot": float,
}


def derive_params(N0, t0, n0, j_max=5, seed=0, **overrides) -> ConstructionParams:
    """Derive all construction parameters from the base triple (N0, t0, n0)."""
    N0, t0, n0, j_max, seed = int(N0), int(t0), int(n0), int(j_max), int(seed)
    if not (1 < t0 < N0):
        raise ParamError(f"need 1 < t0 < N0, got t0={t0}, N0={N0}")
    if n0 < 1:
        raise ParamError(f"need n0 >= 1, got {n0}")
    if j_max < 0:
        raise ParamError(f"need j_max >= 0, got {j_max}")
    if seed < 0:
        raise ParamError(f"need seed >= 0, got {seed}")
    N = N0 ** (2 * n0)
    t = t0 ** (2 * n0)
    if N ** (j_max + 1) >= 2**MAX_FREQ_BITS:
        raise ParamError(
            f"N^(j_max+1) = {N}^{j_max + 1} exceeds the exact integer "
            f"width ({MAX_FREQ_BITS} bits) used for frequencies"
        )
    alpha = math.log(t0) / math.log(N0)
    params = ConstructionParams(
        N0=N0, t0=t0, n0=n0, N=N, t=t, alpha=alpha, j_max=j_max, seed=seed,
        **overrides,
    )
    for key in ("c_eta", "c_rot"):
        value = getattr(params, key)    # a manifest's may be any JSON value
        if value is True or not (isinstance(value, (int, float)) and 0 < value < math.inf):
            raise ParamError(f"need a finite {key} > 0, got {value!r}")
    return params


def make_progression(params: ConstructionParams) -> list[int]:
    """The embedded arithmetic progression {0, g, 2g, ...} of length sqrt(t),
    with the widest gap that fits in [0, N): g = floor((N-1)/(sqrt(t)-1)).
    As 1 < t0 < N0, 2 <= sqrt(t) < N, so g >= 1."""
    gap = (params.N - 1) // (params.sqrt_t - 1)
    return [i * gap for i in range(params.sqrt_t)]
