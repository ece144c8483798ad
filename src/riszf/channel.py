"""Channel synthesis: RIS element geometry, spatial correlation, and seeded
draws of every link in the scenario.

All randomness flows through counter-based generators derived from a master
seed and an explicit spawn key, so any trial can be redrawn in isolation and
results do not depend on scheduling order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from riszf.sysconfig import ChannelModelConfig, SystemConfig, read_only

CACHE_SIZE = 32  # entries of each `content_cache`, oldest evicted first
CLIP_TOL = 1e-12  # eigenvalues of `matrix_sqrt_psd` below this times the largest are 0


def spawn_rng(master_seed: int, *spawn_key: int) -> np.random.Generator:
    """Independent generator for the stream identified by `spawn_key`.

    Philox is counter-based: streams for different keys never collide and
    the mapping is stable across processes.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *spawn_key: int) -> int:
    """Stable 64-bit sub-seed for APIs that want an integer seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(spawn_key))
    # generate_state(1, np.uint64)[0], joined from its two uint32 words
    low, high = ss.generate_state(2).tolist()
    return low | high << 32


def complex_normal(
    rng: np.random.Generator, shape: int | tuple[int, ...], variance: float = 1.0
) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples, E{|x|^2} = variance:
    one block of `_complex_blocks`."""
    dims = (shape,) if isinstance(shape, int) else tuple(shape)
    return _complex_blocks(rng, (1, *dims), math.sqrt(variance / 2.0))[0]


def _complex_blocks(
    rng: np.random.Generator, shape: tuple[int, ...], scale: float = math.sqrt(0.5)
) -> np.ndarray:
    """scale * (re + 1j * im) blocks along the first axis (unit variance by
    default), drawn in one call: each block reads its real parts, then its
    imaginary parts, as one draw per block would. Both parts are scaled
    straight into place, the bits of the complex expression without its
    three complex temporaries."""
    z = rng.standard_normal((shape[0], 2, *shape[1:]))
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(z[:, 0], scale, out=out.real)
    np.multiply(z[:, 1], scale, out=out.imag)
    return out


def default_grid_cols(N: int) -> int:
    """Largest divisor of N not exceeding sqrt(N) (squarest row-major grid)."""
    best = 1
    for c in range(1, int(math.isqrt(N)) + 1):
        if N % c == 0:
            best = c
    return best


def element_positions(
    N: int, spacing: float, grid_cols: int | None = None
) -> np.ndarray:
    """(N, 2) planar element coordinates, row-major on a rectangular grid."""
    cols = default_grid_cols(N) if grid_cols is None else grid_cols
    if cols < 1 or N % cols != 0:
        raise ValueError(f"grid_cols={cols} does not divide N={N}")
    idx = np.arange(N)
    return spacing * np.stack([idx % cols, idx // cols], axis=1).astype(float)


def content_cache(fn):
    """Memoize a function of one array, keyed on that array's content
    (bytes, shape, dtype).

    Keys never use object identity, so an equal matrix built anew hits the
    cache and an edited copy misses it. The oldest entry is evicted past
    `CACHE_SIZE`. The function must return values its callers cannot
    change (read-only arrays, numbers), since every hit shares them.
    """
    cache: dict = {}

    @functools.wraps(fn)
    def wrapper(a: np.ndarray):
        a = np.asarray(a)
        key = (a.tobytes(), a.shape, a.dtype.str)
        out = cache.get(key)
        if out is None:
            out = fn(a)
            if len(cache) >= CACHE_SIZE:
                cache.pop(next(iter(cache)), None)
            cache[key] = out
        return out

    return wrapper


@functools.lru_cache(maxsize=32)
def correlation_matrix(
    N: int,
    spacing: float,
    wavelength: float,
    model: str = "sinc",
    grid_cols: int | None = None,
) -> np.ndarray:
    """Unit-diagonal spatial correlation across the RIS elements.

    "sinc" evaluates sin(pi x)/(pi x) at x = 2 * distance / wavelength for
    every element pair; "iid" forces the identity regardless of geometry.
    Cached per argument tuple; the returned array is read-only and shared.
    """
    if model == "iid":
        return read_only(np.eye(N))
    if model != "sinc":
        raise ValueError(f"unknown correlation model {model!r}")
    pos = element_positions(N, spacing, grid_cols)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return read_only(np.sinc(2.0 * dist / wavelength))


@content_cache
def matrix_sqrt_psd(C: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below `CLIP_TOL` relative to the largest are treated as
    exact zeros, which keeps rank-deficient correlation usable. Cached on
    the content of `C`; the returned array is read-only and shared.
    """
    w, V = np.linalg.eigh(C)
    w = np.where(w > CLIP_TOL * max(w[-1], 0.0), w, 0.0)
    return read_only((V * np.sqrt(w)) @ V.conj().T)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of every link in the scenario.

    Attributes
    ----------
    H : (K, M, N) BS-to-RIS channels, one M x N block per RIS.
    h_b : (U_b, N) RIS-to-blocked-UE channels, RIS-major flat order
        (``cfg.blocked_index`` maps (k, ell) to a row).
    h_d : (U_d, M) direct BS-to-UE channels.
    C : (N, N) unit-diagonal RIS correlation shared by all arrays.
    sqrt_C : (N, N) its PSD square root, reused for error redraws.
        Both are read-only arrays shared by every draw with the same N
        and channel config.

    `R`, `H_conj_blocked`, `HH_first` and `ris_gram` are computed on
    first access and kept for the draw's lifetime, read-only. They derive
    only from `cfg`, `ch`, `C`, `H` and `h_d`, which nothing edits in
    place; `dataclasses.replace` gives a new set that computes its own.
    """

    cfg: SystemConfig
    ch: ChannelModelConfig
    H: np.ndarray
    h_b: np.ndarray
    h_d: np.ndarray
    C: np.ndarray
    sqrt_C: np.ndarray

    @functools.cached_property
    def R(self) -> np.ndarray:
        """Per-BS-antenna RIS correlation: E{H_k^H H_k} = M * R."""
        return read_only(self.ch.ris_element_scale * self.C)

    @functools.cached_property
    def H_conj_blocked(self) -> np.ndarray:
        """(U_b, M, N) conj(H_k) of the RIS serving each blocked UE, in
        blocked-UE order: the stacked operand of every cascaded product.
        Conjugated in place after the gather, so it costs one allocation."""
        out = self.H[self.cfg.ris_of_blocked_ue]
        return read_only(np.conjugate(out, out=out))

    @functools.cached_property
    def HH_first(self) -> np.ndarray:
        """(K, N, M) conj(H_k)^T of each RIS's first blocked UE: a transposed
        view of `H_conj_blocked` when every RIS serves one UE."""
        return read_only(self.H_conj_blocked[self.cfg.gathers[1]].transpose(0, 2, 1))

    @functools.cached_property
    def ris_gram(self):
        """`beamform.GramFactor` of the RIS-side stack
        (`beamform.stack_bs_ris`) toward `beamform.gamma_matrix`: the one
        Gram matrix and solve that `rank_q2` and every RIS-side precoder
        of the draw read."""
        # a local import: beamform imports channel
        from riszf.beamform import GramFactor, gamma_matrix, stack_bs_ris

        cfg = self.cfg
        return GramFactor(stack_bs_ris(self), gamma_matrix(cfg.N, cfg.K, cfg.U_d)).read_only()

    def h_block(self, k: int, ell: int = 0) -> np.ndarray:
        """RIS-side channel of blocked UE (k, ell), shape (N,)."""
        return self.h_b[self.cfg.blocked_index(k, ell)]


def _draw_links(
    rng: np.random.Generator, cfg: SystemConfig, ch: ChannelModelConfig, sqrt_C: np.ndarray
):
    """Yield H, then h_b, then h_d of one draw: the only code that draws
    links, so its order is the reproducibility contract.

    The BS side of each RIS link is isotropic; correlation enters only on
    the RIS side, so H_k = F_k D with F_k iid and D = (mu A C)^(1/2). All
    BS-RIS blocks (H_1..H_K) come from one generator call, all blocked-UE
    vectors (RIS-major) from another, then the direct UEs; within each
    block the real parts come before the imaginary parts. Lazy, so a
    caller can finish with one link before the next is drawn.
    """
    D = math.sqrt(ch.ris_element_scale) * sqrt_C
    yield _complex_blocks(rng, (cfg.K, cfg.M, cfg.N)) @ D
    z = _complex_blocks(rng, (cfg.U_b, cfg.N))
    yield math.sqrt(ch.ris_ue_link_variance) * (sqrt_C @ z[:, :, None])[:, :, 0]
    yield complex_normal(rng, (cfg.U_d, cfg.M), variance=ch.direct_link_variance)


def sample_channels(
    cfg: SystemConfig, ch: ChannelModelConfig, rng: np.random.Generator
) -> ChannelSet:
    """Draw one realization of all channels (`_draw_links`). C and sqrt_C
    come from the caches of `correlation_matrix` and `matrix_sqrt_psd`."""
    C = correlation_matrix(
        cfg.N, ch.element_spacing, ch.wavelength, ch.correlation_model, ch.grid_cols
    )
    sqrt_C = matrix_sqrt_psd(C)
    H, h_b, h_d = _draw_links(rng, cfg, ch, sqrt_C)
    return ChannelSet(cfg=cfg, ch=ch, H=H, h_b=h_b, h_d=h_d, C=C, sqrt_C=sqrt_C)


def apply_estimation_error(chs: ChannelSet, tau: float, seed: int) -> ChannelSet:
    """Imperfect-CSI copy: each link becomes sqrt(1-tau) h + sqrt(tau) e.

    The error term e is an independent draw by the recipe of
    `sample_channels` (`_draw_links`, on the stream of `seed`), correlation
    included, so channel statistics are tau-invariant. tau = 0 returns the
    input set unchanged.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"estimation error fraction {tau} outside [0, 1)")
    if tau == 0.0:
        return chs

    keep = math.sqrt(1.0 - tau)
    mix = math.sqrt(tau)
    errors = _draw_links(spawn_rng(seed), chs.cfg, chs.ch, chs.sqrt_C)
    links = zip((chs.H, chs.h_b, chs.h_d), errors)
    # mix * e + keep * x summed into e: keep * x + mix * e bit for bit, one temporary
    H, h_b, h_d = (np.add(np.multiply(e, mix, out=e), keep * x, out=e) for x, e in links)
    return replace(chs, H=H, h_b=h_b, h_d=h_d)
