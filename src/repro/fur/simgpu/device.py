"""Simulated GPU device: memory spaces, transfers and a kernel timing model.

The paper's ``nbcuda`` backend runs numba-CUDA kernels on an NVIDIA A100; no
GPU exists in this environment, so this module provides the substitute
substrate (see the README's "Backends" section).  It reproduces the two properties of the GPU
code path that matter for the reproduction:

* **explicit memory spaces** — arrays live on the device
  (:class:`DeviceArray`), host↔device transfers are explicit and counted, and
  output methods must decide whether to preserve device state
  (the ``preserve_state`` / ``mpi_gather`` options of the paper's API);
* **a bandwidth-bound timing model** — every kernel charges
  ``bytes_moved / memory_bandwidth + launch_overhead`` to the device clock, so
  benchmarks can report *modeled A100 time* next to measured host time (the
  FUR kernels are memory-bound streaming kernels, which makes this model
  faithful to first order).

Kernels execute numerically on the host through NumPy — results are exact;
only the clock is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DeviceSpec", "DeviceStats", "SimulatedDevice", "DeviceArray", "A100_40GB", "A100_80GB"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static characteristics of the simulated accelerator."""

    name: str
    memory_capacity: float      # bytes
    memory_bandwidth: float     # bytes/s (HBM streaming)
    pcie_bandwidth: float       # bytes/s (host <-> device)
    kernel_launch_overhead: float  # seconds per kernel launch

    def __post_init__(self) -> None:
        for attr in ("memory_capacity", "memory_bandwidth", "pcie_bandwidth"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.kernel_launch_overhead < 0:
            raise ValueError("kernel_launch_overhead must be non-negative")


#: The paper's single-node GPU (Polaris login runs / Fig. 3-4): A100 80 GB.
A100_80GB = DeviceSpec(name="A100-80GB", memory_capacity=80e9, memory_bandwidth=1.9e12,
                       pcie_bandwidth=25e9, kernel_launch_overhead=5e-6)
#: The paper's distributed-node GPU (Fig. 5): A100 40 GB.
A100_40GB = DeviceSpec(name="A100-40GB", memory_capacity=40e9, memory_bandwidth=1.5e12,
                       pcie_bandwidth=25e9, kernel_launch_overhead=5e-6)


@dataclass
class DeviceStats:
    """Counters accumulated by a :class:`SimulatedDevice`."""

    kernels_launched: int = 0
    bytes_processed: int = 0
    host_to_device_bytes: int = 0
    device_to_host_bytes: int = 0
    modeled_time: float = 0.0
    allocated_bytes: int = 0
    peak_allocated_bytes: int = 0

    def reset_clock(self) -> None:
        """Zero the modeled-time and counter fields (allocation state is kept)."""
        self.kernels_launched = 0
        self.bytes_processed = 0
        self.host_to_device_bytes = 0
        self.device_to_host_bytes = 0
        self.modeled_time = 0.0


class SimulatedDevice:
    """A single simulated accelerator with its own memory-space accounting."""

    def __init__(self, spec: DeviceSpec = A100_80GB) -> None:
        self.spec = spec
        self.stats = DeviceStats()

    # -- memory management -----------------------------------------------------
    def _track_alloc(self, nbytes: int) -> None:
        if self.stats.allocated_bytes + nbytes > self.spec.memory_capacity:
            raise MemoryError(
                f"simulated device {self.spec.name} out of memory: "
                f"{self.stats.allocated_bytes + nbytes:.3e} bytes requested, "
                f"capacity {self.spec.memory_capacity:.3e}"
            )
        self.stats.allocated_bytes += nbytes
        self.stats.peak_allocated_bytes = max(self.stats.peak_allocated_bytes,
                                              self.stats.allocated_bytes)

    def _track_free(self, nbytes: int) -> None:
        self.stats.allocated_bytes = max(0, self.stats.allocated_bytes - nbytes)

    def empty(self, shape, dtype=np.complex128) -> "DeviceArray":
        """Allocate an uninitialized device array."""
        data = np.empty(shape, dtype=dtype)
        self._track_alloc(data.nbytes)
        return DeviceArray(self, data)

    def zeros(self, shape, dtype=np.complex128) -> "DeviceArray":
        """Allocate a zero-filled device array (charged as one fill kernel)."""
        arr = self.empty(shape, dtype=dtype)
        arr.data.fill(0)
        self.charge_kernel(arr.data.nbytes)
        return arr

    def to_device(self, host_array: np.ndarray) -> "DeviceArray":
        """Copy a host array to the device (charged at PCIe bandwidth)."""
        data = np.array(host_array, copy=True)
        self._track_alloc(data.nbytes)
        self.stats.host_to_device_bytes += data.nbytes
        self.stats.modeled_time += data.nbytes / self.spec.pcie_bandwidth
        return DeviceArray(self, data)

    # -- timing model ------------------------------------------------------------
    def charge_kernel(self, bytes_moved: int, launches: int = 1) -> None:
        """Charge a memory-bound kernel to the device clock."""
        if bytes_moved < 0 or launches < 0:
            raise ValueError("bytes_moved and launches must be non-negative")
        self.stats.kernels_launched += launches
        self.stats.bytes_processed += bytes_moved
        self.stats.modeled_time += (bytes_moved / self.spec.memory_bandwidth
                                    + launches * self.spec.kernel_launch_overhead)

    def charge_device_to_host(self, nbytes: int) -> None:
        """Charge a device→host transfer."""
        self.stats.device_to_host_bytes += nbytes
        self.stats.modeled_time += nbytes / self.spec.pcie_bandwidth

    @property
    def modeled_time(self) -> float:
        """Accumulated modeled device time in seconds."""
        return self.stats.modeled_time

    def reset_clock(self) -> None:
        """Reset all counters (keeps allocations)."""
        self.stats.reset_clock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimulatedDevice({self.spec.name}, allocated="
                f"{self.stats.allocated_bytes / 1e9:.2f} GB, "
                f"modeled_time={self.stats.modeled_time:.3e} s)")


class DeviceArray:
    """An array resident in a simulated device's memory space.

    Wraps a NumPy array; arithmetic on device arrays must go through the
    kernels in :mod:`repro.fur.simgpu.kernels` (which charge the device clock)
    rather than plain NumPy operators — mirroring how CUDA device arrays are
    only touched by kernels.
    """

    def __init__(self, device: SimulatedDevice, data: np.ndarray) -> None:
        self.device = device
        self.data = data

    @property
    def shape(self):
        """Array shape."""
        return self.data.shape

    @property
    def dtype(self):
        """Array dtype."""
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return int(self.data.nbytes)

    def copy_to_host(self) -> np.ndarray:
        """Copy the contents back to the host (charged at PCIe bandwidth)."""
        self.device.charge_device_to_host(self.nbytes)
        return np.array(self.data, copy=True)

    def free(self) -> None:
        """Release the allocation from the device's memory accounting."""
        self.device._track_free(self.nbytes)
        self.data = np.empty(0, dtype=self.data.dtype)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeviceArray(shape={self.data.shape}, dtype={self.data.dtype}, device={self.device.spec.name})"
