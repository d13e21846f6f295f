"""polarlink: simulator for a polarization-stabilized entangled-photon fiber link."""

# The benchmark records this name; the kernels have one numpy implementation.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
