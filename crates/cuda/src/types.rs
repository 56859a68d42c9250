//! Handle and value types shared across the virtual CUDA API surface.

use bytes::Bytes;

/// A device pointer (a virtual address in the application's VA space).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct DevPtr(pub u64);

impl DevPtr {
    /// Pointer arithmetic, as applications do with `char* + off`.
    pub fn offset(self, off: u64) -> DevPtr {
        DevPtr(self.0 + off)
    }
}

/// A CUDA stream handle, as seen by the application. Handle *values* are
/// context-specific; a session keeps one native twin per client handle, on
/// its active context, and migration moves it (§V-D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamHandle(pub u64);

/// A CUDA event handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(pub u64);

/// A cuDNN library handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CudnnHandle(pub u64);

/// A cuBLAS library handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CublasHandle(pub u64);

/// A batch of cuDNN descriptors (tensor/convolution/filter/… descriptors)
/// with consecutive ids, as one aggregated create call hands them out.
/// Descriptors are host-side opaque structs; DGSF's guest library pools
/// them to avoid remoting their create/destroy calls (§V-C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DescriptorRange {
    /// Id of the first descriptor.
    pub first: u64,
    /// Number of descriptors.
    pub count: u64,
}

/// Kind of cuDNN descriptor, for pool bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DescriptorKind {
    /// `cudnnTensorDescriptor_t`
    Tensor,
    /// `cudnnFilterDescriptor_t`
    Filter,
    /// `cudnnConvolutionDescriptor_t`
    Convolution,
    /// `cudnnPoolingDescriptor_t`
    Pooling,
    /// `cudnnActivationDescriptor_t`
    Activation,
}

impl DescriptorKind {
    /// All descriptor kinds (pool initialization).
    pub const ALL: [DescriptorKind; 5] = [
        DescriptorKind::Tensor,
        DescriptorKind::Filter,
        DescriptorKind::Convolution,
        DescriptorKind::Pooling,
        DescriptorKind::Activation,
    ];
}

/// Kernel launch geometry (`<<<grid, block>>>`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LaunchConfig {
    /// Grid dimensions.
    pub grid: (u32, u32, u32),
    /// Block dimensions.
    pub block: (u32, u32, u32),
}

impl LaunchConfig {
    /// A 1-D launch covering `n` elements with `block` threads per block.
    pub fn linear(n: u64, block: u32) -> LaunchConfig {
        let blocks = n.div_ceil(block as u64).max(1) as u32;
        LaunchConfig {
            grid: (blocks, 1, 1),
            block: (block, 1, 1),
        }
    }

    /// Total number of threads.
    pub fn threads(&self) -> u64 {
        let g = self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64;
        let b = self.block.0 as u64 * self.block.1 as u64 * self.block.2 as u64;
        g * b
    }
}

/// Arguments passed to a kernel launch.
#[derive(Clone, Debug, Default)]
pub struct KernelArgs {
    /// Device-pointer arguments, in order.
    pub ptrs: Vec<DevPtr>,
    /// Scalar arguments, in order (widened to u64).
    pub scalars: Vec<u64>,
    /// Bytes the kernel touches — drives cost models with per-byte terms.
    pub bytes: u64,
    /// Explicit GPU-seconds override for trace-modeled kernels.
    pub work_hint: Option<f64>,
}

impl KernelArgs {
    /// A timed launch: `work` GPU-seconds over `bytes` of data.
    pub fn timed(work: f64, bytes: u64) -> KernelArgs {
        KernelArgs {
            bytes,
            work_hint: Some(work),
            ..Default::default()
        }
    }
}

/// Host-side data crossing the API boundary.
///
/// Functional workloads carry real bytes; trace-modeled workloads carry only
/// a logical size (the simulator charges transfer time without materializing
/// gigabytes of host memory). Real bytes are refcounted [`Bytes`] views so a
/// payload decoded off the wire reaches the device page store without being
/// copied (and a device read reaches the guest the same way back).
#[derive(Clone, Debug, PartialEq)]
pub enum HostBuf {
    /// Real bytes (written to / read from the device page store).
    Bytes(Bytes),
    /// Size-only payload.
    Logical(u64),
}

impl HostBuf {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            HostBuf::Bytes(b) => b.len() as u64,
            HostBuf::Logical(n) => *n,
        }
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Real bytes, if present.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            HostBuf::Bytes(b) => Some(b),
            HostBuf::Logical(_) => None,
        }
    }

    /// Build from `f32`s (little-endian), for functional workloads.
    pub fn from_f32s(vals: &[f32]) -> HostBuf {
        let mut raw = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        HostBuf::Bytes(raw.into())
    }

    /// Interpret as little-endian `f32`s.
    pub fn to_f32s(&self) -> Option<Vec<f32>> {
        let b = self.as_bytes()?;
        Some(
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }
}

/// Result of `cudaPointerGetAttributes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtrAttributes {
    /// True if the pointer refers to device memory this session allocated.
    pub is_device: bool,
    /// Size of the owning allocation, if known.
    pub alloc_size: Option<u64>,
    /// Device ordinal as seen by the application (always 0 under DGSF).
    pub device: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_config_linear() {
        let c = LaunchConfig::linear(1000, 256);
        assert_eq!(c.grid.0, 4);
        assert_eq!(c.threads(), 1024);
        // never zero blocks
        assert_eq!(LaunchConfig::linear(0, 256).grid.0, 1);
    }

    #[test]
    fn hostbuf_f32_roundtrip() {
        let b = HostBuf::from_f32s(&[1.0, 2.5]);
        assert_eq!(b.len(), 8);
        assert_eq!(b.to_f32s().unwrap(), vec![1.0, 2.5]);
        assert_eq!(HostBuf::Logical(100).to_f32s(), None);
    }

    #[test]
    fn devptr_offset() {
        assert_eq!(DevPtr(100).offset(28), DevPtr(128));
    }
}
