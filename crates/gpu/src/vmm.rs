//! Driver-level virtual memory management, mirroring CUDA's low-level VMM
//! API (`cuMemCreate` / `cuMemAddressReserve` / `cuMemMap` / `cuMemUnmap`).
//!
//! DGSF allocates *all* device memory through this layer instead of
//! `cudaMalloc` so that an API server can migrate to another physical GPU
//! while keeping the application's virtual addresses bit-identical: physical
//! allocations move, reservations and mappings do not. [`VaSpace`] is the
//! per-CUDA-context address space; physical allocations live in the owning
//! [`crate::Gpu`]'s allocation table.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a physical device allocation (`CUmemGenericAllocationHandle`
/// in CUDA terms). Globally unique across GPUs so migration can be traced.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PhysId(pub u64);

/// Errors from the VMM layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmmError {
    /// Mapping target does not lie inside a reserved VA range.
    NotReserved {
        /// Requested base virtual address.
        va: u64,
    },
    /// Mapping overlaps an existing mapping.
    Overlap {
        /// Requested base virtual address.
        va: u64,
    },
    /// No mapping exists at the given address.
    NoMapping {
        /// Queried virtual address.
        va: u64,
    },
    /// Reservation size or alignment is invalid.
    BadRequest,
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::NotReserved { va } => write!(f, "va {va:#x} not inside a reservation"),
            VmmError::Overlap { va } => write!(f, "mapping at {va:#x} overlaps an existing one"),
            VmmError::NoMapping { va } => write!(f, "no mapping at {va:#x}"),
            VmmError::BadRequest => write!(f, "invalid VMM request"),
        }
    }
}

impl std::error::Error for VmmError {}

/// A reserved virtual address range (`cuMemAddressReserve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaRange {
    /// First virtual address of the range.
    pub base: u64,
    /// Length in bytes.
    pub size: u64,
}

/// A live VA → physical mapping (`cuMemMap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Base virtual address.
    pub va: u64,
    /// Length in bytes.
    pub size: u64,
    /// Backing physical allocation.
    pub phys: PhysId,
}

/// Base of the simulated unified virtual address space. Matches the flavour
/// of addresses CUDA's UVA hands out; the exact value is arbitrary but fixed
/// so logs are comparable across runs.
pub const VA_BASE: u64 = 0x7000_0000_0000;

/// VMM mapping granularity (CUDA requires 2 MiB-aligned VMM mappings on
/// V100-class parts).
pub const VA_GRANULARITY: u64 = 2 << 20;

/// One CUDA context's virtual address space: reservations plus mappings.
///
/// The address space is *independent of any physical GPU*: migration swaps
/// the `phys` side of each mapping while every `va` stays fixed — exactly
/// the property DGSF's live migration relies on (§V-D of the paper).
#[derive(Debug, Default, Clone)]
pub struct VaSpace {
    next: u64,
    reservations: Vec<VaRange>,
    /// Keyed by base VA.
    mappings: BTreeMap<u64, Mapping>,
}

impl VaSpace {
    /// An empty address space starting at [`VA_BASE`].
    pub fn new() -> VaSpace {
        VaSpace {
            next: VA_BASE,
            reservations: Vec::new(),
            mappings: BTreeMap::new(),
        }
    }

    fn round_up(v: u64, g: u64) -> u64 {
        v.div_ceil(g) * g
    }

    /// Reserve a fresh VA range of at least `size` bytes
    /// (`cuMemAddressReserve`). Returns the range actually reserved
    /// (granularity-rounded).
    pub fn reserve(&mut self, size: u64) -> Result<VaRange, VmmError> {
        if size == 0 {
            return Err(VmmError::BadRequest);
        }
        let size = Self::round_up(size, VA_GRANULARITY);
        let base = self.next;
        self.next += size;
        let r = VaRange { base, size };
        self.reservations.push(r);
        Ok(r)
    }

    /// Release a reservation (`cuMemAddressFree`). Any mappings inside must
    /// have been unmapped first.
    pub fn release(&mut self, range: VaRange) -> Result<(), VmmError> {
        if self
            .mappings
            .values()
            .any(|m| ranges_overlap(m.va, m.size, range.base, range.size))
        {
            return Err(VmmError::Overlap { va: range.base });
        }
        let before = self.reservations.len();
        self.reservations.retain(|r| *r != range);
        if self.reservations.len() == before {
            return Err(VmmError::NotReserved { va: range.base });
        }
        Ok(())
    }

    /// Map `phys` at `[va, va+size)` (`cuMemMap`). The range must lie inside
    /// a reservation and not overlap existing mappings.
    pub fn map(&mut self, va: u64, size: u64, phys: PhysId) -> Result<(), VmmError> {
        if size == 0 {
            return Err(VmmError::BadRequest);
        }
        let inside = self
            .reservations
            .iter()
            .any(|r| va >= r.base && va + size <= r.base + r.size);
        if !inside {
            return Err(VmmError::NotReserved { va });
        }
        // Check the nearest mappings on both sides for overlap.
        if let Some((_, m)) = self.mappings.range(..=va).next_back() {
            if m.va + m.size > va {
                return Err(VmmError::Overlap { va });
            }
        }
        if let Some((_, m)) = self.mappings.range(va..).next() {
            if m.va < va + size {
                return Err(VmmError::Overlap { va });
            }
        }
        self.mappings.insert(va, Mapping { va, size, phys });
        Ok(())
    }

    /// Remove the mapping based at `va` (`cuMemUnmap`).
    pub fn unmap(&mut self, va: u64) -> Result<Mapping, VmmError> {
        self.mappings.remove(&va).ok_or(VmmError::NoMapping { va })
    }

    /// Replace the physical backing of the mapping based at `va`, keeping
    /// the virtual range identical. This is the migration primitive: unmap +
    /// map-new-phys collapsed into one atomic step.
    pub fn remap(&mut self, va: u64, new_phys: PhysId) -> Result<PhysId, VmmError> {
        let m = self
            .mappings
            .get_mut(&va)
            .ok_or(VmmError::NoMapping { va })?;
        Ok(std::mem::replace(&mut m.phys, new_phys))
    }

    /// Resolve a virtual address to `(phys, offset_within_alloc,
    /// bytes_remaining_in_mapping)`.
    pub fn resolve(&self, va: u64) -> Result<(PhysId, u64, u64), VmmError> {
        let (_, m) = self
            .mappings
            .range(..=va)
            .next_back()
            .ok_or(VmmError::NoMapping { va })?;
        if va >= m.va + m.size {
            return Err(VmmError::NoMapping { va });
        }
        Ok((m.phys, va - m.va, m.va + m.size - va))
    }

    /// All live mappings, in ascending VA order.
    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.values()
    }
}

fn ranges_overlap(a: u64, alen: u64, b: u64, blen: u64) -> bool {
    a < b + blen && b < a + alen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_map_resolve() {
        let mut vs = VaSpace::new();
        let r = vs.reserve(10 << 20).unwrap();
        assert_eq!(r.base, VA_BASE);
        assert_eq!(r.size % VA_GRANULARITY, 0);
        vs.map(r.base, 4 << 20, PhysId(1)).unwrap();
        let (p, off, rem) = vs.resolve(r.base + 100).unwrap();
        assert_eq!(p, PhysId(1));
        assert_eq!(off, 100);
        assert_eq!(rem, (4 << 20) - 100);
    }

    #[test]
    fn map_outside_reservation_fails() {
        let mut vs = VaSpace::new();
        assert_eq!(
            vs.map(VA_BASE, 1 << 20, PhysId(1)),
            Err(VmmError::NotReserved { va: VA_BASE })
        );
        let r = vs.reserve(2 << 20).unwrap();
        // extends past the reservation end
        assert!(vs.map(r.base + (1 << 20), 2 << 20, PhysId(1)).is_err());
    }

    #[test]
    fn overlapping_mappings_rejected() {
        let mut vs = VaSpace::new();
        let r = vs.reserve(16 << 20).unwrap();
        vs.map(r.base, 4 << 20, PhysId(1)).unwrap();
        assert_eq!(
            vs.map(r.base + (2 << 20), 4 << 20, PhysId(2)),
            Err(VmmError::Overlap {
                va: r.base + (2 << 20)
            })
        );
        // adjacent is fine
        vs.map(r.base + (4 << 20), 4 << 20, PhysId(2)).unwrap();
    }

    #[test]
    fn remap_preserves_virtual_range() {
        let mut vs = VaSpace::new();
        let r = vs.reserve(4 << 20).unwrap();
        vs.map(r.base, 4 << 20, PhysId(1)).unwrap();
        let old = vs.remap(r.base, PhysId(9)).unwrap();
        assert_eq!(old, PhysId(1));
        let (p, _, _) = vs.resolve(r.base + 42).unwrap();
        assert_eq!(p, PhysId(9));
    }

    #[test]
    fn unmap_then_resolve_fails() {
        let mut vs = VaSpace::new();
        let r = vs.reserve(4 << 20).unwrap();
        vs.map(r.base, 2 << 20, PhysId(1)).unwrap();
        vs.unmap(r.base).unwrap();
        assert!(vs.resolve(r.base).is_err());
    }

    #[test]
    fn release_with_live_mapping_fails() {
        let mut vs = VaSpace::new();
        let r = vs.reserve(4 << 20).unwrap();
        vs.map(r.base, 2 << 20, PhysId(1)).unwrap();
        assert!(vs.release(r).is_err());
        vs.unmap(r.base).unwrap();
        vs.release(r).unwrap();
    }

    #[test]
    fn distinct_reservations_do_not_overlap() {
        let mut vs = VaSpace::new();
        let a = vs.reserve(3 << 20).unwrap();
        let b = vs.reserve(5 << 20).unwrap();
        assert!(a.base + a.size <= b.base);
    }
}
