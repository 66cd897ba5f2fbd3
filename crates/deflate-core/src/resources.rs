//! The four-dimensional resource algebra used throughout the workspace.
//!
//! Deflation targets, VM specifications, server capacities and reclamation
//! outcomes are all [`ResourceVector`]s over the paper's four resource
//! dimensions: CPU cores, memory, disk bandwidth and network bandwidth
//! (§3.2: "Reclamation target is vector of (CPU, Memory, Disk, Network)").
//!
//! Units: CPU in cores (fractional values are meaningful at the hypervisor
//! layer, integral at the hot-plug layer), memory in MiB, disk and network
//! bandwidth in MB/s.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// One resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU cores.
    Cpu,
    /// Memory (MiB).
    Memory,
    /// Disk bandwidth (MB/s).
    DiskBw,
    /// Network bandwidth (MB/s).
    NetBw,
}

impl ResourceKind {
    /// All dimensions, in canonical order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::DiskBw,
        ResourceKind::NetBw,
    ];

    /// Canonical index of this dimension.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::DiskBw => 2,
            ResourceKind::NetBw => 3,
        }
    }

    /// Short lowercase name (used in traces and CSV headers).
    pub const fn name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::DiskBw => "disk_bw",
            ResourceKind::NetBw => "net_bw",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A non-negative quantity of each resource dimension.
///
/// All arithmetic is element-wise. Subtraction saturates at zero via
/// [`saturating_sub`](ResourceVector::saturating_sub); the `Sub` operator
/// debug-asserts non-negativity, which is the right default for allocation
/// bookkeeping where going negative is a logic error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    dims: [f64; 4],
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector { dims: [0.0; 4] };

    /// Creates a vector from (cpu cores, memory MiB, disk MB/s, net MB/s).
    #[inline]
    pub const fn new(cpu: f64, memory_mib: f64, disk_mbps: f64, net_mbps: f64) -> Self {
        ResourceVector {
            dims: [cpu, memory_mib, disk_mbps, net_mbps],
        }
    }

    /// A vector with only the CPU dimension set.
    #[inline]
    pub const fn cpu(cores: f64) -> Self {
        ResourceVector::new(cores, 0.0, 0.0, 0.0)
    }

    /// A vector with only the memory dimension set.
    #[inline]
    pub const fn memory(mib: f64) -> Self {
        ResourceVector::new(0.0, mib, 0.0, 0.0)
    }

    /// Returns the value of one dimension.
    #[inline]
    pub const fn get(&self, kind: ResourceKind) -> f64 {
        self.dims[kind.index()]
    }

    /// Sets one dimension (clamping at zero) and returns the new vector.
    #[inline]
    pub fn with(mut self, kind: ResourceKind, value: f64) -> Self {
        self.dims[kind.index()] = value.max(0.0);
        self
    }

    /// Mutably sets one dimension, clamping at zero.
    #[inline]
    pub fn set(&mut self, kind: ResourceKind, value: f64) {
        self.dims[kind.index()] = value.max(0.0);
    }

    /// Element-wise map.
    #[inline]
    pub fn map(&self, mut f: impl FnMut(ResourceKind, f64) -> f64) -> Self {
        let mut out = *self;
        for kind in ResourceKind::ALL {
            out.dims[kind.index()] = f(kind, self.dims[kind.index()]);
        }
        out
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, other: &ResourceVector) -> ResourceVector {
        self.map(|k, v| v.min(other.get(k)))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(&self, other: &ResourceVector) -> ResourceVector {
        self.map(|k, v| v.max(other.get(k)))
    }

    /// Element-wise subtraction saturating at zero.
    #[inline]
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        self.map(|k, v| (v - other.get(k)).max(0.0))
    }

    /// Scales every dimension by a non-negative factor.
    #[inline]
    pub fn scale(&self, k: f64) -> ResourceVector {
        debug_assert!(k >= 0.0, "scale factor must be non-negative");
        self.map(|_, v| v * k)
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &ResourceVector) -> f64 {
        ResourceKind::ALL
            .iter()
            .map(|&k| self.get(k) * other.get(k))
            .sum()
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Cosine similarity with another vector — the paper's placement
    /// "fitness" (§5): `fitness(D, A) = A·D / (|A| |D|)`.
    ///
    /// Returns 0 when either vector is zero.
    #[inline]
    pub fn cosine_similarity(&self, other: &ResourceVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Returns `true` when every dimension is ≥ the other's (allowing for
    /// floating-point slack of 1e-9).
    #[inline]
    pub fn dominates(&self, other: &ResourceVector) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| self.get(k) + 1e-9 >= other.get(k))
    }

    /// Returns `true` when every dimension is (effectively) zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.dims.iter().all(|v| v.abs() < 1e-9)
    }

    /// Sum of all dimensions — a crude "total size" used only for traces.
    #[inline]
    pub fn total(&self) -> f64 {
        self.dims.iter().sum()
    }

    /// Element-wise fraction `self / whole`, with 0/0 treated as 0 and
    /// results clamped to `[0, 1]`. Used to express "how deflated is this
    /// VM" relative to its specification.
    #[inline]
    pub fn fraction_of(&self, whole: &ResourceVector) -> ResourceVector {
        self.map(|k, v| {
            let w = whole.get(k);
            if w <= 0.0 {
                0.0
            } else {
                (v / w).clamp(0.0, 1.0)
            }
        })
    }

    /// The largest dimension value (e.g. the max deflation fraction across
    /// resources when applied to a fraction vector).
    #[inline]
    pub fn max_component(&self) -> f64 {
        self.dims.iter().copied().fold(0.0, f64::max)
    }

    /// The mean of all dimension values.
    #[inline]
    pub fn mean_component(&self) -> f64 {
        self.total() / 4.0
    }

    /// Clamps every dimension into `[lo, hi]` element-wise.
    #[inline]
    pub fn clamp(&self, lo: &ResourceVector, hi: &ResourceVector) -> ResourceVector {
        self.map(|k, v| v.clamp(lo.get(k), hi.get(k)))
    }

    /// Approximate element-wise equality within `eps`.
    #[inline]
    pub fn approx_eq(&self, other: &ResourceVector, eps: f64) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| (self.get(k) - other.get(k)).abs() <= eps)
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        self.map(|k, v| v + rhs.get(k))
    }
}

impl AddAssign for ResourceVector {
    #[inline]
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    #[inline]
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        let out = self.map(|k, v| v - rhs.get(k));
        debug_assert!(
            out.dims.iter().all(|v| *v >= -1e-6),
            "resource subtraction went negative: {self} - {rhs}; use saturating_sub"
        );
        out.map(|_, v| v.max(0.0))
    }
}

impl SubAssign for ResourceVector {
    #[inline]
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(cpu={:.2}, mem={:.0}MiB, disk={:.0}MB/s, net={:.0}MB/s)",
            self.dims[0], self.dims[1], self.dims[2], self.dims[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: f64, m: f64, d: f64, n: f64) -> ResourceVector {
        ResourceVector::new(c, m, d, n)
    }

    #[test]
    fn get_set_with() {
        let mut a = v(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.get(ResourceKind::Cpu), 1.0);
        assert_eq!(a.get(ResourceKind::NetBw), 4.0);
        a.set(ResourceKind::Memory, 10.0);
        assert_eq!(a.get(ResourceKind::Memory), 10.0);
        a.set(ResourceKind::Memory, -5.0);
        assert_eq!(a.get(ResourceKind::Memory), 0.0);
        let b = a.with(ResourceKind::DiskBw, 7.0);
        assert_eq!(b.get(ResourceKind::DiskBw), 7.0);
        assert_eq!(a.get(ResourceKind::DiskBw), 3.0);
    }

    #[test]
    fn arithmetic_elementwise() {
        let a = v(1.0, 10.0, 100.0, 1000.0);
        let b = v(0.5, 5.0, 50.0, 500.0);
        assert_eq!(a + b, v(1.5, 15.0, 150.0, 1500.0));
        assert_eq!(a - b, b);
        assert_eq!(a.scale(2.0), v(2.0, 20.0, 200.0, 2000.0));
        assert_eq!(b.saturating_sub(&a), ResourceVector::ZERO);
    }

    #[test]
    fn min_max_dominates() {
        let a = v(1.0, 20.0, 3.0, 40.0);
        let b = v(2.0, 10.0, 4.0, 30.0);
        assert_eq!(a.min(&b), v(1.0, 10.0, 3.0, 30.0));
        assert_eq!(a.max(&b), v(2.0, 20.0, 4.0, 40.0));
        assert!(!a.dominates(&b));
        assert!(a.max(&b).dominates(&a));
        assert!(a.dominates(&a));
    }

    #[test]
    fn cosine_similarity_properties() {
        let a = v(4.0, 16_384.0, 100.0, 100.0);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine_similarity(&ResourceVector::ZERO), 0.0);
        // Orthogonal vectors.
        let cpu_only = ResourceVector::cpu(4.0);
        let mem_only = ResourceVector::memory(1024.0);
        assert_eq!(cpu_only.cosine_similarity(&mem_only), 0.0);
        // Scaling does not change direction.
        assert!((a.cosine_similarity(&a.scale(3.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_and_components() {
        let spec = v(4.0, 100.0, 10.0, 10.0);
        let cur = v(1.0, 50.0, 10.0, 10.0);
        let f = cur.fraction_of(&spec);
        assert_eq!(f.get(ResourceKind::Cpu), 0.25);
        assert_eq!(f.get(ResourceKind::Memory), 0.5);
        assert_eq!(f.max_component(), 1.0);
        assert!((f.mean_component() - (0.25 + 0.5 + 1.0 + 1.0) / 4.0).abs() < 1e-12);
        // 0/0 => 0.
        let z = ResourceVector::ZERO.fraction_of(&ResourceVector::ZERO);
        assert!(z.is_zero());
    }

    #[test]
    fn clamp_and_zero() {
        let lo = v(1.0, 1.0, 1.0, 1.0);
        let hi = v(2.0, 2.0, 2.0, 2.0);
        let x = v(0.0, 1.5, 3.0, 2.0);
        assert_eq!(x.clamp(&lo, &hi), v(1.0, 1.5, 2.0, 2.0));
        assert!(ResourceVector::ZERO.is_zero());
        assert!(!lo.is_zero());
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", v(2.0, 1024.0, 100.0, 1000.0));
        assert!(s.contains("cpu=2.00"));
        assert!(s.contains("mem=1024MiB"));
        assert_eq!(ResourceKind::Cpu.to_string(), "cpu");
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = v(1.0, 1.0, 1.0, 1.0);
        let b = v(1.0 + 1e-10, 1.0, 1.0, 1.0);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&v(1.1, 1.0, 1.0, 1.0), 1e-9));
    }
}
