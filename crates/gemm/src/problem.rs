//! GEMM problem dimensions in the paper's notation.
//!
//! The paper writes matrix multiplication as `X(T,M) = A(T,N) x B(N,M)`:
//! `A` holds the (im2col-lowered) input features, `B` the weights that are
//! kept stationary in the array, `N` is the reduction dimension mapped onto
//! the array's rows and `M` the output dimension mapped onto its columns,
//! while the `T` rows of `A` are streamed through the array.

use crate::error::GemmError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dimensions of one matrix multiplication `X(T,M) = A(T,N) x B(N,M)`.
///
/// # Examples
///
/// ```
/// use gemm::GemmDims;
///
/// // ResNet-34 layer 20 as reported in the paper's Fig. 5(a).
/// let dims = GemmDims::new(256, 2304, 196);
/// assert_eq!(dims.macs(), 256 * 2304 * 196);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GemmDims {
    /// Output dimension `M`: the number of columns of `B` (and of `X`),
    /// mapped onto the columns of the systolic array.
    pub m: u64,
    /// Reduction dimension `N`: the shared inner dimension, mapped onto the
    /// rows of the systolic array.
    pub n: u64,
    /// Streaming dimension `T`: the number of rows of `A` that are streamed
    /// through the array.
    pub t: u64,
}

impl GemmDims {
    /// Creates a new set of GEMM dimensions `(M, N, T)`.
    #[must_use]
    pub const fn new(m: u64, n: u64, t: u64) -> Self {
        Self { m, n, t }
    }

    /// Total number of multiply-accumulate operations of this GEMM.
    ///
    /// # Panics
    ///
    /// Panics if the product overflows `u64`.
    #[must_use]
    pub const fn macs(&self) -> u64 {
        match self.checked_macs() {
            Some(macs) => macs,
            None => panic!("GEMM MAC count overflows u64"),
        }
    }

    /// [`GemmDims::macs`] with checked arithmetic: `None` if `M * N * T`
    /// overflows `u64` at either step.
    #[must_use]
    pub const fn checked_macs(&self) -> Option<u64> {
        match self.m.checked_mul(self.n) {
            Some(mn) => mn.checked_mul(self.t),
            None => None,
        }
    }

    /// Number of elements of the streamed operand `A` (`T x N`).
    #[must_use]
    pub const fn a_elements(&self) -> u64 {
        self.t * self.n
    }

    /// Number of elements of the stationary operand `B` (`N x M`).
    #[must_use]
    pub const fn b_elements(&self) -> u64 {
        self.n * self.m
    }

    /// Number of elements of the output `X` (`T x M`).
    #[must_use]
    pub const fn output_elements(&self) -> u64 {
        self.t * self.m
    }

    /// Validates that every dimension is non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::EmptyMatrix`] if any dimension is zero.
    pub fn validate(&self) -> Result<(), GemmError> {
        if self.m == 0 || self.n == 0 || self.t == 0 {
            return Err(GemmError::EmptyMatrix);
        }
        Ok(())
    }
}

impl fmt::Display for GemmDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(M={}, N={}, T={})", self.m, self.n, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_counts_are_consistent() {
        let d = GemmDims::new(3, 4, 5);
        assert_eq!(d.macs(), 60);
        assert_eq!(d.checked_macs(), Some(60));
        assert_eq!(GemmDims::new(u64::MAX, 2, 1).checked_macs(), None);
        assert_eq!(GemmDims::new(1 << 32, 1, 1 << 32).checked_macs(), None);
        assert_eq!(d.a_elements(), 20);
        assert_eq!(d.b_elements(), 12);
        assert_eq!(d.output_elements(), 15);
    }

    #[test]
    fn paper_layer_dimensions() {
        // Fig. 5 of the paper: layers 20 and 28 of ResNet-34.
        let layer20 = GemmDims::new(256, 2304, 196);
        let layer28 = GemmDims::new(512, 2304, 49);
        assert_eq!(layer20.macs(), 115_605_504);
        assert_eq!(layer28.macs(), 57_802_752);
    }

    #[test]
    fn zero_dimensions_fail_validation() {
        assert!(GemmDims::new(0, 1, 1).validate().is_err());
        assert!(GemmDims::new(1, 0, 1).validate().is_err());
        assert!(GemmDims::new(1, 1, 0).validate().is_err());
        assert!(GemmDims::new(1, 1, 1).validate().is_ok());
    }

    #[test]
    fn display_mentions_every_dimension() {
        let text = GemmDims::new(7, 8, 9).to_string();
        assert!(text.contains("M=7"));
        assert!(text.contains("N=8"));
        assert!(text.contains("T=9"));
    }

    #[test]
    fn ordering_is_derived() {
        assert!(GemmDims::new(1, 2, 3) < GemmDims::new(2, 2, 3));
    }
}
