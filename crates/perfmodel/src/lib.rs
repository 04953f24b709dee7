//! # lcr-perfmodel
//!
//! The analytical checkpoint/restart performance model of *"Improving
//! Performance of Iterative Methods by Lossy Checkpointing"*
//! (Tao et al., HPDC 2018), Sections 4.1, 4.3 and 4.4.
//!
//! The model answers the paper's two key questions analytically:
//!
//! 1. *How expensive is checkpointing?* — [`young_optimal_interval`]
//!    (Young's formula, Equation 1), [`traditional_overhead_ratio`]
//!    (Equations 4–5) and [`ExpectedOverheadSurface`] (Figure 1).
//! 2. *When does lossy checkpointing pay off?* — [`lossy_overhead_ratio`]
//!    (Equation 8), [`theorem1_max_extra_iterations`] (Theorem 1),
//!    [`theorem2_extra_iterations_interval`] (Theorem 2, stationary
//!    methods) and [`theorem3_gmres_error_bound`] (Theorem 3, the adaptive
//!    relative error bound for GMRES).
//!
//! Everything here is closed-form arithmetic on `f64`, deliberately free of
//! the simulation substrate, so the same functions serve the expected-
//! overhead figures (1 and 7), the Theorem-1 worked example of §4.3, and
//! the comparison of experimental versus expected overhead in Figure 10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod overhead;
mod theorems;
mod young;

pub use overhead::{
    lossy_overhead_ratio, traditional_overhead_ratio, ExpectedOverheadSurface, OverheadPoint,
};
pub use theorems::{
    theorem1_max_extra_iterations, theorem2_extra_iterations_interval,
    theorem2_extra_iterations_upper_bound, theorem3_gmres_error_bound, Theorem1Inputs,
};
pub use young::{young_optimal_interval, young_optimal_interval_iterations};
