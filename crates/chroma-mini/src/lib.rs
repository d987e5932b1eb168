//! # chroma-mini — the application layer
//!
//! The subset of the Chroma application suite that the paper's evaluation
//! exercises, implemented *entirely in terms of the high-level QDP
//! interface* (that is the point of the paper: port the low-level layer,
//! and the application follows unaltered):
//!
//! * gauge fields, plaquette, Wilson gauge action and force ([`gauge`]);
//! * the Wilson dslash / Dirac operator and the clover term built from
//!   data-parallel expressions ([`fermion`]);
//! * Krylov solvers: CG and multi-shift CG ([`solver`]);
//! * the Zolotarev optimal rational approximation to `x^(-1/2)` for RHMC
//!   ([`zolotarev`]);
//! * molecular-dynamics forces with finite-difference validation
//!   ([`force`]);
//! * HMC: leapfrog/Omelyan integrators, pure-gauge and dynamical-fermion
//!   trajectories, Hasenbusch mass preconditioning, RHMC ([`hmc`]);
//! * trajectory cost accounting for the strong-scaling replays ([`trace`]).

pub mod campaign;
pub mod checkpoint;
pub mod fermion;
pub mod force;
pub mod gauge;
pub mod hmc;
pub mod solver;
pub mod trace;
pub mod zolotarev;

pub use fermion::{CloverTerm, WilsonDirac};
pub use gauge::GaugeField;
pub use hmc::{Hmc, HmcReport, Integrator};
pub use solver::{cg_solve, CgReport};
