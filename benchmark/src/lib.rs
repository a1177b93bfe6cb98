//! The fastvg benchmark: closed-loop workloads against in-process
//! `fastvg-serve` daemons and a `fastvg-router`, with every response
//! checked against an in-process run, and a traced run that times each
//! crate's public entry points. See `README.md` for the workloads and
//! how to read the results.

pub mod check;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod proc;
pub mod run;
pub mod stats;
