//! The seven workloads. Each builds its inputs from the seed inside
//! the harness and hands the program only those inputs.

pub mod bgp;
pub mod chaos;
pub mod churn;
pub mod masc;
pub mod plane;
pub mod snap;
