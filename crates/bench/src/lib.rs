//! # unn-bench — experiment harness for the paper reproduction
//!
//! One function per experiment table (T1–T15, covering E1–E16 of DESIGN.md
//! §3; see EXPERIMENTS.md); the `harness` binary renders them all. The
//! other bins write the `BENCH_*.json` files, and `src/bin/bench_e2e` is
//! the end-to-end serving benchmark, a package of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments_nonzero;
pub mod experiments_quantify;
pub mod util;

pub use util::Table;

/// An experiment entry: identifier plus the table generator (taking the
/// sweep scale: 1 = quick, 2 = full).
pub type Experiment = (&'static str, fn(u32) -> Table);

/// All experiments in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "t1",
            experiments_nonzero::t1_random_disks as fn(u32) -> Table,
        ),
        ("t2", experiments_nonzero::t2_lb_mixed),
        ("t3", experiments_nonzero::t3_lb_equal),
        ("t4", experiments_nonzero::t4_disjoint),
        ("t5", experiments_nonzero::t5_discrete),
        ("t6", experiments_nonzero::t6_construction),
        ("t7", experiments_nonzero::t7_queries),
        ("t8", experiments_quantify::t8_vpr),
        ("t9", experiments_quantify::t9_mc),
        ("t10", experiments_quantify::t10_spiral),
        ("t11", experiments_quantify::t11_adversarial),
        ("t12", experiments_quantify::t12_crossover),
        ("t13", experiments_quantify::t13_fig1),
        ("t14", experiments_quantify::t14_ablations),
        ("t15", experiments_nonzero::t15_extensions),
    ]
}
