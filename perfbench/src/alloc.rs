//! The five allocators, each in the configuration the allocation service
//! uses: the defaults, with the binpack family on one thread.
//!
//! The `lsra` CLI's binpack fans out over every core above 50k
//! instructions. On a 2-vCPU shared host that speed-up comes and goes with
//! the other tenants' load: binpack on `scale` took 65–113 ms across
//! processes 2-way parallel, and no less than on one thread whenever the
//! second vCPU was busy. One thread measures the allocator, not the
//! scheduler.

use lsra_core::{BinpackAllocator, BinpackConfig, RegisterAllocator};

/// Allocator names in CLI order.
pub const NAMES: [&str; 5] = ["binpack", "two-pass", "coloring", "poletto", "ion"];

/// The allocator called `name` (one of [`NAMES`]). `time_phases` turns on
/// the binpack family's per-phase clocks; the traced run alone sets it.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn make(name: &str, time_phases: bool) -> Box<dyn RegisterAllocator> {
    match name {
        "binpack" => Box::new(BinpackAllocator::new(BinpackConfig {
            workers: 1,
            time_phases,
            ..BinpackConfig::default()
        })),
        "two-pass" => Box::new(BinpackAllocator::new(BinpackConfig {
            workers: 1,
            time_phases,
            ..BinpackConfig::two_pass()
        })),
        "coloring" => Box::new(lsra_coloring::ColoringAllocator),
        "poletto" => Box::new(lsra_poletto::PolettoAllocator),
        "ion" => Box::new(lsra_ion::IonAllocator),
        other => panic!("unknown allocator `{other}`"),
    }
}

/// Index of `name` in [`NAMES`].
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn index(name: &str) -> usize {
    NAMES.iter().position(|n| *n == name).unwrap_or_else(|| panic!("unknown allocator `{name}`"))
}
