//! # acorr-apps — the application suite
//!
//! Deterministic access-pattern replicas of the paper's Table 1
//! applications, written against the `acorr-dsm` [`Program`] API:
//!
//! | Program | Input | Synchronization | Sharing pattern |
//! |---------|-------|-----------------|-----------------|
//! | [`Barnes`] | 8192 bodies | barrier, lock | diagonal + broad background |
//! | [`Fft`] (6/7/8) | 64³ … 64²×256 | barrier | input-dependent thread clusters |
//! | [`Lu`] (1k/2k) | 1024²/2048² | barrier | grid-row blocks, high sharing degree |
//! | [`Ocean`] | 258² grids ×24 | barrier, lock | fixed-count diagonal blocks + background |
//! | [`Spatial`] | 4096 molecules | barrier, lock | two phases with distinct groupings |
//! | [`Sor`] | 2048² | barrier | pure nearest-neighbor |
//! | [`Water`] | 512 molecules | barrier, lock | cyclic half-window (dips then rises) |
//! | [`Drift`] | dynamic ring (§7) | barrier, lock | partner offset jumps per phase |
//!
//! Each module's docs explain which paper observation its access pattern
//! reproduces and how. [`suite`] and [`by_name`] build the standard
//! configurations used by the benchmark harness. [`Racey`] is a
//! deliberately racy two-thread fixture for the schedule explorer; it is
//! not part of the suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes;
pub mod common;
pub mod drift;
pub mod fft;
pub mod lu;
pub mod ocean;
pub mod racey;
pub mod sor;
pub mod spatial;
pub mod water;

pub use barnes::Barnes;
pub use drift::Drift;
pub use fft::Fft;
pub use lu::Lu;
pub use ocean::Ocean;
pub use racey::Racey;
pub use sor::Sor;
pub use spatial::Spatial;
pub use water::Water;

use acorr_dsm::Program;

/// The application names of Table 1, in the paper's order.
pub const SUITE_NAMES: [&str; 10] = [
    "Barnes", "FFT6", "FFT7", "FFT8", "LU1k", "LU2k", "Ocean", "Spatial", "SOR", "Water",
];

/// The subset evaluated in Table 2 / Figure 1.
pub const TABLE2_NAMES: [&str; 8] = [
    "Barnes", "FFT7", "FFT8", "LU2k", "Ocean", "Spatial", "SOR", "Water",
];

/// Builds one paper-configured application by Table 1 name.
///
/// Returns `None` for unknown names.
///
/// # Panics
///
/// Panics if `threads` is zero or above [`max_threads`]`(name)`.
///
/// ```
/// use acorr_apps::by_name;
/// use acorr_dsm::Program;
/// let sor = by_name("SOR", 64).unwrap();
/// assert_eq!(sor.num_threads(), 64);
/// assert!(by_name("NotAnApp", 64).is_none());
/// ```
pub fn by_name(name: &str, threads: usize) -> Option<Box<dyn Program>> {
    Some(match name {
        "Barnes" => Box::new(Barnes::paper(threads)),
        "FFT6" => Box::new(Fft::paper6(threads)),
        "FFT7" => Box::new(Fft::paper7(threads)),
        "FFT8" => Box::new(Fft::paper8(threads)),
        "LU1k" => Box::new(Lu::paper1k(threads)),
        "LU2k" => Box::new(Lu::paper2k(threads)),
        "Ocean" => Box::new(Ocean::paper(threads)),
        "Spatial" => Box::new(Spatial::paper(threads)),
        "SOR" => Box::new(Sor::paper(threads)),
        "Water" => Box::new(Water::paper(threads)),
        _ => return None,
    })
}

/// The most threads [`by_name`] builds `name` with: one per body, cell,
/// grid row or molecule of the paper input, and unbounded for the other
/// applications. Returns `None` for unknown names.
///
/// ```
/// use acorr_apps::max_threads;
/// assert_eq!(max_threads("Water"), Some(512));
/// assert_eq!(max_threads("FFT6"), Some(usize::MAX));
/// assert_eq!(max_threads("NotAnApp"), None);
/// ```
pub fn max_threads(name: &str) -> Option<usize> {
    match name {
        "Barnes" => Some(barnes::PAPER_BODIES),
        "Spatial" => Some(spatial::CELLS),
        "SOR" => Some(sor::PAPER_ROWS),
        "Water" => Some(water::PAPER_MOLECULES),
        _ if SUITE_NAMES.contains(&name) => Some(usize::MAX),
        _ => None,
    }
}

/// The full Table 1 suite at paper input sizes.
pub fn suite(threads: usize) -> Vec<Box<dyn Program>> {
    SUITE_NAMES
        .iter()
        .map(|n| by_name(n, threads).expect("suite names are known"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_dsm::validate_iteration;

    #[test]
    fn suite_builds_all_ten() {
        let apps = suite(64);
        assert_eq!(apps.len(), 10);
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names, SUITE_NAMES.to_vec());
    }

    #[test]
    fn every_suite_member_validates_at_paper_thread_counts() {
        for threads in [32, 48, 64] {
            for app in suite(threads) {
                validate_iteration(&app, 0)
                    .unwrap_or_else(|e| panic!("{} @ {threads}: {e}", app.name()));
                assert_eq!(app.num_threads(), threads);
            }
        }
    }

    #[test]
    fn mini_suite_validates() {
        // Reduced-size variants of every application: same access-pattern
        // structure, much smaller footprints.
        let threads = 8;
        let mini: Vec<Box<dyn Program>> = vec![
            Box::new(Barnes::new(1024, threads)),
            Box::new(Fft::new("FFT-mini", 16, 16, 16, threads)),
            Box::new(Lu::new("LU-mini", 256, threads)),
            Box::new(Ocean::new(64, threads)),
            Box::new(Spatial::new(threads)),
            Box::new(Sor::new(256, 256, threads)),
            Box::new(Water::new(128, threads)),
        ];
        for app in mini {
            validate_iteration(&app, 0).unwrap();
            validate_iteration(&app, 3).unwrap();
        }
    }

    #[test]
    fn max_threads_is_the_bound_by_name_enforces() {
        for name in SUITE_NAMES {
            let max = max_threads(name).expect("suite names are known");
            let builds = |threads| std::panic::catch_unwind(|| by_name(name, threads)).is_ok();
            assert!(!builds(0), "{name} built with 0 threads");
            if max < usize::MAX {
                assert_eq!(by_name(name, max).unwrap().num_threads(), max);
                assert!(!builds(max + 1), "{name} built above {max}");
            }
        }
        assert_eq!(max_threads("Drift"), None, "Drift is not a Table 1 name");
    }

    #[test]
    fn table2_subset_is_contained_in_suite() {
        for name in TABLE2_NAMES {
            assert!(SUITE_NAMES.contains(&name));
            assert!(by_name(name, 16).is_some());
        }
    }
}
