//! Sharing-structure analysis of correlation maps.
//!
//! §3 and §5 of the paper read correlation maps *by eye*: nearest-neighbor
//! diagonals mean stretch is optimal, discrete thread blocks mean the block
//! size must divide the per-node thread count, uniform backgrounds mean no
//! placement helps. This module mechanizes that judgement so a runtime
//! system can act on tracked correlations without a human in the loop —
//! the "rough guess" §3 says a runtime could make.

use crate::correlation::CorrelationMatrix;
use std::fmt;

/// A machine judgement of a correlation map's dominant structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Structure {
    /// No meaningful off-diagonal sharing.
    Independent,
    /// Sharing concentrated within `distance` of the diagonal
    /// (nearest-neighbor patterns; stretch with block size ≥ distance is
    /// near-optimal).
    NearestNeighbor {
        /// Maximum thread distance carrying significant sharing.
        distance: usize,
    },
    /// Sharing concentrated in contiguous blocks of `block` threads
    /// (placement must keep blocks whole: `block` should divide the
    /// per-node thread count).
    Blocked {
        /// The detected block size.
        block: usize,
    },
    /// Sharing spread broadly over all pairs; no placement avoids it.
    AllToAll,
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Structure::Independent => write!(f, "independent"),
            Structure::NearestNeighbor { distance } => {
                write!(f, "nearest-neighbor (distance {distance})")
            }
            Structure::Blocked { block } => write!(f, "blocked ({block} threads)"),
            Structure::AllToAll => write!(f, "all-to-all"),
        }
    }
}

/// Summary statistics of a correlation map.
#[derive(Debug, Clone, PartialEq)]
pub struct MapProfile {
    /// The detected dominant structure.
    pub structure: Structure,
    /// Fraction of total off-diagonal mass within distance 1 of the
    /// diagonal.
    pub neighbor_fraction: f64,
    /// Fraction of thread pairs with any sharing at all.
    pub density: f64,
    /// Mean off-diagonal correlation over *sharing* pairs.
    pub mean_sharing: f64,
}

impl fmt::Display for MapProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | neighbor mass {:.0}% | density {:.0}% | mean sharing {:.1}",
            self.structure,
            self.neighbor_fraction * 100.0,
            self.density * 100.0,
            self.mean_sharing
        )
    }
}

/// Total off-diagonal mass of unordered pairs at exactly thread distance
/// `d`.
fn mass_at_distance(corr: &CorrelationMatrix, d: usize) -> u64 {
    let n = corr.num_threads();
    (0..n.saturating_sub(d)).map(|a| corr.get(a, a + d)).sum()
}

/// Detects an aligned contiguous block size: the smallest divisor `b` such
/// that (i) ≥ 70% of the mass falls inside aligned blocks and (ii) almost
/// no mass crosses an aligned boundary at distance < `b` — the clean-edge
/// signature distinguishing true blocks from diagonal bands (a chain has
/// boundary-crossing neighbor pairs; blocks do not).
fn best_block(corr: &CorrelationMatrix) -> Option<usize> {
    let n = corr.num_threads();
    let total = corr.total_correlation() / 2; // unordered pairs
    if total == 0 {
        return None;
    }
    let all_pairs = n * n.saturating_sub(1) / 2;
    let mut b = 2;
    while b <= n / 2 {
        if n.is_multiple_of(b) {
            // Contrast: mean in-block pair value must dominate the mean
            // cross-block pair value (robust to broad weak backgrounds,
            // like LU's perimeter sharing). Every pair counts, zero pairs
            // included: `n / b` blocks of `b(b - 1) / 2` pairs each, and
            // the rest of the pairs cross blocks.
            let in_pairs = (n / b * (b * (b - 1) / 2)) as u64;
            let cross_pairs = all_pairs as u64 - in_pairs;
            let mut in_mass = 0u64;
            corr.for_each_edge(|a, c, v| {
                if a / b == c / b {
                    in_mass += v;
                }
            });
            let cross_mass = total - in_mass;
            let in_mean = in_mass as f64 / in_pairs.max(1) as f64;
            let cross_mean = cross_mass as f64 / cross_pairs.max(1) as f64;
            // Edge sharpness at distance 1: aligned boundaries must be
            // clean (a chain or smooth band has strong boundary-crossing
            // neighbors and fails; true blocks pass).
            let (mut d1_in, mut d1_in_n) = (0u64, 0u64);
            let (mut d1_cross, mut d1_cross_n) = (0u64, 0u64);
            for a in 0..n - 1 {
                let v = corr.get(a, a + 1);
                if a / b == (a + 1) / b {
                    d1_in += v;
                    d1_in_n += 1;
                } else {
                    d1_cross += v;
                    d1_cross_n += 1;
                }
            }
            let d1_in_mean = d1_in as f64 / d1_in_n.max(1) as f64;
            let d1_cross_mean = d1_cross as f64 / d1_cross_n.max(1) as f64;
            let contrast_ok = in_mean > 0.0 && in_mean >= 4.0 * cross_mean;
            let edge_ok = d1_in_mean > 0.0 && d1_cross_mean <= 0.25 * d1_in_mean;
            if contrast_ok && edge_ok {
                return Some(b);
            }
        }
        b += 1;
    }
    None
}

/// Profiles a correlation map: classifies its structure and computes the
/// summary statistics above.
///
/// The classification rules mirror how §3 reads Table 3:
///
/// 1. no off-diagonal mass → [`Structure::Independent`];
/// 2. ≥ 80% of mass within a small band around the diagonal →
///    [`Structure::NearestNeighbor`];
/// 3. a divisor block size capturing ≥ 70% of mass →
///    [`Structure::Blocked`];
/// 4. otherwise → [`Structure::AllToAll`].
///
/// ```
/// use acorr_track::{profile_map, CorrelationMatrix, Structure};
/// let mut chain = CorrelationMatrix::zeros(8);
/// for i in 0..7 { chain.set(i, i + 1, 5); }
/// let p = profile_map(&chain);
/// assert_eq!(p.structure, Structure::NearestNeighbor { distance: 1 });
/// ```
pub fn profile_map(corr: &CorrelationMatrix) -> MapProfile {
    let n = corr.num_threads();
    let total = corr.total_correlation() / 2; // unordered pairs
    let sharing_pairs = corr.edge_count();
    let all_pairs = n * n.saturating_sub(1) / 2;
    let density = if all_pairs == 0 {
        0.0
    } else {
        sharing_pairs as f64 / all_pairs as f64
    };
    let mean_sharing = if sharing_pairs == 0 {
        0.0
    } else {
        total as f64 / sharing_pairs as f64
    };
    let neighbor_fraction = if total == 0 {
        0.0
    } else {
        mass_at_distance(corr, 1) as f64 / total as f64
    };

    let structure = if total == 0 {
        Structure::Independent
    } else if let Some(block) = best_block(corr) {
        // Clean aligned-block structure takes precedence: small blocks are
        // also near-diagonal, but their hard boundaries distinguish them.
        Structure::Blocked { block }
    } else {
        // Band test: smallest distance band holding 80% of the mass.
        let mut cumulative = 0u64;
        let mut band = None;
        for d in 1..n {
            cumulative += mass_at_distance(corr, d);
            if cumulative as f64 >= 0.8 * total as f64 {
                band = Some(d);
                break;
            }
        }
        let band = band.unwrap_or(n - 1);
        if band <= (n / 8).max(1) {
            Structure::NearestNeighbor { distance: band }
        } else {
            Structure::AllToAll
        }
    };
    MapProfile {
        structure,
        neighbor_fraction,
        density,
        mean_sharing,
    }
}

/// Suggests the per-node thread counts (divisors of `threads`) compatible
/// with the detected structure — §3's "an eight-node configuration would
/// probably have much more communication than a four-node configuration"
/// judgement, mechanized.
///
/// For blocked sharing, a node size is compatible when it is a multiple of
/// the block; for nearest-neighbor, any node size ≥ 2·distance works; for
/// all-to-all or independent sharing every size is equivalent.
pub fn compatible_node_sizes(profile: &MapProfile, threads: usize) -> Vec<usize> {
    let divisors: Vec<usize> = (1..=threads)
        .filter(|d| threads.is_multiple_of(*d))
        .collect();
    match profile.structure {
        Structure::Blocked { block } => divisors.into_iter().filter(|&d| d % block == 0).collect(),
        Structure::NearestNeighbor { distance } => divisors
            .into_iter()
            .filter(|&d| d >= 2 * distance)
            .collect(),
        Structure::Independent | Structure::AllToAll => divisors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, w: u64) -> CorrelationMatrix {
        let mut c = CorrelationMatrix::zeros(n);
        for i in 0..n - 1 {
            c.set(i, i + 1, w);
        }
        c
    }

    fn blocks(n: usize, b: usize, w: u64) -> CorrelationMatrix {
        let mut c = CorrelationMatrix::zeros(n);
        for a in 0..n {
            for d in (a + 1)..n {
                if a / b == d / b {
                    c.set(a, d, w);
                }
            }
        }
        c
    }

    fn uniform(n: usize, w: u64) -> CorrelationMatrix {
        let mut c = CorrelationMatrix::zeros(n);
        for a in 0..n {
            for d in (a + 1)..n {
                c.set(a, d, w);
            }
        }
        c
    }

    #[test]
    fn classifies_chain_as_nearest_neighbor() {
        let p = profile_map(&chain(32, 4));
        assert_eq!(p.structure, Structure::NearestNeighbor { distance: 1 });
        assert!((p.neighbor_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classifies_blocks_of_each_size() {
        for b in [4usize, 8, 16] {
            let p = profile_map(&blocks(32, b, 3));
            assert_eq!(p.structure, Structure::Blocked { block: b }, "size {b}");
        }
    }

    #[test]
    fn classifies_uniform_as_all_to_all() {
        let p = profile_map(&uniform(32, 2));
        assert_eq!(p.structure, Structure::AllToAll);
        assert_eq!(p.density, 1.0);
    }

    #[test]
    fn classifies_empty_as_independent() {
        let p = profile_map(&CorrelationMatrix::zeros(16));
        assert_eq!(p.structure, Structure::Independent);
        assert_eq!(p.density, 0.0);
        assert_eq!(p.mean_sharing, 0.0);
    }

    #[test]
    fn blocks_with_weak_background_still_detected() {
        // Ocean/LU style: blocks over a faint uniform background.
        let mut c = blocks(32, 8, 20);
        for a in 0..32 {
            for d in (a + 1)..32 {
                if c.get(a, d) == 0 {
                    c.set(a, d, 1);
                }
            }
        }
        let p = profile_map(&c);
        assert_eq!(p.structure, Structure::Blocked { block: 8 });
        assert_eq!(p.density, 1.0);
    }

    #[test]
    fn blocks_with_a_sparse_cross_background_stay_blocked() {
        // Clean blocks of 4 plus eight cross-block pairs at half the block
        // weight. Over all 96 cross-block pairs, zero pairs included, the
        // background is faint; over its non-zero pairs alone it would read
        // as half the block weight and the map as all-to-all.
        let mut c = blocks(16, 4, 10);
        for a in 0..8 {
            c.set(a, a + 8, 5);
        }
        let p = profile_map(&c);
        assert_eq!(p.structure, Structure::Blocked { block: 4 });
        assert_eq!(p.density, 32.0 / 120.0);
    }

    #[test]
    fn strong_background_flips_to_all_to_all() {
        let mut c = blocks(32, 8, 4);
        for a in 0..32 {
            for d in (a + 1)..32 {
                if c.get(a, d) == 0 {
                    c.set(a, d, 3);
                }
            }
        }
        assert_eq!(profile_map(&c).structure, Structure::AllToAll);
    }

    #[test]
    fn node_size_suggestions_follow_structure() {
        let blocked = profile_map(&blocks(32, 8, 3));
        assert_eq!(compatible_node_sizes(&blocked, 32), vec![8, 16, 32]);
        let nn = profile_map(&chain(32, 3));
        assert_eq!(
            compatible_node_sizes(&nn, 32),
            vec![2, 4, 8, 16, 32],
            "any node size ≥ 2 keeps most neighbor pairs internal"
        );
        let a2a = profile_map(&uniform(32, 1));
        assert_eq!(compatible_node_sizes(&a2a, 32).len(), 6);
    }

    #[test]
    fn display_formats() {
        let p = profile_map(&blocks(16, 4, 2));
        let s = p.to_string();
        assert!(s.contains("blocked (4 threads)"));
        assert_eq!(Structure::AllToAll.to_string(), "all-to-all");
        assert_eq!(
            Structure::NearestNeighbor { distance: 2 }.to_string(),
            "nearest-neighbor (distance 2)"
        );
        assert_eq!(Structure::Independent.to_string(), "independent");
    }
}
