//! Deterministic multi-tenant synthetic traffic.
//!
//! The online placement service (ROADMAP item 1) needs *live* load: a
//! stream of sharing observations whose affinity structure shifts
//! mid-run, so windowed tracking and re-mapping have something to react
//! to. This module is that stream's source. A [`TrafficDriver`] carves
//! the thread range into contiguous per-tenant shards and, for every
//! step, emits a sorted edge list `(a, b, weight)` of intra-tenant
//! sharing — raw material for a correlation store built one layer up
//! (this crate sits below `acorr-track` and therefore speaks edge
//! lists, not stores).
//!
//! Everything is a pure function of `(config, step)`: per-tenant edges
//! come from an [`DetRng`] forked on `(tenant, generation)`, tenants are
//! generated in parallel with [`par_map_range`] and concatenated in
//! tenant order, so any `jobs` count produces byte-identical output.

use crate::pool::{par_map_range, resolve_threads};
use crate::rng::DetRng;
use std::fmt;

/// A scripted traffic scenario: how tenant affinity evolves over steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Constant ring affinity, constant intensity: nothing ever shifts.
    Static,
    /// Tenant 0 runs hot and rotates its partner stride every
    /// generation — the paper's "sharing pattern changes mid-run" case.
    Hotspot,
    /// Each generation retires one tenant (round-robin) and replaces it
    /// with a fresh random pairing — tenant churn.
    Churn,
    /// Fixed ring structure; per-tenant intensity follows a phase-offset
    /// triangular wave — diurnal skew that moves load, not structure.
    Diurnal,
}

impl Scenario {
    /// Every scenario, in CLI/documentation order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Static,
        Scenario::Hotspot,
        Scenario::Churn,
        Scenario::Diurnal,
    ];

    /// The CLI name (`static`, `hotspot`, `churn`, `diurnal`).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Static => "static",
            Scenario::Hotspot => "hotspot",
            Scenario::Churn => "churn",
            Scenario::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI name back into a scenario.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shape of the synthetic load: thread count, tenancy, scenario script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Total threads across all tenants.
    pub threads: usize,
    /// Number of tenants sharing the thread range (clamped so every
    /// tenant owns at least two threads).
    pub tenants: usize,
    /// The affinity script.
    pub scenario: Scenario,
    /// Seed for every random draw the script makes.
    pub seed: u64,
    /// Steps per generation (hotspot rotation / churn cadence) and per
    /// diurnal cycle. Clamped to ≥ 1.
    pub period: u64,
}

impl TrafficConfig {
    /// A config with the given shape and the documented default period
    /// of 12 steps.
    pub fn new(threads: usize, tenants: usize, scenario: Scenario, seed: u64) -> TrafficConfig {
        TrafficConfig {
            threads,
            tenants,
            scenario,
            seed,
            period: 12,
        }
    }

    /// Replaces the generation/cycle period.
    #[must_use]
    pub fn with_period(mut self, period: u64) -> TrafficConfig {
        self.period = period.max(1);
        self
    }
}

/// Deterministic traffic source: emits one sorted intra-tenant edge
/// list per step.
#[derive(Debug, Clone)]
pub struct TrafficDriver {
    config: TrafficConfig,
    /// Per-tenant `(first_thread, len)` contiguous shards.
    shards: Vec<(usize, usize)>,
}

impl TrafficDriver {
    /// Builds a driver, carving `threads` into contiguous tenant shards
    /// (stretch-style quotas: earlier tenants absorb the remainder).
    ///
    /// # Panics
    ///
    /// Panics if the config has fewer than two threads.
    pub fn new(config: TrafficConfig) -> TrafficDriver {
        assert!(config.threads >= 2, "traffic needs at least two threads");
        let mut config = config;
        config.period = config.period.max(1);
        config.tenants = config.tenants.clamp(1, config.threads / 2);
        let base = config.threads / config.tenants;
        let extra = config.threads % config.tenants;
        let mut shards = Vec::with_capacity(config.tenants);
        let mut lo = 0;
        for k in 0..config.tenants {
            let len = base + usize::from(k < extra);
            shards.push((lo, len));
            lo += len;
        }
        TrafficDriver { config, shards }
    }

    /// The (clamped) config this driver runs.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Per-tenant `(first_thread, len)` shards, ascending and disjoint.
    pub fn shards(&self) -> &[(usize, usize)] {
        &self.shards
    }

    /// The generation a step belongs to.
    pub fn generation(&self, step: u64) -> u64 {
        step / self.config.period
    }

    /// Ground truth for tests: the steps in `0..steps` where the edge
    /// *structure* (not just intensity) changes relative to the
    /// previous step. Static and diurnal traffic never shift.
    pub fn shift_steps(&self, steps: u64) -> Vec<u64> {
        match self.config.scenario {
            Scenario::Static | Scenario::Diurnal => Vec::new(),
            Scenario::Hotspot | Scenario::Churn => (1..steps)
                .filter(|&s| self.generation(s) != self.generation(s - 1))
                .collect(),
        }
    }

    /// The edge list for `step`, generated with up to `jobs` workers
    /// (0 = all cores). Edges are `(a, b, weight)` with `a < b`, sorted
    /// ascending, disjoint across tenants — byte-identical for every
    /// `jobs` value.
    pub fn step_edges(&self, step: u64, jobs: usize) -> Vec<(u32, u32, u64)> {
        let workers = resolve_threads(jobs);
        let per_tenant = par_map_range(workers, self.shards.len(), |k| self.tenant_edges(k, step));
        let mut edges = Vec::with_capacity(per_tenant.iter().map(Vec::len).sum());
        for mut tenant in per_tenant {
            edges.append(&mut tenant);
        }
        edges
    }

    /// One tenant's sorted, coalesced edges for `step`.
    fn tenant_edges(&self, k: usize, step: u64) -> Vec<(u32, u32, u64)> {
        let (lo, len) = self.shards[k];
        let g = self.generation(step);
        let weight = self.intensity(k, step);
        match self.config.scenario {
            Scenario::Static | Scenario::Diurnal => ring_edges(lo, len, 1, weight),
            Scenario::Hotspot => {
                let offset = if k == 0 && len >= 3 {
                    1 + (g as usize * 5) % (len - 1)
                } else {
                    1
                };
                ring_edges(lo, len, offset, weight)
            }
            Scenario::Churn => match self.last_rematch(k, g) {
                None => ring_edges(lo, len, 1, weight),
                Some(r) => self.matched_edges(k, r, weight),
            },
        }
    }

    /// Per-edge weight for tenant `k` at `step`.
    fn intensity(&self, k: usize, step: u64) -> u64 {
        match self.config.scenario {
            Scenario::Static => 4,
            Scenario::Hotspot => {
                if k == 0 {
                    16
                } else {
                    2
                }
            }
            // A freshly re-matched tenant arrives with an onboarding
            // burst (3x) for its first generation, then settles: the
            // structural change plus the burst is what pushes the
            // window delta past the detector's firing threshold.
            Scenario::Churn => {
                let g = self.generation(step);
                if self.last_rematch(k, g) == Some(g) {
                    18
                } else {
                    6
                }
            }
            Scenario::Diurnal => {
                // Triangular wave over one period, phase-shifted per
                // tenant: weight sweeps 1..=9 and back.
                let period = self.config.period;
                let phase = (k as u64 * period) / self.config.tenants as u64;
                let pos = (step + phase) % period;
                let half = (period / 2).max(1);
                let tri = if pos <= half { pos } else { period - pos };
                1 + (8 * tri) / half
            }
        }
    }

    /// The most recent generation ≤ `g` at which churn re-matched
    /// tenant `k` (generation `g` re-matches tenant `g % tenants`), or
    /// `None` if `k` still runs its initial ring.
    fn last_rematch(&self, k: usize, g: u64) -> Option<u64> {
        let tenants = self.config.tenants as u64;
        let k = k as u64;
        if g < k {
            return None;
        }
        Some(g - ((g - k) % tenants))
    }

    /// A seeded random perfect matching of tenant `k`'s shard, keyed by
    /// the generation `r` that introduced it, sorted (a matching names no
    /// pair twice).
    fn matched_edges(&self, k: usize, r: u64, weight: u64) -> Vec<(u32, u32, u64)> {
        let (lo, len) = self.shards[k];
        let mut perm: Vec<usize> = (0..len).collect();
        let mut rng = DetRng::new(self.config.seed)
            .fork(0x7E_0000 ^ k as u64)
            .fork(r);
        rng.shuffle(&mut perm);
        let mut edges = Vec::with_capacity(len / 2);
        for pair in perm.chunks_exact(2) {
            let (a, b) = ((lo + pair[0]) as u32, (lo + pair[1]) as u32);
            edges.push((a.min(b), a.max(b), weight));
        }
        edges.sort_unstable();
        edges
    }
}

/// Ring edges `(i, i + offset mod len)` over a contiguous shard, each
/// pair normalized to `a < b`, sorted and coalesced, for `0 < offset <
/// len`. They come out in order without a sort: the pairs at `a` are the
/// main edge `(a, a + offset)` when `a + offset < len` and the wrap edge
/// `(a, a + len - offset)` when `a < offset`, and the nearer partner goes
/// first. At `offset = len / 2` the two are one pair, which `coalesce`
/// sums.
fn ring_edges(lo: usize, len: usize, offset: usize, weight: u64) -> Vec<(u32, u32, u64)> {
    debug_assert!(0 < offset && offset < len, "ring offset {offset} of {len}");
    let mut edges = Vec::with_capacity(len);
    for a in 0..len {
        let mut partners = [
            (a + offset < len).then_some(a + offset),
            (a < offset).then_some(a + len - offset),
        ];
        if 2 * offset > len {
            partners.swap(0, 1);
        }
        for b in partners.into_iter().flatten() {
            edges.push(((lo + a) as u32, (lo + b) as u32, weight));
        }
    }
    coalesce(&mut edges);
    edges
}

/// Sums the weights of adjacent duplicate `(a, b)` entries in a sorted
/// edge list (an offset of `len / 2` names each pair twice).
fn coalesce(edges: &mut Vec<(u32, u32, u64)>) {
    let mut out = 0;
    for i in 0..edges.len() {
        if out > 0 && edges[out - 1].0 == edges[i].0 && edges[out - 1].1 == edges[i].1 {
            edges[out - 1].2 += edges[i].2;
        } else {
            edges[out] = edges[i];
            out += 1;
        }
    }
    edges.truncate(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(scenario: Scenario) -> TrafficDriver {
        TrafficDriver::new(TrafficConfig::new(32, 4, scenario, 7))
    }

    #[test]
    fn shards_partition_the_thread_range() {
        for threads in [2, 7, 32, 65] {
            for tenants in [1, 3, 4, 100] {
                let d =
                    TrafficDriver::new(TrafficConfig::new(threads, tenants, Scenario::Static, 0));
                let mut covered = 0;
                for &(lo, len) in d.shards() {
                    assert_eq!(lo, covered, "shards are contiguous and ascending");
                    assert!(len >= 2, "every tenant owns at least two threads");
                    covered += len;
                }
                assert_eq!(covered, threads);
            }
        }
    }

    #[test]
    fn edges_are_sorted_normalized_and_in_range() {
        for scenario in Scenario::ALL {
            let d = driver(scenario);
            for step in 0..36 {
                let edges = d.step_edges(step, 1);
                assert!(!edges.is_empty());
                for w in edges.windows(2) {
                    assert!(w[0] < w[1], "{scenario}: sorted, no duplicates");
                }
                for &(a, b, v) in &edges {
                    assert!(a < b, "{scenario}: normalized");
                    assert!((b as usize) < 32, "{scenario}: in range");
                    assert!(v > 0, "{scenario}: positive weight");
                }
            }
        }
    }

    #[test]
    fn step_edges_are_jobs_invariant() {
        for scenario in Scenario::ALL {
            let d = driver(scenario);
            for step in [0, 5, 12, 25] {
                let seq = d.step_edges(step, 1);
                assert_eq!(seq, d.step_edges(step, 4), "{scenario} step {step}");
                assert_eq!(seq, d.step_edges(step, 8), "{scenario} step {step}");
            }
        }
    }

    #[test]
    fn static_traffic_never_changes() {
        let d = driver(Scenario::Static);
        let first = d.step_edges(0, 1);
        for step in 1..30 {
            assert_eq!(first, d.step_edges(step, 1));
        }
        assert!(d.shift_steps(30).is_empty());
    }

    #[test]
    fn hotspot_rotates_only_the_hot_tenant_each_generation() {
        let d = driver(Scenario::Hotspot);
        let before = d.step_edges(11, 1);
        let after = d.step_edges(12, 1);
        assert_ne!(before, after, "generation boundary shifts structure");
        let (_, hot_len) = d.shards()[0];
        let outside_hot = |edges: &[(u32, u32, u64)]| {
            edges
                .iter()
                .filter(|&&(a, _, _)| a as usize >= hot_len)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(
            outside_hot(&before),
            outside_hot(&after),
            "cold tenants keep their structure"
        );
        assert_eq!(d.shift_steps(48), vec![12, 24, 36]);
    }

    #[test]
    fn hot_tenant_dominates_the_mass() {
        let d = driver(Scenario::Hotspot);
        let (_, hot_len) = d.shards()[0];
        let edges = d.step_edges(0, 1);
        let hot: u64 = edges
            .iter()
            .filter(|&&(a, _, _)| (a as usize) < hot_len)
            .map(|&(_, _, v)| v)
            .sum();
        let cold: u64 = edges
            .iter()
            .filter(|&&(a, _, _)| a as usize >= hot_len)
            .map(|&(_, _, v)| v)
            .sum();
        assert!(hot > 2 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn churn_rematches_one_tenant_per_generation() {
        let d = driver(Scenario::Churn);
        let shards = d.shards().to_vec();
        let tenant_of = |a: u32| {
            shards
                .iter()
                .position(|&(lo, len)| (a as usize) >= lo && (a as usize) < lo + len)
                .unwrap()
        };
        // Generation 1 (steps 12..) re-matches tenant 1 only: its edge
        // *structure* changes. Tenant 0's onboarding burst from
        // generation 0 expires at the same boundary, but that is a
        // weight change on an unchanged matching.
        let before = d.step_edges(11, 1);
        let after = d.step_edges(12, 1);
        let pick = |edges: &[(u32, u32, u64)], k: usize| {
            edges
                .iter()
                .filter(|&&(a, _, _)| tenant_of(a) == k)
                .copied()
                .collect::<Vec<_>>()
        };
        let structure = |edges: Vec<(u32, u32, u64)>| {
            edges
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect::<Vec<_>>()
        };
        let restructured: Vec<usize> = (0..shards.len())
            .filter(|&k| structure(pick(&before, k)) != structure(pick(&after, k)))
            .collect();
        assert_eq!(restructured, vec![1]);
        // Tenant 0 keeps its matching but sheds the 3x onboarding burst.
        assert_eq!(structure(pick(&before, 0)), structure(pick(&after, 0)));
        assert!(pick(&before, 0)
            .iter()
            .zip(pick(&after, 0))
            .all(|(b, a)| b.2 == 3 * a.2));
    }

    #[test]
    fn churn_matchings_are_stable_within_a_generation() {
        let d = driver(Scenario::Churn);
        assert_eq!(d.step_edges(12, 1), d.step_edges(23, 1));
    }

    #[test]
    fn diurnal_shifts_weights_but_not_structure() {
        let d = driver(Scenario::Diurnal);
        let structure = |step| {
            d.step_edges(step, 1)
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect::<Vec<_>>()
        };
        assert_eq!(structure(0), structure(7));
        assert_ne!(
            d.step_edges(0, 1),
            d.step_edges(6, 1),
            "per-tenant intensity follows the wave"
        );
        assert!(d.shift_steps(48).is_empty());
    }

    #[test]
    fn ring_edges_match_generate_sort_coalesce() {
        // The reference: each thread names its pair, then sort and coalesce.
        let oracle = |lo: usize, len: usize, offset: usize, weight: u64| {
            let mut edges = Vec::new();
            for i in 0..len {
                let j = (i + offset) % len;
                if i != j {
                    let (a, b) = ((lo + i) as u32, (lo + j) as u32);
                    edges.push((a.min(b), a.max(b), weight));
                }
            }
            edges.sort_unstable();
            coalesce(&mut edges);
            edges
        };
        for len in 1..=40 {
            for offset in 1..len {
                assert_eq!(
                    ring_edges(5, len, offset, 3),
                    oracle(5, len, offset, 3),
                    "len {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.name()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    #[test]
    fn tenant_count_is_clamped() {
        let d = TrafficDriver::new(TrafficConfig::new(6, 100, Scenario::Static, 0));
        assert_eq!(d.config().tenants, 3);
        assert_eq!(d.shards().len(), 3);
    }
}
