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
//! Everything is a pure function of `(config, step)`. Each tenant's pair
//! count is known before generation, so [`TrafficDriver::step_edges_into`]
//! sizes the caller's buffer once, splits it into per-tenant slices, and
//! fills the slices in parallel with [`par_map_indexed`]; every tenant
//! writes its pairs already in order, and its random draws come from a
//! [`DetRng`] forked on `(tenant, generation)`. So any `jobs` count
//! produces byte-identical output. [`TrafficDriver::repeats`] tells a
//! caller when a step's list equals the previous one, so it need not be
//! built again.

use crate::pool::{par_map_indexed, resolve_threads};
use crate::rng::DetRng;
use std::cell::RefCell;
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

    /// Whether `step`'s edge list equals `step - 1`'s, so a caller that
    /// kept the previous list may reuse it. Static traffic repeats at every
    /// step after the first; hotspot and churn repeat within a generation,
    /// because their offsets, matchings and weights depend on the generation
    /// alone; diurnal weights move every step, so it never repeats. The
    /// answer may be `false` for equal lists, never `true` for different
    /// ones.
    pub fn repeats(&self, step: u64) -> bool {
        step > 0
            && match self.config.scenario {
                Scenario::Static => true,
                Scenario::Hotspot | Scenario::Churn => {
                    self.generation(step) == self.generation(step - 1)
                }
                Scenario::Diurnal => false,
            }
    }

    /// The edge list for `step`, generated with up to `jobs` workers
    /// (0 = all cores). Edges are `(a, b, weight)` with `a < b`, sorted
    /// ascending, disjoint across tenants — byte-identical for every
    /// `jobs` value.
    pub fn step_edges(&self, step: u64, jobs: usize) -> Vec<(u32, u32, u64)> {
        let mut edges = Vec::new();
        self.step_edges_into(step, jobs, &mut edges);
        edges
    }

    /// [`TrafficDriver::step_edges`] written into `edges`, whose previous
    /// contents are replaced and whose allocation is kept when it is large
    /// enough. The buffer is sized once from the tenants' pair counts and
    /// split into one slice per tenant, which the workers fill in place.
    pub fn step_edges_into(&self, step: u64, jobs: usize, edges: &mut Vec<(u32, u32, u64)>) {
        let g = self.generation(step);
        let pairs_of = |k: usize| self.shape(k, g).pairs(self.shards[k].1);
        edges.clear();
        edges.resize((0..self.shards.len()).map(pairs_of).sum(), (0, 0, 0));
        let mut rest = edges.as_mut_slice();
        let mut parts = Vec::with_capacity(self.shards.len());
        for k in 0..self.shards.len() {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(pairs_of(k));
            parts.push(part);
            rest = tail;
        }
        par_map_indexed(resolve_threads(jobs), parts, |k, out| {
            let (lo, len) = self.shards[k];
            let weight = self.intensity(k, step);
            match self.shape(k, g) {
                Shape::Ring(offset) => fill_ring(out, lo, len, offset, weight),
                Shape::Matching(r) => self.fill_matching(out, k, r, weight),
            }
        });
    }

    /// How tenant `k` shares in generation `g`.
    fn shape(&self, k: usize, g: u64) -> Shape {
        let len = self.shards[k].1;
        match self.config.scenario {
            Scenario::Static | Scenario::Diurnal => Shape::Ring(1),
            Scenario::Hotspot if k == 0 && len >= 3 => {
                Shape::Ring(1 + (g as usize * 5) % (len - 1))
            }
            Scenario::Hotspot => Shape::Ring(1),
            Scenario::Churn => match self.last_rematch(k, g) {
                None => Shape::Ring(1),
                Some(r) => Shape::Matching(r),
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

    /// Writes a seeded random perfect matching of tenant `k`'s shard, keyed
    /// by the generation `r` that introduced it, into `out` in ascending
    /// order. The shuffle pairs neighbours of a permutation; the partner
    /// array built from it names each thread's partner (itself when an odd
    /// shard leaves it unmatched), so walking the threads in order writes
    /// each pair once, at its lower thread, with no sort.
    fn fill_matching(&self, out: &mut [(u32, u32, u64)], k: usize, r: u64, weight: u64) {
        let (lo, len) = self.shards[k];
        let mut rng = DetRng::new(self.config.seed)
            .fork(0x7E_0000 ^ k as u64)
            .fork(r);
        MATCHING_SCRATCH.with_borrow_mut(|scratch| {
            scratch.clear();
            scratch.extend(0..len as u32);
            rng.shuffle(scratch);
            scratch.extend(0..len as u32);
            let (perm, partner) = scratch.split_at_mut(len);
            for pair in perm.chunks_exact(2) {
                partner[pair[0] as usize] = pair[1];
                partner[pair[1] as usize] = pair[0];
            }
            let mut slots = out.iter_mut();
            for (a, &b) in (0u32..).zip(partner.iter()) {
                if a < b {
                    let slot = slots.next().expect("a matching names len / 2 pairs");
                    *slot = (lo as u32 + a, lo as u32 + b, weight);
                }
            }
        });
    }
}

thread_local! {
    /// A worker's permutation and partner arrays for [`TrafficDriver`]'s
    /// matchings, reused across the tenants it fills.
    static MATCHING_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// How one tenant's threads share during a generation.
#[derive(Clone, Copy)]
enum Shape {
    /// Each thread shares with the one `offset` places ahead, wrapping.
    Ring(usize),
    /// The seeded random matching churn introduced at this generation.
    Matching(u64),
}

impl Shape {
    /// The distinct pairs this shape names over a shard of `len` threads: a
    /// ring names one per thread, except at `offset = len / 2`, where the
    /// two directions name each pair once between them; a matching pairs
    /// all but one thread of an odd shard.
    fn pairs(self, len: usize) -> usize {
        match self {
            Shape::Ring(offset) if 2 * offset == len => len / 2,
            Shape::Ring(_) => len,
            Shape::Matching(_) => len / 2,
        }
    }
}

/// Writes the ring `(i, i + offset mod len)` over a contiguous shard into
/// `out`, each pair normalized to `a < b` and in ascending order, for `0 <
/// offset < len`. No sort is needed: the pairs at `a` are the main edge `(a,
/// a + offset)` when `a + offset < len` and the wrap edge `(a, a + len -
/// offset)` when `a < offset`, and the nearer partner goes first. At `offset
/// = len / 2` the two are one pair, written once with both weights.
fn fill_ring(out: &mut [(u32, u32, u64)], lo: usize, len: usize, offset: usize, weight: u64) {
    debug_assert!(0 < offset && offset < len, "ring offset {offset} of {len}");
    if 2 * offset == len {
        for (a, slot) in (lo..).zip(out.iter_mut()) {
            *slot = (a as u32, (a + offset) as u32, 2 * weight);
        }
        return;
    }
    let mut slots = out.iter_mut();
    for a in 0..len {
        let mut partners = [
            (a + offset < len).then_some(a + offset),
            (a < offset).then_some(a + len - offset),
        ];
        if 2 * offset > len {
            partners.swap(0, 1);
        }
        for b in partners.into_iter().flatten() {
            let slot = slots.next().expect("a ring names len pairs");
            *slot = ((lo + a) as u32, (lo + b) as u32, weight);
        }
    }
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

    /// The reference normalizer: orders each pair `a < b`, sorts the list
    /// and sums the weights of duplicate pairs.
    fn sort_coalesce(named: impl IntoIterator<Item = (usize, usize, u64)>) -> Vec<(u32, u32, u64)> {
        let mut edges: Vec<_> = named
            .into_iter()
            .map(|(i, j, w)| (i.min(j) as u32, i.max(j) as u32, w))
            .collect();
        edges.sort_unstable();
        edges.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        edges
    }

    /// The pairs a ring over `lo..lo + len` names, one per thread:
    /// `(i, i + offset mod len)`.
    fn ring_named(lo: usize, len: usize, offset: usize, w: u64) -> Vec<(usize, usize, u64)> {
        (0..len)
            .map(|i| (lo + i, lo + (i + offset) % len, w))
            .collect()
    }

    /// The pairs tenant `k`'s matching from generation `r` names:
    /// neighbours of the seeded shuffle.
    fn matching_named(d: &TrafficDriver, k: usize, r: u64, w: u64) -> Vec<(usize, usize, u64)> {
        let (lo, len) = d.shards[k];
        let mut perm: Vec<usize> = (lo..lo + len).collect();
        DetRng::new(d.config.seed)
            .fork(0x7E_0000 ^ k as u64)
            .fork(r)
            .shuffle(&mut perm);
        perm.chunks_exact(2).map(|p| (p[0], p[1], w)).collect()
    }

    /// The reference generator: every tenant names its pairs in the order
    /// it draws them, then the step's whole list is sorted and coalesced.
    fn generate_sort_coalesce(d: &TrafficDriver, step: u64) -> Vec<(u32, u32, u64)> {
        sort_coalesce((0..d.shards.len()).flat_map(|k| {
            let (lo, len) = d.shards[k];
            let w = d.intensity(k, step);
            match d.shape(k, d.generation(step)) {
                Shape::Ring(offset) => ring_named(lo, len, offset, w),
                Shape::Matching(r) => matching_named(d, k, r, w),
            }
        }))
    }

    #[test]
    fn ring_edges_match_generate_sort_coalesce() {
        for len in 2..=40 {
            for offset in 1..len {
                let mut out = vec![(0, 0, 0); Shape::Ring(offset).pairs(len)];
                fill_ring(&mut out, 5, len, offset, 3);
                let oracle = sort_coalesce(ring_named(5, len, offset, 3));
                assert_eq!(out, oracle, "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn matching_fill_matches_the_sorted_shuffle_on_odd_and_even_shards() {
        for threads in [2, 3, 9, 10, 33, 64] {
            for tenants in [1, 2, 3] {
                let d =
                    TrafficDriver::new(TrafficConfig::new(threads, tenants, Scenario::Churn, 11));
                for k in 0..d.shards.len() {
                    for r in [0, 1, 7] {
                        let mut out = vec![(0, 0, 0); Shape::Matching(r).pairs(d.shards[k].1)];
                        d.fill_matching(&mut out, k, r, 5);
                        let oracle = sort_coalesce(matching_named(&d, k, r, 5));
                        assert_eq!(out, oracle, "{threads} threads, tenant {k}, r {r}");
                    }
                }
            }
        }
    }

    /// A random traffic shape and a step to generate.
    #[derive(Debug)]
    struct Case {
        config: TrafficConfig,
        step: u64,
        /// Another shape and step, whose list leaves the buffer dirty.
        before: (TrafficConfig, u64),
    }

    fn random_config(rng: &mut DetRng) -> TrafficConfig {
        let scenario = Scenario::ALL[rng.index(Scenario::ALL.len())];
        TrafficConfig::new(
            rng.range(2, 301) as usize,
            rng.range(1, 13) as usize,
            scenario,
            rng.next_u64(),
        )
        .with_period(rng.range(1, 16))
    }

    fn random_case(rng: &mut DetRng) -> Case {
        Case {
            config: random_config(rng),
            step: rng.range(0, 41),
            before: (random_config(rng), rng.range(0, 41)),
        }
    }

    #[test]
    fn a_repeated_step_names_the_previous_steps_list() {
        crate::forall(256, 0, random_case, |case| {
            let d = TrafficDriver::new(case.config);
            if d.repeats(case.step) {
                assert_eq!(d.step_edges(case.step, 1), d.step_edges(case.step - 1, 1));
            }
        });
    }

    #[test]
    fn the_in_place_fill_matches_generate_sort_coalesce_in_a_dirty_buffer() {
        crate::forall(128, 0, random_case, |case| {
            let d = TrafficDriver::new(case.config);
            let oracle = generate_sort_coalesce(&d, case.step);
            for jobs in [1, 2, 4] {
                let mut edges = Vec::new();
                let (config, step) = case.before;
                TrafficDriver::new(config).step_edges_into(step, jobs, &mut edges);
                d.step_edges_into(case.step, jobs, &mut edges);
                assert_eq!(edges, oracle, "jobs {jobs}");
            }
        });
    }

    #[test]
    fn every_scenario_repeats_as_its_script_says() {
        let repeated = |scenario| {
            let d = driver(scenario);
            (0..30).filter(|&s| d.repeats(s)).count()
        };
        assert_eq!(repeated(Scenario::Static), 29);
        assert_eq!(
            repeated(Scenario::Hotspot),
            27,
            "steps 0, 12 and 24 start generations"
        );
        assert_eq!(repeated(Scenario::Churn), 27);
        assert_eq!(repeated(Scenario::Diurnal), 0);
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
