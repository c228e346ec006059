//! Sparse correlation storage for production-scale thread counts.
//!
//! The dense [`CorrelationMatrix`] spends `8·T²` bytes whether threads share
//! or not — 8 TB at a million threads. Real correlation structure is sparse
//! (the paper's apps share along chains, blocks and a few hot pages), so
//! [`SparseCorrelation`] stores only the non-zero pairs, mirrored on both
//! endpoints, plus a dense diagonal, giving `O(T + E)` memory and `O(deg)`
//! neighbor iteration for the multilevel partitioner.
//!
//! Both sparse stores keep their pairs as flat CSR rows: one `offsets`
//! array of `T + 1` row starts and one `entries` array of `(partner, value)`
//! pairs, each row sorted by partner, coalesced, free of zero values and
//! without gaps. A store is two allocations however many threads it covers.
//! Per-thread lists cost one allocation per thread, and in the serve loop,
//! which builds, folds and frees a 10⁵-thread store every step, that
//! allocation was most of the step's time. Every construction path yields
//! the same canonical layout, so the derived equality compares contents.
//!
//! Determinism and equivalence contracts (tested against the dense matrix):
//!
//! * iteration is always in ascending `(a, b)` order, so every consumer sum
//!   and tie-break reproduces the dense code paths bit-for-bit;
//! * [`SparseCorrelation::delta`] performs the same order-independent `u64`
//!   diff/mass sums as [`correlation_delta`](crate::correlation_delta) —
//!   identical `f64` results;
//! * [`SparseAged::fold_window`] closes a detector window in one walk per
//!   row over the baseline, open and last rows. It returns the divergence
//!   of the pre-fold snapshot from the window, summed as `u64`s during the
//!   walk, and applies the exact per-pair `f64` sequence of
//!   [`AgedCorrelation`](crate::AgedCorrelation) (`val·decay + round`);
//!   pairs absent from both sides are exact zeros under that recurrence, so
//!   dropping them is lossless. An edge only leaves the accumulator when
//!   decay underflows it to exactly `0.0`.

use crate::correlation::CorrelationMatrix;
use crate::delta::normalized_divergence;
use crate::store::{AgedStore, CorrelationStore};
use std::fmt;

/// Flat CSR rows: row `t` is `entries[offsets[t]..offsets[t + 1]]`, sorted
/// by partner, one entry per partner, no zero values, and mirrored — `u`
/// sits in row `t` exactly when `t` sits in row `u`, with the same value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows<V> {
    offsets: Vec<usize>,
    entries: Vec<(u32, V)>,
}

impl<V: Copy> Rows<V> {
    /// `n` empty rows.
    fn empty(n: usize) -> Self {
        Rows {
            offsets: vec![0; n + 1],
            entries: Vec::new(),
        }
    }

    fn row(&self, t: usize) -> &[(u32, V)] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Every row in order; cheaper per row than [`row`](Rows::row).
    fn iter(&self) -> impl Iterator<Item = &[(u32, V)]> {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// The value held for partner `b` in row `a`.
    fn find(&self, a: usize, b: usize) -> Option<V> {
        let row = self.row(a);
        let pos = row.binary_search_by_key(&(b as u32), |e| e.0).ok()?;
        Some(row[pos].1)
    }

    /// Number of unordered pairs held (each pair sits in two rows).
    fn pairs(&self) -> usize {
        self.entries.len() / 2
    }

    /// Sets row `a`'s entry for partner `b`, removing it on `None`, and
    /// shifts every later row start: `O(E)`, which only the element-wise
    /// `set`/`add` path pays.
    fn splice(&mut self, a: usize, b: usize, v: Option<V>) {
        let start = self.offsets[a];
        let found = self.row(a).binary_search_by_key(&(b as u32), |e| e.0);
        match (found, v) {
            (Ok(i), Some(v)) => self.entries[start + i].1 = v,
            (Ok(i), None) => {
                self.entries.remove(start + i);
                self.offsets[a + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            (Err(i), Some(v)) => {
                self.entries.insert(start + i, (b as u32, v));
                self.offsets[a + 1..].iter_mut().for_each(|o| *o += 1);
            }
            (Err(_), None) => {}
        }
    }
}

/// The part of row `t` whose partners exceed `t`.
fn upper<V>(row: &[(u32, V)], t: usize) -> &[(u32, V)] {
    &row[row.partition_point(|e| (e.0 as usize) <= t)..]
}

/// Calls `f(partner, mine, theirs)` for every partner in the sorted union
/// of two rows, ascending.
fn for_each_union<A: Copy, B: Copy>(
    mine: &[(u32, A)],
    theirs: &[(u32, B)],
    mut f: impl FnMut(u32, Option<A>, Option<B>),
) {
    let (mut i, mut j) = (0, 0);
    while i < mine.len() && j < theirs.len() {
        let ((a, va), (b, vb)) = (mine[i], theirs[j]);
        if a == b {
            f(a, Some(va), Some(vb));
            i += 1;
            j += 1;
        } else if a < b {
            f(a, Some(va), None);
            i += 1;
        } else {
            f(b, None, Some(vb));
            j += 1;
        }
    }
    for &(a, va) in &mine[i..] {
        f(a, Some(va), None);
    }
    for &(b, vb) in &theirs[j..] {
        f(b, None, Some(vb));
    }
}

/// A symmetric sparse correlation store: flat CSR rows of each thread's
/// non-zero partners, plus a dense diagonal (own page counts).
///
/// ```
/// use acorr_track::{CorrelationStore, SparseCorrelation};
/// let mut s = SparseCorrelation::zeros(1_000_000);
/// s.set(3, 999_999, 7);
/// assert_eq!(s.get(999_999, 3), 7);
/// assert_eq!(s.edge_count(), 1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct SparseCorrelation {
    n: usize,
    diag: Vec<u64>,
    rows: Rows<u64>,
}

impl Clone for SparseCorrelation {
    fn clone(&self) -> Self {
        SparseCorrelation {
            n: self.n,
            diag: self.diag.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Copies into this store's buffers, so copying one window's first
    /// round into the detector's open window allocates nothing once the
    /// buffers are large enough.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.diag.clone_from(&source.diag);
        self.rows.offsets.clone_from(&source.rows.offsets);
        self.rows.entries.clone_from(&source.rows.entries);
    }
}

impl SparseCorrelation {
    /// An empty store over `n` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32` range (the partner index width).
    pub fn zeros(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "thread count exceeds u32 range");
        SparseCorrelation {
            n,
            diag: vec![0; n],
            rows: Rows::empty(n),
        }
    }

    /// Builds a store from an edge list; duplicate `(a, b)` entries sum,
    /// `(t, t)` entries accumulate onto the diagonal, zero values drop.
    /// The input order is irrelevant (sums commute), so parallel generators
    /// produce identical stores regardless of chunking.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut s = SparseCorrelation::zeros(n);
        // Counting sort into one buffer: count each row's entries, turn the
        // counts into row ends, then fill every row backwards from its end,
        // which leaves `offsets[t]` at the row's start.
        let flat: Vec<(u32, u32, u64)> = edges.into_iter().collect();
        let offsets = &mut s.rows.offsets;
        for &(a, b, v) in &flat {
            let (a, b) = (a as usize, b as usize);
            assert!(a < n && b < n, "edge endpoint out of range");
            if v != 0 && a != b {
                offsets[a] += 1;
                offsets[b] += 1;
            }
        }
        let mut total = 0;
        for o in offsets.iter_mut() {
            total += *o;
            *o = total;
        }
        let mut entries = vec![(0u32, 0u64); total];
        for &(a, b, v) in &flat {
            if v == 0 {
                continue;
            }
            if a == b {
                s.diag[a as usize] += v;
            } else {
                offsets[a as usize] -= 1;
                entries[offsets[a as usize]] = (b, v);
                offsets[b as usize] -= 1;
                entries[offsets[b as usize]] = (a, v);
            }
        }
        drop(flat);
        // Sort each row and coalesce duplicates (sums are order-independent),
        // shifting the rows left over the gaps coalescing leaves.
        let mut out = 0;
        for t in 0..n {
            let (start, end) = (offsets[t], offsets[t + 1]);
            offsets[t] = out;
            entries[start..end].sort_unstable_by_key(|e| e.0);
            for i in start..end {
                if out > offsets[t] && entries[out - 1].0 == entries[i].0 {
                    entries[out - 1].1 += entries[i].1;
                } else {
                    entries[out] = entries[i];
                    out += 1;
                }
            }
        }
        offsets[n] = out;
        entries.truncate(out);
        entries.shrink_to_fit();
        s.rows.entries = entries;
        s
    }

    /// Converts a dense matrix (drops zero pairs, keeps the diagonal).
    pub fn from_dense(m: &CorrelationMatrix) -> Self {
        let n = m.num_threads();
        let diag = (0..n).map(|t| (t as u32, t as u32, m.get(t, t)));
        let pairs = m.pairs().map(|(a, b, v)| (a as u32, b as u32, v));
        SparseCorrelation::from_edges(n, diag.chain(pairs))
    }

    /// Expands into a dense matrix (for small-T equivalence checks).
    pub fn to_dense(&self) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(self.n);
        for (t, &d) in self.diag.iter().enumerate() {
            m.set(t, t, d);
        }
        CorrelationStore::for_each_edge(self, |a, b, v| m.set(a, b, v));
        m
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// The non-zero partners of `t`, sorted ascending: `(partner, value)`.
    pub fn neighbors(&self, t: usize) -> &[(u32, u64)] {
        self.rows.row(t)
    }

    /// The correlation of a thread pair (diagonal: own page count).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a]
        } else {
            self.rows.find(a, b).unwrap_or(0)
        }
    }

    /// Sets both symmetric entries (zero removes the pair).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, a: usize, b: usize, v: u64) {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a] = v;
        } else {
            let v = (v > 0).then_some(v);
            self.rows.splice(a, b, v);
            self.rows.splice(b, a, v);
        }
    }

    /// Adds `v` to both symmetric entries.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add(&mut self, a: usize, b: usize, v: u64) {
        let cur = self.get(a, b);
        if v > 0 {
            self.set(a, b, cur + v);
        }
    }

    /// Accumulates another store (elementwise sum, diagonal included) by
    /// merging sorted rows in `O(T + E₁ + E₂)`.
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    pub fn merge(&mut self, other: &SparseCorrelation) {
        assert_eq!(self.n, other.n, "stores must cover the same threads");
        for (d, o) in self.diag.iter_mut().zip(&other.diag) {
            *d += o;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        // The union is about as large as the larger input in the serve loop;
        // reserving for the sum of both raised its peak memory by half.
        let mut entries = Vec::with_capacity(self.rows.entries.len().max(other.rows.entries.len()));
        offsets.push(0);
        for (mine, theirs) in self.rows.iter().zip(other.rows.iter()) {
            for_each_union(mine, theirs, |u, a, b| {
                entries.push((u, a.unwrap_or(0) + b.unwrap_or(0)));
            });
            offsets.push(entries.len());
        }
        self.rows = Rows { offsets, entries };
    }

    /// Number of non-zero unordered pairs.
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// Normalized L1 divergence against `other` — bit-identical to
    /// [`correlation_delta`](crate::correlation_delta) on dense
    /// expansions of the same data (`u64` sums commute; zero pairs
    /// contribute nothing; one final `f64` division).
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    pub fn delta(&self, other: &SparseCorrelation) -> f64 {
        assert_eq!(self.n, other.n, "stores must cover the same threads");
        let mut diff = 0u64;
        let mut mass = 0u64;
        for (t, (mine, theirs)) in self.rows.iter().zip(other.rows.iter()).enumerate() {
            for_each_union(upper(mine, t), upper(theirs, t), |_, va, vb| {
                let (va, vb) = (va.unwrap_or(0), vb.unwrap_or(0));
                diff += va.abs_diff(vb);
                mass += va + vb;
            });
        }
        normalized_divergence(diff, mass)
    }
}

impl fmt::Display for SparseCorrelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse correlation: {} threads, {} edges",
            self.n,
            self.edge_count()
        )
    }
}

impl CorrelationStore for SparseCorrelation {
    type Aged = SparseAged;

    fn zeros(n: usize) -> Self {
        SparseCorrelation::zeros(n)
    }

    fn num_threads(&self) -> usize {
        self.num_threads()
    }

    fn get(&self, a: usize, b: usize) -> u64 {
        self.get(a, b)
    }

    fn set(&mut self, a: usize, b: usize, v: u64) {
        self.set(a, b, v);
    }

    fn add(&mut self, a: usize, b: usize, v: u64) {
        self.add(a, b, v);
    }

    fn merge(&mut self, other: &Self) {
        self.merge(other);
    }

    fn delta(&self, other: &Self) -> f64 {
        self.delta(other)
    }

    fn for_each_edge(&self, mut f: impl FnMut(usize, usize, u64)) {
        for (t, row) in self.rows.iter().enumerate() {
            for &(u, v) in upper(row, t) {
                f(t, u as usize, v);
            }
        }
    }

    fn for_each_neighbor(&self, t: usize, mut f: impl FnMut(usize, u64)) {
        for &(u, v) in self.neighbors(t) {
            f(u as usize, v);
        }
    }

    fn edge_count(&self) -> usize {
        self.edge_count()
    }
}

/// Exponentially aged accumulation over a [`SparseCorrelation`] — the
/// sparse twin of [`AgedCorrelation`], same arithmetic per present pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseAged {
    n: usize,
    decay: f64,
    rounds: usize,
    /// The snapshot normalizer `Σ decay^r` over the rounds folded so far,
    /// kept running so a close costs no pass over the round count.
    weight: f64,
    diag: Vec<f64>,
    rows: Rows<f64>,
}

impl SparseAged {
    /// Creates an empty accumulator over `n` threads with retention factor
    /// `decay` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay < 1.0`.
    pub fn new(n: usize, decay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must be in [0, 1), got {decay}"
        );
        SparseAged {
            n,
            decay,
            rounds: 0,
            weight: 0.0,
            diag: vec![0.0; n],
            rows: Rows::empty(n),
        }
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Number of observations folded in so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The aged value for one pair.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a]
        } else {
            self.rows.find(a, b).unwrap_or(0.0)
        }
    }

    /// Number of pairs currently held.
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// Closes a detector window in one pass: the window is `open + last`
    /// (`last` alone without `open`). Returns the normalized divergence of
    /// the snapshot before the fold from the window, then folds the window
    /// in as one round. Bit-identical to the dense composition
    /// ([`AgedStore::fold_window`] on [`AgedCorrelation`]):
    ///
    /// * the snapshot rounds `val / Σ decay^r` per pair, and the diff and
    ///   mass sums are `u64`, so summing them during the walk changes
    ///   nothing;
    /// * the fold writes `val·decay + (open + last)` per pair, with the
    ///   `u64` add done first, as merging the rounds would. Pairs the
    ///   decay underflows to exactly `0.0` are dropped (lossless: the
    ///   dense recurrence keeps them at `0.0` forever after).
    ///
    /// # Panics
    ///
    /// Panics if a round covers a different thread count.
    pub fn fold_window(
        &mut self,
        open: Option<&SparseCorrelation>,
        last: &SparseCorrelation,
    ) -> f64 {
        for round in open.into_iter().chain([last]) {
            assert_eq!(round.num_threads(), self.n, "thread counts differ");
        }
        let decay = self.decay;
        let scale = if self.weight > 0.0 {
            1.0 / self.weight
        } else {
            0.0
        };
        for (t, d) in self.diag.iter_mut().enumerate() {
            let w = last.diag[t] + open.map_or(0, |o| o.diag[t]);
            *d = *d * decay + w as f64;
        }
        let (mut diff, mut mass) = (0u64, 0u64);
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut entries = Vec::with_capacity(self.rows.entries.len().max(last.rows.entries.len()));
        offsets.push(0);
        let mut open_rows = open.into_iter().flat_map(|o| o.rows.iter());
        for (t, (aged, last_row)) in self.rows.iter().zip(last.rows.iter()).enumerate() {
            // One pair: `val` is its aged value (0.0 when absent), `w` its
            // window value. Each pair is summed once, from its lower row.
            let mut fold = |u: u32, val: f64, w: u64| {
                if u as usize > t {
                    let snap = (val * scale).round() as u64;
                    diff += snap.abs_diff(w);
                    mass += snap + w;
                }
                let next = val * decay + w as f64;
                if next != 0.0 {
                    entries.push((u, next));
                }
            };
            // The window row streams out of the open/last union in partner
            // order; aged partners below each window partner go first.
            let mut i = 0;
            let open_row = open_rows.next().unwrap_or(&[]);
            for_each_union(open_row, last_row, |u, o, l| {
                while let Some(&(p, val)) = aged.get(i).filter(|e| e.0 < u) {
                    fold(p, val, 0);
                    i += 1;
                }
                let val = match aged.get(i) {
                    Some(&(p, val)) if p == u => {
                        i += 1;
                        val
                    }
                    _ => 0.0,
                };
                fold(u, val, o.unwrap_or(0) + l.unwrap_or(0));
            });
            for &(p, val) in &aged[i..] {
                fold(p, val, 0);
            }
            offsets.push(entries.len());
        }
        self.rows = Rows { offsets, entries };
        // The same terms in the same order as summing from round 0, with
        // the exponent saturated instead of wrapping past `i32::MAX`.
        self.weight += decay.powi(self.rounds.min(i32::MAX as usize) as i32);
        self.rounds += 1;
        normalized_divergence(diff, mass)
    }
}

impl fmt::Display for SparseAged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse aged correlation: {} threads, decay {}, {} rounds",
            self.n, self.decay, self.rounds
        )
    }
}

impl AgedStore<SparseCorrelation> for SparseAged {
    fn new(n: usize, decay: f64) -> Self {
        SparseAged::new(n, decay)
    }

    fn fold_window(&mut self, open: Option<&SparseCorrelation>, last: &SparseCorrelation) -> f64 {
        self.fold_window(open, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging::AgedCorrelation;
    use crate::delta::correlation_delta;
    use acorr_sim::{forall, DetRng};

    /// Mirrors a random operation stream into dense and sparse stores and
    /// checks byte-equal results (snapshots, deltas and aged values
    /// included) and the canonical layout at every step.
    fn random_equivalence(seed: u64, n: usize, steps: usize, decay: f64) {
        let mut rng = DetRng::new(seed);
        let mut dense = CorrelationMatrix::zeros(n);
        let mut sparse = SparseCorrelation::zeros(n);
        let mut dense_aged = AgedCorrelation::new(n, decay);
        let mut sparse_aged = SparseAged::new(n, decay);
        for _ in 0..steps {
            match rng.next_below(5) {
                0 => {
                    let a = rng.next_below(n as u64) as usize;
                    let b = rng.next_below(n as u64) as usize;
                    let v = rng.next_below(32);
                    dense.set(a, b, v);
                    sparse.set(a, b, v);
                }
                1 => {
                    let a = rng.next_below(n as u64) as usize;
                    let b = rng.next_below(n as u64) as usize;
                    let v = rng.next_below(32);
                    if a != b {
                        dense.set(a, b, dense.get(a, b) + v);
                    } else {
                        dense.set(a, a, dense.get(a, a) + v);
                    }
                    sparse.add(a, b, v);
                }
                2 => {
                    // Merge in a random round.
                    let mut round_d = CorrelationMatrix::zeros(n);
                    for _ in 0..rng.next_below(8) {
                        let a = rng.next_below(n as u64) as usize;
                        let b = rng.next_below(n as u64) as usize;
                        round_d.set(a, b, rng.next_below(9));
                    }
                    let round_s = SparseCorrelation::from_dense(&round_d);
                    dense.merge(&round_d);
                    sparse.merge(&round_s);
                }
                3 => {
                    // Close a window holding the store, split at random
                    // into an open part and a last round.
                    let (open, last) = random_split(&mut rng, &dense);
                    let expected = correlation_delta(&dense_aged.snapshot(), &dense);
                    dense_aged.observe(&dense);
                    let open = open.map(|o| SparseCorrelation::from_dense(&o));
                    let last = SparseCorrelation::from_dense(&last);
                    let got = sparse_aged.fold_window(open.as_ref(), &last);
                    assert_eq!(got.to_bits(), expected.to_bits(), "fold delta diverged");
                }
                _ => {
                    // Delta against a perturbed copy must agree bit-for-bit.
                    let mut other_d = dense.clone();
                    let a = rng.next_below(n as u64) as usize;
                    let b = rng.next_below(n as u64) as usize;
                    if a != b {
                        other_d.set(a, b, rng.next_below(32));
                    }
                    let other_s = SparseCorrelation::from_dense(&other_d);
                    let dd = correlation_delta(&dense, &other_d);
                    let ds = sparse.delta(&other_s);
                    assert_eq!(dd.to_bits(), ds.to_bits(), "delta bits diverged");
                }
            }
            assert_eq!(sparse.to_dense(), dense, "stores diverged");
            assert_eq!(
                sparse,
                SparseCorrelation::from_dense(&dense),
                "layout not canonical"
            );
        }
        // Aged accumulators agree bit-for-bit, value by value, and the
        // sparse one holds exactly the non-zero pairs.
        assert_eq!(dense_aged.rounds(), sparse_aged.rounds());
        let mut held = 0;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    dense_aged.get(a, b).to_bits(),
                    sparse_aged.get(a, b).to_bits(),
                    "aged ({a},{b}) diverged"
                );
                held += usize::from(a < b && dense_aged.get(a, b) != 0.0);
            }
        }
        assert_eq!(sparse_aged.edge_count(), held, "aged layout not canonical");
    }

    /// Splits every cell of `m` at random between an open part and a last
    /// round (`m` whole as the last round when the split has no open part).
    fn random_split(
        rng: &mut DetRng,
        m: &CorrelationMatrix,
    ) -> (Option<CorrelationMatrix>, CorrelationMatrix) {
        if rng.next_below(4) == 0 {
            return (None, m.clone());
        }
        let n = m.num_threads();
        let (mut open, mut last) = (CorrelationMatrix::zeros(n), CorrelationMatrix::zeros(n));
        for a in 0..n {
            for b in a..n {
                let v = m.get(a, b);
                let part = rng.next_below(v + 1);
                open.set(a, b, part);
                last.set(a, b, v - part);
            }
        }
        (Some(open), last)
    }

    #[test]
    fn random_streams_match_dense_byte_for_byte() {
        forall(
            256,
            0,
            |rng| (rng.next_u64(), rng.index(150), rng.next_f64() * 0.99),
            |&(seed, steps, decay)| random_equivalence(seed, 12, steps, decay),
        );
    }

    #[test]
    fn set_get_add_and_removal() {
        let mut s = SparseCorrelation::zeros(5);
        s.set(1, 4, 9);
        s.add(4, 1, 1);
        assert_eq!(s.get(1, 4), 10);
        assert_eq!(s.edge_count(), 1);
        s.set(4, 1, 0);
        assert_eq!(s.get(1, 4), 0);
        assert_eq!(s.edge_count(), 0, "zero removes the pair");
        s.set(2, 2, 5);
        assert_eq!(s.get(2, 2), 5);
    }

    #[test]
    fn from_edges_aggregates_in_any_order() {
        let fwd = SparseCorrelation::from_edges(4, vec![(0, 1, 2), (1, 0, 3), (2, 3, 1)]);
        let rev = SparseCorrelation::from_edges(4, vec![(2, 3, 1), (0, 1, 3), (0, 1, 2)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.get(0, 1), 5);
        let mut edges = Vec::new();
        CorrelationStore::for_each_edge(&fwd, |a, b, v| edges.push((a, b, v)));
        assert_eq!(edges, vec![(0, 1, 5), (2, 3, 1)]);
    }

    #[test]
    fn from_edges_layout_equals_set_on_duplicates_self_edges_and_zeros() {
        let edges = vec![
            (2, 0, 3),
            (0, 2, 4),
            (1, 1, 5),
            (3, 1, 0),
            (4, 3, 6),
            (1, 1, 2),
            (3, 4, 1),
            (0, 4, 0),
            (2, 0, 1),
            (4, 4, 0),
        ];
        let built = SparseCorrelation::from_edges(5, edges.clone());
        let mut set = SparseCorrelation::zeros(5);
        set.set(0, 2, 8);
        set.set(1, 1, 7);
        set.set(3, 4, 7);
        assert_eq!(built, set);
        let mut added = SparseCorrelation::zeros(5);
        for (a, b, v) in edges {
            added.add(a as usize, b as usize, v);
        }
        assert_eq!(built, added);
    }

    #[test]
    fn dense_round_trip() {
        let mut m = CorrelationMatrix::zeros(6);
        m.set(0, 3, 4);
        m.set(3, 5, 2);
        m.set(2, 2, 9);
        let s = SparseCorrelation::from_dense(&m);
        assert_eq!(s.to_dense(), m);
        assert_eq!(s.neighbors(3), &[(0, 4), (5, 2)]);
    }

    #[test]
    fn aged_keeps_decayed_edges() {
        let mut aged = SparseAged::new(4, 0.5);
        let mut round = SparseCorrelation::zeros(4);
        round.set(0, 1, 100);
        aged.fold_window(None, &round);
        let quiet = SparseCorrelation::zeros(4);
        for _ in 0..20 {
            aged.fold_window(Some(&quiet), &quiet);
        }
        assert_eq!(aged.edge_count(), 1, "still decaying, still held");
        assert!(aged.get(0, 1) > 0.0);
    }

    #[test]
    fn aged_underflow_drop_is_exact() {
        // Exact-zero drops are lossless: 0.0 is absorbing under the dense
        // recurrence too.
        let mut aged = SparseAged::new(2, 0.0);
        let mut round = SparseCorrelation::zeros(2);
        round.set(0, 1, 7);
        aged.fold_window(None, &round);
        assert_eq!(aged.edge_count(), 1);
        // decay = 0.0 underflows the edge on the next quiet round.
        aged.fold_window(None, &SparseCorrelation::zeros(2));
        assert_eq!(aged.edge_count(), 0);
        assert_eq!(aged.get(0, 1), 0.0);
    }

    #[test]
    fn running_weight_matches_the_sum_from_round_zero() {
        let quiet = SparseCorrelation::zeros(1);
        for decay in [0.0, 0.25, 0.5, 0.9, 0.999] {
            let mut aged = SparseAged::new(1, decay);
            for rounds in 1..=10_000usize {
                aged.fold_window(None, &quiet);
                // The sum from round 0, checked where it stays cheap.
                if rounds <= 100 || rounds % 997 == 0 || rounds == 10_000 {
                    let sum: f64 = (0..rounds).map(|r| decay.powi(r as i32)).sum();
                    assert_eq!(
                        aged.weight.to_bits(),
                        sum.to_bits(),
                        "decay {decay}, {rounds} rounds"
                    );
                }
            }
        }
    }

    #[test]
    fn running_weight_saturates_instead_of_wrapping() {
        // A stable service past 2^31 closes: a wrapping exponent would add
        // 0.5^-(2^31) = inf, the snapshot would read zero and the next
        // close would report a full divergence.
        let mut round = SparseCorrelation::zeros(2);
        round.set(0, 1, 10);
        let mut aged = SparseAged::new(2, 0.5);
        for _ in 0..64 {
            aged.fold_window(None, &round);
        }
        aged.rounds = i32::MAX as usize + 1;
        for _ in 0..2 {
            assert_eq!(aged.fold_window(None, &round), 0.0, "no spurious shift");
            assert!(aged.weight.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn fold_of_a_mismatched_open_round_panics() {
        let last = SparseCorrelation::zeros(4);
        SparseAged::new(4, 0.5).fold_window(Some(&SparseCorrelation::zeros(3)), &last);
    }

    #[test]
    fn clone_from_matches_clone() {
        let big = SparseCorrelation::from_edges(6, vec![(0, 1, 3), (2, 5, 7), (4, 4, 2)]);
        let mut copy = SparseCorrelation::from_edges(6, vec![(1, 3, 9)]);
        copy.clone_from(&big);
        assert_eq!(copy, big);
        let mut smaller = SparseCorrelation::zeros(2);
        smaller.clone_from(&big);
        assert_eq!(smaller, big, "the copy adopts the source's size");
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn aged_get_out_of_range_panics() {
        SparseAged::new(4, 0.5).get(0, 99);
    }

    #[test]
    fn merge_is_commutative() {
        let a = SparseCorrelation::from_edges(5, vec![(0, 1, 3), (2, 4, 7)]);
        let b = SparseCorrelation::from_edges(5, vec![(0, 1, 1), (1, 3, 2)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(0, 1), 4);
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn merge_shape_mismatch_panics() {
        SparseCorrelation::zeros(2).merge(&SparseCorrelation::zeros(3));
    }

    #[test]
    fn display_summarizes() {
        let s = SparseCorrelation::from_edges(3, vec![(0, 2, 1)]);
        assert!(s.to_string().contains("3 threads, 1 edges"));
        assert!(SparseAged::new(3, 0.25).to_string().contains("3 threads"));
    }
}
