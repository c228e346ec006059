//! Deterministic random numbers.
//!
//! The paper's Table 2 methodology runs each application under 300 *randomly
//! generated* thread configurations; Figure 3 (c) randomly permutes thread
//! assignments. To keep every experiment reproducible, the workspace uses a
//! self-contained xoshiro256** generator seeded through splitmix64, rather
//! than an OS entropy source. [`DetRng::fork`] derives independent streams so
//! sub-experiments do not perturb each other's sequences.

/// A deterministic xoshiro256** PRNG.
///
/// ```
/// use acorr_sim::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_ne!(DetRng::new(1).next_u64(), DetRng::new(2).next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent stream labelled by `stream`.
    ///
    /// Forked generators are decorrelated from the parent and from each
    /// other, and forking does not advance the parent.
    pub fn fork(&self, stream: u64) -> DetRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)`, using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless bounded sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

/// Checks `prop` on `cases` random inputs, the workspace's property-test
/// harness.
///
/// Case `i` draws its input from `gen(&mut DetRng::new(seed + i))`. A
/// failing case panics with its case seed and its input, and
/// `forall(1, case_seed, gen, prop)` replays exactly that case. There is
/// no shrinking.
///
/// ```
/// use acorr_sim::forall;
/// forall(64, 0, |rng| rng.range(1, 100), |&x| assert!(x * 2 >= x + 1));
/// ```
pub fn forall<T: std::fmt::Debug>(
    cases: u64,
    seed: u64,
    gen: impl Fn(&mut DetRng) -> T,
    mut prop: impl FnMut(&T),
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for case_seed in (0..cases).map(|i| seed.wrapping_add(i)) {
        let input = gen(&mut DetRng::new(case_seed));
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            let message = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!(
                "property failed at case seed {case_seed} \
                 (replay with forall(1, {case_seed}, ..)): {message}\ninput: {input:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let parent = DetRng::new(7);
        let mut f1 = parent.fork(1);
        let mut f1b = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn bounded_values_stay_in_bounds() {
        let mut rng = DetRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.next_below(bound) < bound);
            }
        }
        for _ in 0..50 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut rng = DetRng::new(11);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        // Mean of 1000 uniform draws should be near 0.5.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(5);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // And actually permutes with overwhelming probability.
        assert_ne!(v, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = DetRng::new(9);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn bounded_sampling_is_roughly_uniform() {
        let mut rng = DetRng::new(123);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.index(8)] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket {b} far from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::new(0).next_below(0);
    }

    #[test]
    fn forall_failure_names_a_case_seed_that_replays_the_input() {
        let gen = |rng: &mut DetRng| rng.next_below(1000);
        // A property failing on inputs of 900 or more: the inputs it saw
        // and the failure message.
        let run = |cases, seed| {
            let mut seen = Vec::new();
            let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                forall(cases, seed, gen, |&x| {
                    seen.push(x);
                    assert!(x < 900, "{x} too large");
                });
            }));
            (seen, *failure.unwrap_err().downcast::<String>().unwrap())
        };
        let (seen, message) = run(64, 7);
        let want: Vec<u64> = (7..7 + seen.len() as u64)
            .map(|s| gen(&mut DetRng::new(s)))
            .collect();
        assert_eq!(seen, want, "case i draws from seed 7 + i");
        let (case_seed, input) = (6 + seen.len() as u64, want[want.len() - 1]);
        let replay = format!("replay with forall(1, {case_seed}, ..)");
        let want = format!("{input} too large\ninput: {input}");
        assert_eq!(
            message,
            format!("property failed at case seed {case_seed} ({replay}): {want}")
        );
        // The named seed alone replays the same input and failure.
        assert_eq!(run(1, case_seed), (vec![input], message));
    }
}
