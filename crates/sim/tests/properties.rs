//! Property tests for the simulation substrate: mapping constructors and
//! the regression fit.

use acorr_sim::{forall, linear_fit, ClusterConfig, DetRng, Mapping};

/// Stretch is always balanced and contiguous for any cluster shape.
#[test]
fn stretch_is_balanced_and_contiguous() {
    let shape = |rng: &mut DetRng| (rng.range(1, 12) as usize, rng.index(50));
    forall(64, 0, shape, |&(nodes, extra)| {
        let threads = nodes + extra;
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let m = Mapping::stretch(&cluster);
        assert!(m.is_balanced(), "{m}");
        // Contiguity: node indices are non-decreasing over thread order.
        for t in 1..threads {
            assert!(m.node_of(t - 1).idx() <= m.node_of(t).idx());
        }
        // Every node is populated.
        assert!(m.node_counts().iter().all(|&c| c > 0));
    });
}

/// random_min_two honors the ≥2 floor for every satisfiable shape and
/// covers exactly the requested thread count.
#[test]
fn random_min_two_honors_floor() {
    let shape = |rng: &mut DetRng| {
        (
            rng.range(1, 8) as usize,
            rng.index(40),
            rng.next_below(1000),
        )
    };
    forall(64, 0, shape, |&(nodes, extra, seed)| {
        let threads = 2 * nodes + extra;
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let mut rng = DetRng::new(seed);
        let m = Mapping::random_min_two(&cluster, &mut rng);
        assert!(m.node_counts().iter().all(|&c| c >= 2));
        assert_eq!(m.node_counts().iter().sum::<usize>(), threads);
    });
}

/// Permutation preserves multiset of node counts and is a bijection on
/// threads.
#[test]
fn permutation_preserves_populations() {
    let shape = |rng: &mut DetRng| {
        (
            rng.range(1, 6) as usize,
            rng.index(30),
            rng.next_below(1000),
        )
    };
    forall(64, 0, shape, |&(nodes, extra, seed)| {
        let threads = nodes + extra;
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let base = Mapping::stretch(&cluster);
        let mut rng = DetRng::new(seed);
        let p = base.permuted(&mut rng);
        let mut a = base.node_counts();
        let mut b = p.node_counts();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    });
}

/// The least-squares fit is scale-equivariant: scaling y scales the
/// slope and intercept, and leaves |r| unchanged.
#[test]
fn linear_fit_scale_equivariance() {
    let points = |rng: &mut DetRng| {
        let point = |rng: &mut DetRng| (rng.next_f64() * 1000.0, rng.next_f64() * 1000.0 - 500.0);
        let points: Vec<(f64, f64)> = (0..rng.range(3, 40)).map(|_| point(rng)).collect();
        (points, 1.0 + rng.next_f64() * 49.0)
    };
    forall(64, 0, points, |&(ref points, scale)| {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        if xs.iter().all(|&x| (x - xs[0]).abs() <= 1e-9) {
            return; // no spread in x: the fit is undefined
        }
        let base = linear_fit(&xs, &ys).expect("x has spread");
        let scaled_ys: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let scaled = linear_fit(&xs, &scaled_ys).expect("same xs");
        assert!((scaled.slope - base.slope * scale).abs() < 1e-6 * scale.max(1.0));
        assert!((scaled.intercept - base.intercept * scale).abs() < 1e-4 * scale.max(1.0));
        assert!((scaled.r.abs() - base.r.abs()).abs() < 1e-9);
    });
}
