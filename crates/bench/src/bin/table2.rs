//! Table 2 — remote misses as a linear function of cut cost.
//!
//! Methodology (§2): derive ground-truth thread correlations with one
//! active-tracking phase, generate random thread configurations (at least
//! two threads per node, not necessarily balanced), run each and record
//! remote misses, then fit `misses = slope * cut + intercept`.
//!
//! Figure 1 is the same studies drawn as scatters: after the table, each
//! application's fit and ASCII scatter plot (cut cost on x, remote misses
//! on y), with the data in `results/figure1_<app>.csv`.
//!
//! Applications fan out across pool workers and each application's samples
//! fan out across its workbench's share of the remaining threads; output is
//! bit-identical at any `--threads` value (see `acorr::sim::pool`).
//!
//! Usage: `table2 [--samples N] [--iters M] [--threads T]` (defaults: 300
//! samples, 1 measured iteration per sample — one iteration is the app's
//! natural unit of work — and all available worker threads; `--threads 1`
//! is the exact sequential path).

use acorr::apps;
use acorr::experiment::Workbench;
use acorr::sim::{par_map_indexed, resolve_threads};
use acorr_bench::{arg_usize, ascii_scatter, write_artifact, Table};

fn main() {
    let samples = arg_usize("--samples", 300);
    let iters = arg_usize("--iters", 1);
    let threads = resolve_threads(arg_usize("--threads", 0));

    println!(
        "Table 2: remote misses as a function of cut cost\n\
         ({samples} random configurations per application, {iters} measured iteration(s) each,\n\
         {threads} worker thread(s))\n"
    );
    let mut table = Table::new(&[
        "App",
        "Slope",
        "Y-intercept",
        "Corr. coeff.",
        "Paper slope",
        "Paper r",
    ]);
    let paper: &[(&str, f64, f64)] = &[
        ("Barnes", 0.227, 0.742),
        ("FFT7", 2.517, 0.925),
        ("FFT8", 2.805, 0.911),
        ("LU2k", 2.694, 0.724),
        ("Ocean", 4.508, 0.937),
        ("Spatial", 0.079, 0.458),
        ("SOR", 4.100, 0.961),
        ("Water", 0.402, 0.779),
    ];
    // One pool worker per application; each application's workbench gets an
    // equal share of the remaining threads for its sample fan-out. One
    // workbench serves every row — it is plain configuration data.
    let per_app = (threads / paper.len()).max(1);
    let bench = Workbench::new(8, 64)
        .expect("8x64 cluster")
        .with_threads(per_app);
    let studies = par_map_indexed(
        threads.min(paper.len()),
        paper.to_vec(),
        |_, (name, _, _)| {
            bench
                .cutcost_study(
                    || apps::by_name(name, 64).expect("known app"),
                    samples,
                    iters,
                )
                .expect("study")
        },
    );
    let mut figure = format!(
        "Figure 1: cut costs (x) versus remote misses (y), {samples} random configurations\n\n"
    );
    for (&(name, paper_slope, paper_r), study) in paper.iter().zip(studies) {
        let fit = study.fit.expect("non-degenerate fit");
        table.row(&[
            name.to_string(),
            format!("{:.3}", fit.slope),
            format!("{:.1}", fit.intercept),
            format!("{:.3}", fit.r),
            format!("{paper_slope:.3}"),
            format!("{paper_r:.3}"),
        ]);
        write_artifact(&format!("figure1_{name}.csv"), &study.to_csv());
        let points: Vec<(f64, f64)> = study
            .samples
            .iter()
            .map(|s| (s.cut_cost as f64, s.remote_misses as f64))
            .collect();
        let scatter = ascii_scatter(&points, 60, 16);
        figure.push_str(&format!("--- {name} ---\nfit: {fit}\n{scatter}\n"));
    }
    println!("{}", table.render());
    print!("{figure}");
}
