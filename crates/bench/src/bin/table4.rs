//! Table 4 — 64-thread FFT correlation maps versus input set.
//!
//! The paper's observation: at 2^6x2^6x2^6 sharing organizes into eight
//! 8-thread clusters; doubling the input halves the cluster size; doubling
//! again approaches uniform all-to-all. The mechanism is the ratio of the
//! transpose processor-block size to the page size, which this binary also
//! prints.

use acorr::apps::Fft;
use acorr::experiment::Workbench;
use acorr::mem::PAGE_SIZE;
use acorr::track::{profile_map, render_ascii, render_pgm, MapStyle};
use acorr_bench::write_artifact;

type FftVariant = (&'static str, fn(usize) -> Fft);

fn main() {
    let bench = Workbench::new(8, 64).expect("cluster");
    println!("Table 4: 64-thread FFT versus input set\n");
    let variants: [FftVariant; 3] = [
        ("FFT6", Fft::paper6),
        ("FFT7", Fft::paper7),
        ("FFT8", Fft::paper8),
    ];
    for (name, make) in variants {
        let app = make(64);
        let blocks_per_page = PAGE_SIZE as u64 / app.block_bytes().max(1);
        let truth = bench.ground_truth(|| make(64)).expect("tracked run");
        println!(
            "--- {name}: transpose block {} B, {} blocks/page -> expected cluster size {} ---",
            app.block_bytes(),
            blocks_per_page,
            blocks_per_page.max(1),
        );
        println!("{}", render_ascii(&truth.corr, &MapStyle::default()));
        println!("  detected structure: {}", profile_map(&truth.corr));
        write_artifact(&format!("maps/table4_{name}.pgm"), &render_pgm(&truth.corr));
        println!();
    }
}
