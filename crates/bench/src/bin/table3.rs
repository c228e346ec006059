//! Table 3 — correlation maps for every application at 32, 48 and 64
//! threads.
//!
//! Each map is printed as ASCII art (origin lower-left, darker = more
//! sharing, as in the paper) and written as a PGM image, a CSV matrix and
//! an SVG under `results/maps/`.

use acorr::apps;
use acorr::experiment::Workbench;
use acorr::track::{profile_map, render_ascii, render_csv, render_pgm, render_svg, MapStyle};
use acorr_bench::write_artifact;

fn main() {
    println!("Table 3: correlation maps (darker = more sharing, origin lower-left)\n");
    for name in apps::SUITE_NAMES {
        for threads in [32usize, 48, 64] {
            let bench = Workbench::new(8, threads).expect("cluster");
            let truth = bench
                .ground_truth(|| apps::by_name(name, threads).expect("known app"))
                .expect("tracked run");
            println!("--- {name}, {threads} threads ---");
            println!("{}", render_ascii(&truth.corr, &MapStyle::default()));
            println!("  detected structure: {}", profile_map(&truth.corr));
            let stem = format!("maps/{name}_{threads}");
            write_artifact(&format!("{stem}.pgm"), &render_pgm(&truth.corr));
            write_artifact(&format!("{stem}.csv"), &render_csv(&truth.corr));
            write_artifact(
                &format!("{stem}.svg"),
                &render_svg(&truth.corr, &MapStyle::default()),
            );
            println!();
        }
    }
}
