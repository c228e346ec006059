//! # acorr-bench — the table/figure regeneration harness
//!
//! One binary per table and figure of the paper:
//!
//! | Binary    | Regenerates |
//! |-----------|-------------|
//! | `table1`  | Application characteristics |
//! | `table2`  | Remote misses as a function of cut cost (also writes the Figure 1 scatter CSVs) |
//! | `table3`  | Correlation maps at 32/48/64 threads |
//! | `table4`  | 64-thread FFT maps versus input set |
//! | `table5`  | 64-thread tracking overhead |
//! | `table6`  | 8-node performance by placement heuristic |
//! | `figure1` | ASCII scatter plots of cut cost vs remote misses |
//! | `figure2` | Passive information-gathering per migration round |
//! | `figure3` | 32-thread FFT free-zone maps on 4/8 nodes + randomized |
//!
//! Artifacts (CSV, PGM, TXT) land in `./results/`. Wall-clock timing of
//! the three pipelines, end to end and per layer, is the `benchmark` bin's
//! job (see `BENCHMARK.json` at the repository root).

use acorr::dsm::DsmError;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory where binaries drop their artifacts (created on demand).
///
/// # Errors
///
/// Returns [`DsmError::Io`] when the directory cannot be created (e.g. the
/// working directory is read-only).
pub fn try_results_dir() -> Result<PathBuf, DsmError> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| DsmError::io(dir.display().to_string(), &e))?;
    Ok(dir.to_path_buf())
}

/// Directory where binaries drop their artifacts (created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created; callers that want to degrade
/// gracefully use [`try_results_dir`].
pub fn results_dir() -> PathBuf {
    try_results_dir().expect("create results dir")
}

/// Name of the currently running bench binary (for manifest provenance).
fn tool_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(|p| p.file_stem())
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string()
}

/// Writes an artifact under `results/` and reports the path on stdout.
///
/// Every artifact also gets a companion [`acorr::obs::RunManifest`] under
/// `results/manifests/<name>.json` recording which binary produced it and an
/// FNV-1a digest of its bytes, so a regenerated artifact can be compared
/// against the recorded run without diffing the full contents.
///
/// # Errors
///
/// Returns [`DsmError::Io`] with the failing path when `results/` cannot be
/// created or written (e.g. a read-only checkout).
pub fn try_write_artifact(name: &str, contents: &str) -> Result<(), DsmError> {
    let path = try_results_dir()?.join(name);
    std::fs::write(&path, contents).map_err(|e| DsmError::io(path.display().to_string(), &e))?;
    println!("  wrote {}", path.display());

    let manifest_dir = try_results_dir()?.join("manifests");
    std::fs::create_dir_all(&manifest_dir)
        .map_err(|e| DsmError::io(manifest_dir.display().to_string(), &e))?;
    let manifest = acorr::obs::RunManifest::new(&tool_name())
        .param("artifact", name)
        .param("bytes", &contents.len().to_string())
        .with_digest(acorr::obs::bytes_digest(contents.as_bytes()));
    let manifest_path = manifest_dir.join(format!("{name}.json"));
    std::fs::write(&manifest_path, manifest.to_json())
        .map_err(|e| DsmError::io(manifest_path.display().to_string(), &e))?;
    Ok(())
}

/// Writes an artifact under `results/`, warning on stderr and continuing if
/// the write fails — a bench run on a read-only checkout still prints its
/// tables; only the on-disk copy is lost. Binaries that must report a
/// failed write themselves use [`try_write_artifact`] instead.
pub fn write_artifact(name: &str, contents: &str) {
    if let Err(e) = try_write_artifact(name, contents) {
        eprintln!("  warning: skipping artifact {name}: {e}");
    }
}

/// Parses `--flag value` style integer options from the command line, with a
/// default when the flag is absent. E.g. `arg_usize("--samples", 300)`.
///
/// A flag without a value, or with one that is not a non-negative
/// integer, prints `error: …` and exits with status 2.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    match parse_usize_flag(&args, flag, default) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    }
}

/// [`arg_usize`] over an explicit argument list.
fn parse_usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} value `{value}` (expected a non-negative integer)"))
}

/// Parses `--flag value` style string options from the command line, with a
/// default. E.g. `arg_str("--plans", "none,light")`.
pub fn arg_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// A simple markdown table builder for terminal reports.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            let _ = write!(out, "|");
            for i in 0..cols {
                let _ = write!(out, " {:width$} |", cells[i], width = widths[i]);
            }
            let _ = writeln!(out);
        };
        emit(&mut out, &self.header);
        let _ = write!(&mut out, "|");
        for w in &widths {
            let _ = write!(&mut out, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(&mut out);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Renders an ASCII scatter plot of `(x, y)` points, `width x height`
/// characters, with axis extents in the caption.
pub fn ascii_scatter(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::MAX, f64::MIN);
    let (mut ymin, mut ymax) = (f64::MAX, f64::MIN);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        let cell = &mut grid[height - 1 - row][col];
        *cell = match *cell {
            ' ' => '.',
            '.' => 'o',
            _ => '@',
        };
    }
    let mut out = String::new();
    for line in grid {
        let _ = writeln!(out, "|{}", line.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "x: {:.0}..{:.0} (cut cost)   y: {:.0}..{:.0} (remote misses)",
        xmin, xmax, ymin, ymax
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["App", "Pages"]);
        t.row(&["SOR".into(), "4099".into()]);
        t.row(&["Water".into(), "44".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("App"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[2].contains("SOR"));
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "aligned");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(&["only one".into()]);
    }

    #[test]
    fn scatter_plots_extremes() {
        let pts = [(0.0, 0.0), (10.0, 5.0), (5.0, 2.5)];
        let art = ascii_scatter(&pts, 21, 11);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 13);
        // Low-left and top-right corners are populated.
        assert_eq!(lines[10].chars().nth(1), Some('.'));
        assert_eq!(lines[0].chars().nth(21), Some('.'));
        assert!(art.contains("x: 0..10"));
    }

    #[test]
    fn scatter_handles_empty_and_degenerate() {
        assert_eq!(ascii_scatter(&[], 10, 5), "(no data)\n");
        let one = ascii_scatter(&[(3.0, 3.0)], 10, 5);
        assert!(one.contains('.'));
    }

    #[test]
    fn write_artifact_emits_a_companion_manifest() {
        let name = "test-artifact-manifest.txt";
        let contents = "hello, results\n";
        write_artifact(name, contents);

        let artifact = results_dir().join(name);
        let manifest_path = results_dir().join("manifests").join(format!("{name}.json"));
        assert_eq!(std::fs::read_to_string(&artifact).unwrap(), contents);

        let manifest_json = std::fs::read_to_string(&manifest_path).unwrap();
        let manifest = acorr::obs::RunManifest::from_json(&manifest_json).unwrap();
        assert_eq!(manifest.get("artifact"), Some(name));
        assert_eq!(
            manifest.get("bytes"),
            Some(contents.len().to_string().as_str())
        );
        assert_eq!(
            manifest.digest,
            acorr::obs::bytes_digest(contents.as_bytes())
        );

        std::fs::remove_file(artifact).unwrap();
        std::fs::remove_file(manifest_path).unwrap();
    }

    #[test]
    fn arg_parsing_falls_back_to_default() {
        assert_eq!(arg_usize("--definitely-not-passed", 42), 42);
        assert_eq!(arg_str("--also-not-passed", "fallback"), "fallback");
    }

    #[test]
    fn unparsable_integer_flags_are_errors_not_defaults() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let parse = |list: &[&str]| parse_usize_flag(&args(list), "--samples", 300);
        assert_eq!(parse(&["table2"]), Ok(300));
        assert_eq!(parse(&["table2", "--samples", "12"]), Ok(12));
        let err = parse(&["table2", "--samples", "abc"]).unwrap_err();
        assert!(err.contains("--samples") && err.contains("`abc`"), "{err}");
        assert!(parse(&["table2", "--samples", "-1"]).is_err());
        assert!(parse(&["table2", "--samples"]).is_err());
    }
}
