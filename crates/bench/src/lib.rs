//! # acorr-bench — the table/figure regeneration harness
//!
//! One binary per table and figure of the paper (Table 2 and Figure 1
//! share one):
//!
//! | Binary    | Regenerates |
//! |-----------|-------------|
//! | `table1`  | Application characteristics |
//! | `table2`  | Remote misses as a function of cut cost, and Figure 1's scatter plots and CSVs |
//! | `table3`  | Correlation maps at 32/48/64 threads |
//! | `table4`  | 64-thread FFT maps versus input set |
//! | `table5`  | 64-thread tracking overhead |
//! | `table6`  | 8-node performance by placement heuristic |
//! | `figure2` | Passive information-gathering per migration round |
//! | `figure3` | 32-thread FFT free-zone maps on 4/8 nodes + randomized |
//!
//! Artifacts (CSV, PGM, SVG, TXT) land in `./results/`, each through
//! [`write_artifact`] with its manifest. Wall-clock timing of the three
//! pipelines, end to end and per layer, is the `benchmark` bin's job (see
//! `BENCHMARK.json` at the repository root).

use acorr::dsm::DsmError;
use std::fmt::Write as _;
use std::path::Path;

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
/// A `name` with directories, such as `maps/SOR_64.pgm`, creates them.
///
/// Every artifact also gets a companion [`acorr::obs::RunManifest`] under
/// `results/manifests/<name>.json` recording which binary produced it and an
/// FNV-1a digest of its bytes, so a regenerated artifact can be compared
/// against the recorded run without diffing the full contents.
///
/// A failed write warns on stderr and continues — a bench run on a
/// read-only checkout still prints its tables; only the on-disk copy is
/// lost.
pub fn write_artifact(name: &str, contents: &str) {
    write_artifact_under(Path::new("results"), name, contents);
}

/// [`write_artifact`] under `root` instead of `results/`.
fn write_artifact_under(root: &Path, name: &str, contents: &str) {
    let path = root.join(name);
    let manifest_path = root.join("manifests").join(format!("{name}.json"));
    let manifest = acorr::obs::RunManifest::new(&tool_name())
        .param("artifact", name)
        .param("bytes", &contents.len().to_string())
        .with_digest(acorr::obs::bytes_digest(contents.as_bytes()));
    let written = write_file(&path, contents).and_then(|()| {
        println!("  wrote {}", path.display());
        write_file(&manifest_path, &manifest.to_json())
    });
    if let Err(e) = written {
        eprintln!("  warning: skipping artifact {name}: {e}");
    }
}

/// Writes `contents` to `path`, creating its directory first.
fn write_file(path: &Path, contents: &str) -> Result<(), DsmError> {
    let io_error = |at: &Path, e: std::io::Error| DsmError::io(at.display().to_string(), &e);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    }
    std::fs::write(path, contents).map_err(|e| io_error(path, e))
}

/// Parses `--flag value` style integer options from the command line, with a
/// default when the flag is absent. E.g. `arg_usize("--samples", 300)`.
///
/// A flag without a value, or with one that is not a non-negative
/// integer, prints `error: …` and exits with status 2.
pub fn arg_usize(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    or_exit(parse_usize_flag(&args, flag, default))
}

/// [`arg_usize`] over an explicit argument list.
fn parse_usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    let Some(value) = flag_value(args, flag)? else {
        return Ok(default);
    };
    value
        .parse()
        .map_err(|_| format!("bad {flag} value `{value}` (expected a non-negative integer)"))
}

/// Parses `--flag value` style string options from the command line, with a
/// default when the flag is absent. E.g. `arg_str("--plans", "none,light")`.
///
/// A flag without a value prints `error: …` and exits with status 2.
pub fn arg_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    or_exit(flag_value(&args, flag))
        .unwrap_or(default)
        .to_string()
}

/// The argument after `flag`: `None` when the flag is absent, an error when
/// it is the last argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|value| Some(value.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// A parsed flag, or `error: …` on stderr and exit status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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

    /// A fresh directory of the test's own under the system temp dir, so
    /// the tests neither race each other nor write into the source tree.
    fn scratch_root(test: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("acorr-bench-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    /// Reads back `name`'s artifact and manifest under `root` and checks
    /// them against `contents`.
    fn check_artifact(root: &Path, name: &str, contents: &str) {
        let artifact = root.join(name);
        let manifest_path = root.join("manifests").join(format!("{name}.json"));
        assert_eq!(std::fs::read_to_string(artifact).unwrap(), contents);

        let manifest_json = std::fs::read_to_string(manifest_path).unwrap();
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
    }

    #[test]
    fn write_artifact_emits_a_companion_manifest() {
        let root = scratch_root("manifest");
        let name = "test-artifact-manifest.txt";
        let contents = "hello, results\n";
        write_artifact_under(&root, name, contents);
        check_artifact(&root, name, contents);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn a_nested_artifact_gets_its_directories_and_a_nested_manifest() {
        let root = scratch_root("nested");
        let contents = "P2\n1 1\n255\n0\n";
        write_artifact_under(&root, "maps/x.pgm", contents);
        assert!(root.join("maps/x.pgm").is_file());
        assert!(root.join("manifests/maps/x.pgm.json").is_file());
        check_artifact(&root, "maps/x.pgm", contents);
        std::fs::remove_dir_all(root).unwrap();
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

    #[test]
    fn string_flags_without_a_value_are_errors_not_defaults() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let value =
            |list: &[&str]| flag_value(&args(list), "--plans").map(|v| v.map(str::to_owned));
        assert_eq!(value(&["chaos"]), Ok(None));
        assert_eq!(
            value(&["chaos", "--plans", "light"]),
            Ok(Some("light".to_owned()))
        );
        assert_eq!(
            value(&["chaos", "--iters", "1", "--plans"]),
            Err("--plans needs a value".to_owned())
        );
    }
}
