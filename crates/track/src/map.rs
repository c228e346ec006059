//! Correlation maps.
//!
//! §3 of the paper: *"Correlation maps are grids that summarize correlations
//! between all pairs of threads ... the darkness of each point represents
//! the degree of sharing between the two threads."* This module renders a
//! [`CorrelationMatrix`] as:
//!
//! * ASCII art ([`render_ascii`]) — darkness ramp `" .:-=+*#%@"`, origin in
//!   the lower left as in the paper's Table 3, optionally overlaying the
//!   same-node "free zones" of Figure 3;
//! * PGM ([`render_pgm`]) — a portable graymap (P2) where darker pixels mean
//!   more sharing, viewable in any image tool;
//! * CSV ([`render_csv`]) — raw values for external plotting.

use crate::correlation::CorrelationMatrix;
use acorr_sim::Mapping;
use std::fmt::Write as _;

/// Darkness ramp for ASCII maps, lightest to darkest.
const RAMP: &[u8] = b" .:-=+*#%@";
/// Ramp used for same-node pairs when free zones are overlaid, so the node
/// squares of Figure 3 are visible regardless of the sharing intensity.
const FREE_RAMP: &[u8] = b"\x000123456789"; // index 0 replaced by the dot

/// Rendering options for ASCII maps.
#[derive(Debug, Clone, Default)]
pub struct MapStyle {
    /// When set, same-node thread pairs (the "free zones" of Figure 3) are
    /// marked: zero-sharing same-node cells print `·` instead of a blank.
    pub free_zones: Option<Mapping>,
    /// Scale shading against this value instead of the matrix maximum
    /// (useful to compare maps across thread counts or inputs).
    pub scale_max: Option<u64>,
}

fn shade(v: u64, max: u64) -> u8 {
    if max == 0 || v == 0 {
        return RAMP[0];
    }
    // Ceiling mapping so any nonzero value is visible and v == max lands on
    // the darkest shade.
    let idx = (v as usize * (RAMP.len() - 1)).div_ceil(max as usize);
    RAMP[idx.min(RAMP.len() - 1)]
}

/// Renders the correlation map as ASCII art with the origin at the lower
/// left (thread 0 is the bottom row and the leftmost column, matching the
/// paper's figures). The diagonal is included.
///
/// ```
/// use acorr_track::{render_ascii, CorrelationMatrix, MapStyle};
/// let c = CorrelationMatrix::from_edges(3, [(0, 1, 5)]);
/// let art = render_ascii(&c, &MapStyle::default());
/// assert_eq!(art.lines().count(), 3);
/// ```
pub fn render_ascii(corr: &CorrelationMatrix, style: &MapStyle) -> String {
    let n = corr.num_threads();
    let max = style.scale_max.unwrap_or_else(|| corr.max_off_diagonal());
    let mut out = String::with_capacity(n * (n + 1));
    for row in (0..n).rev() {
        for col in 0..n {
            let v = if row == col {
                // Shade the diagonal by the thread's own footprint so the
                // map shows it, like the paper's figures.
                corr.get(row, col).min(max)
            } else {
                corr.get(row, col)
            };
            let mut ch = shade(v, max) as char;
            if let Some(mapping) = &style.free_zones {
                if mapping.node_of(row) == mapping.node_of(col) {
                    // Same-node "free zone": dotted when empty, digit ramp
                    // otherwise, so the node squares stand out.
                    let idx = RAMP.iter().position(|&r| r as char == ch).unwrap_or(0);
                    ch = if idx == 0 {
                        '\u{b7}' // '·'
                    } else {
                        FREE_RAMP[idx] as char
                    };
                }
            }
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Renders the correlation map as a PGM (P2) image: darker = more sharing,
/// row 0 of the image is the *top*, so thread 0 appears at the lower left
/// when the image is displayed, as in the paper.
pub fn render_pgm(corr: &CorrelationMatrix) -> String {
    let n = corr.num_threads();
    let max = corr.max_off_diagonal().max(1);
    let mut out = String::new();
    let _ = writeln!(out, "P2");
    let _ = writeln!(out, "# correlation map, {n} threads, darker = more sharing");
    let _ = writeln!(out, "{n} {n}");
    let _ = writeln!(out, "255");
    for row in (0..n).rev() {
        let mut line = String::new();
        for col in 0..n {
            let v = corr.get(row, col).min(max);
            let gray = 255 - (v * 255 / max);
            if col > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{gray}");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders the correlation map as a standalone SVG image: one rect per
/// thread pair, darker fill = more sharing, thread 0 at the lower left as
/// in the paper's figures. When `style.free_zones` is set, same-node cells
/// are outlined, making Figure 3's node squares visible in the image.
pub fn render_svg(corr: &CorrelationMatrix, style: &MapStyle) -> String {
    const CELL: usize = 8;
    let n = corr.num_threads();
    let size = n * CELL;
    let max = style
        .scale_max
        .unwrap_or_else(|| corr.max_off_diagonal())
        .max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{size}\" height=\"{size}\" \
         viewBox=\"0 0 {size} {size}\">"
    );
    let _ = writeln!(
        out,
        "  <rect width=\"{size}\" height=\"{size}\" fill=\"white\"/>"
    );
    for row in 0..n {
        for col in 0..n {
            let v = corr.get(row, col).min(max);
            if v == 0 && style.free_zones.is_none() {
                continue;
            }
            let gray = 255 - (v * 255 / max) as u32;
            // Thread 0 at the lower left: flip rows.
            let y = (n - 1 - row) * CELL;
            let x = col * CELL;
            let outline = match &style.free_zones {
                Some(mapping) if mapping.node_of(row) == mapping.node_of(col) => {
                    " stroke=\"#d06000\" stroke-width=\"1\""
                }
                _ => "",
            };
            if v == 0 && outline.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "  <rect x=\"{x}\" y=\"{y}\" width=\"{CELL}\" height=\"{CELL}\" \
                 fill=\"rgb({gray},{gray},{gray})\"{outline}/>"
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Renders the raw matrix as CSV (`n` rows of `n` comma-separated values,
/// row 0 first).
pub fn render_csv(corr: &CorrelationMatrix) -> String {
    let n = corr.num_threads();
    let mut out = String::new();
    for row in 0..n {
        for col in 0..n {
            if col > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", corr.get(row, col));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::ClusterConfig;

    fn nearest_neighbor(n: usize) -> CorrelationMatrix {
        let n32 = n as u32;
        let chain = (1..n32).map(|i| (i - 1, i, 4));
        let own = (0..n32).map(|i| (i, i, 8));
        CorrelationMatrix::from_edges(n, chain.chain(own))
    }

    #[test]
    fn ascii_shape_and_orientation() {
        let c = nearest_neighbor(4);
        let art = render_ascii(&c, &MapStyle::default());
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.chars().count() == 4));
        // Origin lower-left: thread 0's row is the LAST line; its neighbor
        // correlation (0,1) is dark, (0,3) is blank.
        let bottom: Vec<char> = lines[3].chars().collect();
        assert_eq!(bottom[3], ' ');
        assert_ne!(bottom[1], ' ');
    }

    #[test]
    fn shading_is_monotonic() {
        let c = CorrelationMatrix::from_edges(3, [(0, 1, 1), (0, 2, 10)]);
        let art = render_ascii(&c, &MapStyle::default());
        let bottom: Vec<char> = art.lines().last().unwrap().chars().collect();
        let ramp_pos = |ch: char| RAMP.iter().position(|&r| r as char == ch).unwrap();
        assert!(ramp_pos(bottom[2]) > ramp_pos(bottom[1]));
        assert_eq!(bottom[2], '@', "max value gets the darkest shade");
    }

    #[test]
    fn free_zones_mark_same_node_blanks() {
        let c = CorrelationMatrix::zeros(4);
        let cluster = ClusterConfig::new(2, 4).unwrap();
        let style = MapStyle {
            free_zones: Some(Mapping::stretch(&cluster)),
            scale_max: None,
        };
        let art = render_ascii(&c, &style);
        let lines: Vec<&str> = art.lines().collect();
        // Bottom row = thread 0 (node 0 with thread 1): cells 0,1 dotted.
        let bottom: Vec<char> = lines[3].chars().collect();
        assert_eq!(bottom[0], '\u{b7}');
        assert_eq!(bottom[1], '\u{b7}');
        assert_eq!(bottom[2], ' ');
        assert_eq!(bottom[3], ' ');
    }

    #[test]
    fn fixed_scale_dims_weak_maps() {
        let c = CorrelationMatrix::from_edges(2, [(0, 1, 2)]);
        let auto = render_ascii(&c, &MapStyle::default());
        let scaled = render_ascii(
            &c,
            &MapStyle {
                free_zones: None,
                scale_max: Some(100),
            },
        );
        assert!(auto.contains('@'));
        assert!(!scaled.contains('@'));
    }

    #[test]
    fn pgm_is_well_formed() {
        let c = nearest_neighbor(3);
        let pgm = render_pgm(&c);
        let mut lines = pgm.lines();
        assert_eq!(lines.next(), Some("P2"));
        let _comment = lines.next().unwrap();
        assert_eq!(lines.next(), Some("3 3"));
        assert_eq!(lines.next(), Some("255"));
        let pixels: Vec<Vec<u32>> = lines
            .map(|l| l.split(' ').map(|v| v.parse().unwrap()).collect())
            .collect();
        assert_eq!(pixels.len(), 3);
        assert!(pixels.iter().all(|r| r.len() == 3));
        // Dark (low) where sharing is high: (0,1) shares 4 of max 4 → 0.
        assert_eq!(pixels[2][1], 0);
        assert_eq!(pixels[2][2], 255);
    }

    #[test]
    fn svg_is_well_formed_and_oriented() {
        let c = nearest_neighbor(4);
        let svg = render_svg(&c, &MapStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // (0,1) is dark: a near-black rect exists at flipped-row y.
        assert!(svg.contains("fill=\"rgb(0,0,0)\""));
        // Zero cells are skipped: far fewer rects than n^2 + background.
        let rects = svg.matches("<rect").count();
        assert!(rects < 17, "{rects} rects");
    }

    #[test]
    fn svg_free_zones_outline_same_node_cells() {
        let c = nearest_neighbor(4);
        let cluster = ClusterConfig::new(2, 4).unwrap();
        let style = MapStyle {
            free_zones: Some(Mapping::stretch(&cluster)),
            scale_max: None,
        };
        let svg = render_svg(&c, &style);
        // 2 nodes x (2x2 cells) = 8 outlined cells.
        assert_eq!(svg.matches("stroke=\"#d06000\"").count(), 8);
    }

    #[test]
    fn csv_round_trips_values() {
        let c = CorrelationMatrix::from_edges(2, [(0, 1, 7), (0, 0, 3)]);
        let csv = render_csv(&c);
        assert_eq!(csv, "3,7\n7,0\n");
    }

    #[test]
    fn empty_matrix_renders_blank() {
        let c = CorrelationMatrix::zeros(2);
        let art = render_ascii(&c, &MapStyle::default());
        assert_eq!(art, "  \n  \n");
    }
}
