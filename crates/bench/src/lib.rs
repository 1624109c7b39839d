//! # vlfs-bench — the benchmark harness
//!
//! One module (and one binary) per table and figure of the paper's
//! evaluation (§5). Each `run()` returns the table text it prints, so the
//! `all_figures` binary can regenerate `EXPERIMENTS.md` content in one go.
//!
//! | Paper exhibit | Module | Binary |
//! |---|---|---|
//! | Table 1 (disk parameters) | [`table1`] | `table1` |
//! | Figure 1 (locate vs utilisation) | [`fig1`] | `fig1` |
//! | Figure 2 (track-switch threshold) | [`fig2`] | `fig2` |
//! | Figure 6 (small files) | [`fig6`] | `fig6` |
//! | Figure 7 (large file) | [`fig7`] | `fig7` |
//! | Figure 8 (disk utilisation) | [`fig8`] | `fig8` |
//! | Table 2 (technology speedups) | [`table2`] | `table2` |
//! | Figure 9 (latency breakdown) | [`fig9`] | `fig9` |
//! | Figure 10 (LFS vs idle time) | [`fig10`] | `fig10` |
//! | Figure 11 (VLD vs idle time) | [`fig11`] | `fig11` |

pub mod ablations;
pub mod appendix;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs;
pub mod setup;
pub mod timing;
pub mod table1;
pub mod table2;
pub mod vlfs_preview;
pub mod workload;

/// Format a table of (x, series...) rows with a header, 12-char columns.
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(
        &header
            .iter()
            .map(|h| format!("{h:>14}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push('\n');
    out.push_str(
        &header
            .iter()
            .map(|_| "-".repeat(14))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push('\n');
    for row in rows {
        out.push_str(
            &row.iter()
                .map(|c| format!("{c:>14}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_formatting() {
        let t = super::format_table("Demo", &["x", "y"], &[vec!["1".into(), "2.5".into()]]);
        assert!(t.contains("## Demo"));
        assert!(t.contains("2.5"));
    }
}
