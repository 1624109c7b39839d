//! Regenerate the paper's Figure 9.
fn main() {
    let updates = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    print!(
        "{}",
        vlfs_bench::fig9::run(&vlfs_bench::fig9::measure_all(updates))
    );
}
