//! Regenerate the paper's Table 2.
fn main() {
    let updates = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    print!(
        "{}",
        vlfs_bench::table2::run(&vlfs_bench::fig9::measure_all(updates))
    );
}
