//! Shared reporting helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper, printing the paper's reported values next to this
//! reproduction's measured values. Run `cargo run --release -p
//! flash-bench --bin <name>`; the `paper_suite` binary runs all of them.

use std::fmt::Display;

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

/// Prints a sub-header.
pub fn subhead(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Formats a "paper vs measured" row.
pub fn compare_row(label: &str, paper: impl Display, measured: impl Display) {
    println!("{label:<44} paper: {paper:>12}   measured: {measured:>12}");
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with SI-ish precision.
pub fn f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// A simple wall-clock timer for the software profiling figure.
pub struct Timer(std::time::Instant);

impl Timer {
    /// Starts a timer.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Timer(std::time::Instant::now())
    }

    /// Elapsed seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
