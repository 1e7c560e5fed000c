//! Theorem 1 in action: recovery time scales with the distance `k`.
//!
//! The state-optimal ring-of-traps protocol stabilises in
//! `O(min(k·n^{3/2}, n² log² n))` from any `k`-distant configuration —
//! so a population that is *almost ranked* (small `k`, e.g. after a few
//! transient faults) recovers far faster than from scratch. This example
//! sweeps `k` at fixed `n` and prints the measured recovery times.
//!
//! Run with: `cargo run --release --example kdistant_recovery`

use ssr::prelude::*;

fn main() {
    let n = 240;
    let trials = 10;
    let ks = [1usize, 2, 4, 8, 16, 32, 64, 120];

    println!(
        "ring-of-traps, n = {n}: recovery from k-distant starts \
         ({trials} trials each)\n"
    );
    let protocol = RingOfTraps::new(n);
    let mut table = Table::new(vec![
        "k".into(),
        "median T".into(),
        "max T".into(),
        "T / k".into(),
    ]);

    for &k in &ks {
        let results = Scenario::new(&protocol)
            .init(Init::KDistant(k))
            .trials(trials)
            .base_seed(k as u64)
            .run();
        let s = Summary::of(&results.parallel_times());
        table.add_row(vec![
            k.to_string(),
            format!("{:.0}", s.median),
            format!("{:.0}", s.max),
            format!("{:.0}", s.median / k as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Theorem 1 predicts T ≈ k·n^(3/2) until the n²·log²n cap: the T/k \
         column flattens for small k and the growth tapers for large k."
    );
}
