//! Head-to-head comparison of all four protocols from the paper.
//!
//! Runs the `Θ(n²)` baseline `A_G`, the state-optimal ring of traps, the
//! one-extra-state line protocol, and the `O(n log n)` tree protocol on
//! identical uniform-random starting configurations, and prints a table of
//! parallel stabilisation times.
//!
//! Run with: `cargo run --release --example compare_protocols`

use ssr::prelude::*;

fn measure<P: InteractionSchema + Sync>(p: &P, trials: usize) -> Summary {
    let results = Scenario::new(p)
        .init(Init::Uniform)
        .trials(trials)
        .base_seed(7)
        .run();
    Summary::of(&results.parallel_times())
}

fn main() {
    let n = 380;
    let trials = 12;
    println!("n = {n}, {trials} uniform-random trials per protocol\n");

    let generic = GenericRanking::new(n);
    let ring = RingOfTraps::new(n);
    let line = LineOfTraps::new(n);
    let tree = TreeRanking::new(n);

    let mut table = Table::new(vec![
        "protocol".into(),
        "extra states".into(),
        "median T".into(),
        "max T".into(),
        "vs A_G".into(),
    ]);

    let rows: Vec<(&str, usize, Summary)> = vec![
        (
            "generic A_G",
            generic.num_extra_states(),
            measure(&generic, trials),
        ),
        (
            "ring of traps",
            ring.num_extra_states(),
            measure(&ring, trials),
        ),
        (
            "line of traps",
            line.num_extra_states(),
            measure(&line, trials),
        ),
        (
            "tree of ranks",
            tree.num_extra_states(),
            measure(&tree, trials),
        ),
    ];

    let baseline = rows[0].2.median;
    for (name, extra, s) in &rows {
        table.add_row(vec![
            name.to_string(),
            extra.to_string(),
            format!("{:.0}", s.median),
            format!("{:.0}", s.max),
            format!("{:.2}x", s.median / baseline),
        ]);
    }
    println!("{}", table.render());
    println!("T = parallel stabilisation time (interactions / n)");
    println!(
        "expected shape: tree ≪ line < ring ≈ A_G at this size; the gap \
         between tree and the state-optimal protocols widens with n."
    );
}
